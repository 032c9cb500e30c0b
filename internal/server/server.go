// Package server serves an engine over the network: server.New is the
// shared serving layer of internal/frontend — wire protocol, connection
// loops, drain, admin plane — over a Handler backed by a latest.Engine.
// With a cluster map the same handler makes the process one node of a
// cluster: it refuses what it does not own and serves the map.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/frontend"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// Engine is the estimator surface the serving layer fronts: the unified
// latest.Engine contract. Every engine — ShardedSystem, whichever
// constructor built it, and the persistence-wrapping DurableEngine —
// satisfies it (Object and Query are aliases of the internal stream types).
type Engine = latest.Engine

// Config tunes a Server. Zero values mean defaults. Everything but
// ClusterMap and NodeID is frontend.Config's field of the same name,
// restated because a composite literal cannot name an embedded struct's
// fields.
type Config struct {
	Addr        string
	Listener    net.Listener
	AdminAddr   string
	MaxConns    int
	MaxInFlight int
	TraceDepth  int
	TraceEvery  int
	Log         *slog.Logger

	// ClusterMap, when set, makes this server one node of a cluster: it
	// refuses feeds of objects and queries of footprints it does not own
	// under the map with the typed not-owner frame (carrying the map
	// epoch), serves the encoded map to TMapFetch, and stamps pongs with
	// the epoch so routers detect staleness cheaply.
	ClusterMap *cluster.Map
	// NodeID is this server's index into ClusterMap.Nodes. Ignored unless
	// ClusterMap is set.
	NodeID int
}

// Server fronts an Engine with the wire protocol and the admin plane.
type Server struct{ *frontend.Server }

// New binds the wire listener (and the admin plane when configured) and
// starts accepting. The returned server is live; stop it with Shutdown or
// Close. Neither touches the engine — the caller owns its lifecycle.
func New(eng Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	h := &engineHandler{eng: eng, cm: cfg.ClusterMap, node: cfg.NodeID}
	if h.cm != nil {
		if h.node < 0 || h.node >= len(h.cm.Nodes) {
			return nil, fmt.Errorf("server: node id %d out of range for %d-node map",
				h.node, len(h.cm.Nodes))
		}
		h.encoded = h.cm.Encode()
	}
	fs, err := frontend.New("server", h, frontend.Config{
		Addr:        cfg.Addr,
		Listener:    cfg.Listener,
		AdminAddr:   cfg.AdminAddr,
		MaxConns:    cfg.MaxConns,
		MaxInFlight: cfg.MaxInFlight,
		TraceDepth:  cfg.TraceDepth,
		TraceEvery:  cfg.TraceEvery,
		Log:         cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	return &Server{fs}, nil
}

// engineHandler answers the frontend's requests from an engine. Engine
// calls cannot fail or be cancelled, so every error is nil and the
// frontend's own deadline check is what enforces a request's budget.
type engineHandler struct {
	eng     Engine
	cm      *cluster.Map // nil: standalone, owns everything
	node    int
	encoded []byte // cm pre-encoded for TMapFetch
}

func (h *engineHandler) Feed(_ context.Context, objs []stream.Object) error {
	h.eng.FeedBatch(objs)
	return nil
}

// Estimate threads the request trace (nil when unsampled) into the engine.
func (h *engineHandler) Estimate(_ context.Context, q *stream.Query, tr *telemetry.ActiveTrace) (float64, error) {
	est, _ := h.eng.EstimateAndExecuteTraced(q, tr)
	return est, nil
}

func (h *engineHandler) QueryBatch(_ context.Context, qs []stream.Query) ([]float64, []int, error) {
	ests, acts := make([]float64, len(qs)), make([]int, len(qs))
	for i := range qs {
		ests[i], acts[i] = h.eng.EstimateAndExecute(&qs[i])
	}
	return ests, acts, nil
}

func (h *engineHandler) OwnsObjects(objs []stream.Object) bool {
	if h.cm == nil {
		return true
	}
	for i := range objs {
		if !h.cm.OwnsPoint(h.node, objs[i].Loc) {
			return false
		}
	}
	return true
}

// OwnsQuery accepts keyword-only queries anywhere: the router broadcasts
// them and each node counts only its own objects.
func (h *engineHandler) OwnsQuery(q *stream.Query) bool {
	return h.cm == nil || !q.HasRange || h.cm.OwnsQuery(h.node, q.Range)
}

func (h *engineHandler) Map() (uint64, []byte) {
	if h.cm == nil {
		return 0, nil
	}
	return h.cm.Epoch, h.encoded
}

func (h *engineHandler) Snapshot() telemetry.Snapshot { return h.eng.TelemetrySnapshot() }

// Health reports the durability layer's degraded-mode machine and the
// accuracy-drift watchdog, both from one telemetry snapshot.
func (h *engineHandler) Health() (reasons []string) {
	snap := h.eng.TelemetrySnapshot()
	if d := snap.Durable; d != nil && d.State != latest.DurableHealthy.String() {
		reasons = append(reasons, "persistence:"+d.State)
	}
	for _, d := range snap.Drift {
		if d.Drifted {
			reasons = append(reasons, "drift:"+d.Estimator)
		}
	}
	return reasons
}
