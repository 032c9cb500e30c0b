package cluster

import (
	"context"
	"errors"

	"github.com/spatiotext/latest/internal/frontend"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// Backend is the routing surface a Proxy fronts. *Router implements it;
// client.Cluster re-exposes the same router, so cmd/latest-router can
// build a Proxy over either.
type Backend interface {
	FeedBatch(ctx context.Context, objs []stream.Object) (uint32, error)
	Estimate(ctx context.Context, q stream.Query) (float64, error)
	QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error)
	Epoch() uint64
	MapBytes() []byte
	Sample() telemetry.ClusterSample
}

// ProxyConfig tunes a Proxy: the serving layer's connection settings, the
// same ones a latestd node takes.
type ProxyConfig = frontend.Config

// Proxy speaks the latestd wire protocol to clients and drives a Backend
// (normally a Router) to answer: unmodified clients talk to a cluster
// exactly as they talk to a single node. It is the serving layer of
// internal/frontend over a Handler backed by the router, so connection
// loops, drain, tracing and the admin plane are the ones latestd runs; the
// admin plane's scrape adds the latest_cluster_* families. Pings answer
// locally with the router's map epoch; TMapFetch serves the router's
// current map, so a proxy is also a valid map seed for other routers.
type Proxy struct{ *frontend.Server }

// NewProxy binds the listener (and admin plane when configured) and
// starts accepting. Shutdown and Close leave the backend to the caller.
func NewProxy(backend Backend, cfg ProxyConfig) (*Proxy, error) {
	if backend == nil {
		return nil, errors.New("cluster: nil proxy backend")
	}
	fs, err := frontend.New("router", routerHandler{backend}, cfg)
	if err != nil {
		return nil, err
	}
	return &Proxy{fs}, nil
}

// routerHandler answers the frontend's requests by routing them. A router
// owns the whole world, so it admits everything; what it cannot place it
// reports as an error (node down, map retries exhausted, deadline).
type routerHandler struct{ b Backend }

// Feed routes one batch, which the frontend may have coalesced from
// several frames; the router re-buckets by owner either way.
func (h routerHandler) Feed(ctx context.Context, objs []stream.Object) error {
	_, err := h.b.FeedBatch(ctx, objs)
	return err
}

func (h routerHandler) Estimate(ctx context.Context, q *stream.Query, _ *telemetry.ActiveTrace) (float64, error) {
	return h.b.Estimate(ctx, *q)
}

func (h routerHandler) QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error) {
	return h.b.QueryBatch(ctx, qs)
}

func (h routerHandler) OwnsObjects([]stream.Object) bool { return true }
func (h routerHandler) OwnsQuery(*stream.Query) bool     { return true }

func (h routerHandler) Map() (uint64, []byte) { return h.b.Epoch(), h.b.MapBytes() }

func (h routerHandler) Snapshot() telemetry.Snapshot {
	sample := h.b.Sample()
	return telemetry.Snapshot{Engine: "router", Cluster: &sample}
}

// Health is empty: an unreachable node fails the requests that need it,
// not the router.
func (h routerHandler) Health() []string { return nil }
