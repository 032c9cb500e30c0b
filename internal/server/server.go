// Package server is the network serving layer: it fronts an engine with
// two planes. The hot path is the length-prefixed binary protocol from
// internal/wire on a plain TCP listener — feed batches, estimates, query
// batches, pings — with per-connection read/write loops, a bounded
// in-flight response window, coalescing of pipelined feed frames into one
// engine batch, per-request deadline budgets, and typed error frames for
// every rejection. The admin plane is the HTTP/JSON exposition server from
// internal/telemetry (health, stats, gauges, Prometheus text, pprof) plus
// a drain trigger.
//
// Graceful drain follows a GOAWAY-style sequence: the listener closes, new
// requests on live connections are answered with CodeDraining plus a
// retry-after hint while already-accepted requests finish and flush, and
// connections close once their peers hang up (or at the drain deadline,
// whichever comes first). A client that stops issuing requests after its
// first draining error therefore never loses an in-flight request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// Engine is the estimator surface the serving layer fronts: the unified
// latest.Engine contract. Every engine shape — ConcurrentSystem,
// ShardedSystem, and the persistence-wrapping DurableEngine — satisfies it
// (Object and Query are aliases of the internal stream types).
type Engine = latest.Engine

// Config tunes a Server. Zero values mean defaults.
type Config struct {
	// Addr is the wire-protocol listen address ("host:port"; port 0 lets
	// the kernel pick — read it back with Addr).
	Addr string
	// AdminAddr, when non-empty, starts the HTTP admin/exposition plane.
	AdminAddr string
	// MaxConns caps concurrently open wire connections; excess accepts are
	// closed immediately and counted as rejected. Default 256.
	MaxConns int
	// MaxInFlight bounds each connection's queued-but-unwritten responses.
	// A pipelined client running further ahead than this gets
	// CodeBackpressure refusals with a retry-after hint. Default 64.
	MaxInFlight int
	// MaxPayload bounds accepted frame payloads. Default
	// wire.DefaultMaxPayload.
	MaxPayload int
	// CoalesceObjects caps how many objects from pipelined feed frames are
	// merged into a single engine batch. Default 8192.
	CoalesceObjects int
	// RetryAfter is the hint carried in backpressure and draining errors.
	// Default 50ms.
	RetryAfter time.Duration
	// TraceDepth sizes the /debug/requests ring of retained span timelines.
	// Default telemetry.DefaultTraceBufferDepth.
	TraceDepth int
	// TraceEvery is the trace sampling stride: one trace-flagged request in
	// this many is retained with its full span timeline (1 retains all).
	// Default telemetry.DefaultTraceSampleEvery.
	TraceEvery int
	// Log receives serving-layer lifecycle lines. nil is silent.
	Log *telemetry.Logger

	// ClusterMap, when set, makes this server one node of a cluster: it
	// refuses feeds of objects and queries of footprints it does not own
	// under the map with the typed not-owner frame (carrying the map
	// epoch), serves the encoded map to TMapFetch, and stamps pongs with
	// the epoch so routers detect staleness cheaply.
	ClusterMap *cluster.Map
	// NodeID is this server's index into ClusterMap.Nodes. Ignored unless
	// ClusterMap is set.
	NodeID int
	// Listener, when non-nil, is served instead of binding Addr. A cluster
	// coordinator pre-binds :0 listeners to learn real addresses, builds
	// the partition map naming them, and only then starts the servers.
	Listener net.Listener
}

func (c *Config) withDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.CoalesceObjects <= 0 {
		c.CoalesceObjects = 8192
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
}

// opStat pairs a request counter with its latency histogram.
type opStat struct {
	requests atomic.Uint64
	latency  telemetry.Histogram
}

func (o *opStat) observe(start time.Time) {
	o.requests.Add(1)
	o.latency.Record(time.Since(start))
}

// serverStats is the atomically-updated source for ServerSample.
type serverStats struct {
	connsActive    atomic.Int64
	connsAccepted  atomic.Uint64
	connsRejected  atomic.Uint64
	bytesIn        atomic.Uint64
	bytesOut       atomic.Uint64
	framesIn       atomic.Uint64
	framesOut      atomic.Uint64
	inFlight       atomic.Int64
	feedObjects    atomic.Uint64
	coalescedFeeds atomic.Uint64
	connDur        telemetry.Histogram

	feed     opStat
	estimate opStat
	query    opStat
	ping     opStat

	errs     [9]atomic.Uint64 // indexed by wire.Code (1..8)
	notOwner atomic.Uint64    // typed not-owner refusals (no wire.Code)
}

func (st *serverStats) countErr(code wire.Code) {
	if int(code) < len(st.errs) {
		st.errs[code].Add(1)
	}
}

// Server fronts an Engine with the wire protocol and the admin plane.
type Server struct {
	cfg    Config
	eng    Engine
	ln     net.Listener
	admin  *telemetry.Server
	log    *telemetry.Logger
	traces *telemetry.TraceBuffer

	clusterBytes []byte // ClusterMap pre-encoded for TMapFetch

	st       serverStats
	draining atomic.Bool
	drainCh  chan struct{} // closed by the admin /drain trigger
	drainReq sync.Once

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	stopOnce sync.Once
}

// New binds the wire listener (and the admin plane when configured) and
// starts accepting. The returned server is live; stop it with Shutdown or
// Close.
func New(eng Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg.withDefaults()
	if cfg.ClusterMap != nil {
		if cfg.NodeID < 0 || cfg.NodeID >= len(cfg.ClusterMap.Nodes) {
			return nil, fmt.Errorf("server: node id %d out of range for %d-node map",
				cfg.NodeID, len(cfg.ClusterMap.Nodes))
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("server: listen: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		ln:      ln,
		log:     cfg.Log.Named("server"),
		traces:  telemetry.NewTraceBuffer(cfg.TraceDepth, cfg.TraceEvery),
		drainCh: make(chan struct{}),
		conns:   make(map[*conn]struct{}),
	}
	if cfg.ClusterMap != nil {
		s.clusterBytes = cfg.ClusterMap.Encode()
	}
	if cfg.AdminAddr != "" {
		admin, err := telemetry.Serve(cfg.AdminAddr, s.snapshot, cfg.Log,
			telemetry.Route{Pattern: "/healthz", Handler: http.HandlerFunc(s.handleHealthz)},
			telemetry.Route{Pattern: "/readyz", Handler: http.HandlerFunc(s.handleReadyz)},
			telemetry.Route{Pattern: "/drain", Handler: http.HandlerFunc(s.handleDrain)},
			telemetry.Route{Pattern: "/debug/requests", Handler: s.traces.Handler()},
		)
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.admin = admin
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	if cfg.ClusterMap != nil {
		s.log.Info("serving", "addr", ln.Addr().String(), "admin", cfg.AdminAddr,
			"node", cfg.NodeID, "epoch", cfg.ClusterMap.Epoch)
	} else {
		s.log.Info("serving", "addr", ln.Addr().String(), "admin", cfg.AdminAddr)
	}
	return s, nil
}

// Addr returns the bound wire-protocol address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AdminAddr returns the bound admin-plane address, or "" when disabled.
func (s *Server) AdminAddr() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.Addr()
}

// DrainRequested is closed when an operator hits the admin /drain
// endpoint. The owning process (cmd/latestd) selects on it alongside
// SIGTERM and runs the same Shutdown path for both.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainCh }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or Close
		}
		// A connection that raced the drain out of the listen backlog, or
		// arrives over the limit, is told so in the protocol, not hung up on.
		if code, msg := s.refusal(); code != 0 {
			s.st.connsRejected.Add(1)
			s.connWG.Add(1)
			go func() {
				defer s.connWG.Done()
				wire.Refuse(nc, s.cfg.MaxPayload, code, s.cfg.RetryAfter, msg)
			}()
			continue
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.st.connsActive.Add(1)
		s.st.connsAccepted.Add(1)
		s.connWG.Add(1)
		go c.serve()
	}
}

// refusal reports why a newly accepted connection cannot be served, or
// code 0 when it can.
func (s *Server) refusal() (wire.Code, string) {
	switch {
	case s.draining.Load():
		return wire.CodeDraining, "server draining"
	case s.st.connsActive.Load() >= int64(s.cfg.MaxConns):
		return wire.CodeBackpressure, "connection limit reached"
	}
	return 0, ""
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.st.connDur.Record(time.Since(c.opened))
	s.st.connsActive.Add(-1)
	s.connWG.Done()
}

// Traces exposes the sampled-trace buffer (the /debug/requests source);
// tests and embedding processes read it directly.
func (s *Server) Traces() *telemetry.TraceBuffer { return s.traces }

// estimate runs one query, threading the request trace into the engine
// when the engine supports span attribution (all shipped shapes do).
func (s *Server) estimate(q *latest.Query, tr *telemetry.ActiveTrace) (float64, int) {
	if tr != nil {
		if te, ok := s.eng.(latest.TracedEngine); ok {
			return te.EstimateAndExecuteTraced(q, tr)
		}
	}
	return s.eng.EstimateAndExecute(q)
}

// Shutdown drains gracefully: stop accepting, answer new requests with
// CodeDraining, let accepted requests finish and flush, and wait for peers
// to hang up. At ctx expiry any straggler connections are force-closed.
// Idempotent with Close; the engine is not touched — the caller owns its
// lifecycle.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		wire.CloseAfterBacklog(s.ln, &s.acceptWG)
		s.log.Info("draining", "conns", s.st.connsActive.Load(),
			"inflight", s.st.inFlight.Load())

		// Wait for peers to finish and hang up; poll rather than
		// channel-per-conn since drain is rare and seconds-scale.
		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.mu.Lock()
			n := len(s.conns)
			for c := range s.conns {
				c.nc.Close()
			}
			s.mu.Unlock()
			<-done
			err = fmt.Errorf("server: drain deadline: force-closed %d conns: %w", n, ctx.Err())
		}
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		if s.admin != nil {
			if aerr := s.admin.Shutdown(ctx); err == nil {
				err = aerr
			}
		}
		s.log.Info("stopped")
	})
	return err
}

// Close force-stops: listener, all connections, admin plane. In-flight
// requests are abandoned. Idempotent with Shutdown.
func (s *Server) Close() error {
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		s.acceptWG.Wait()
		s.mu.Lock()
		s.closed = true
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		if s.admin != nil {
			err = s.admin.Close()
		}
		s.log.Info("stopped")
	})
	return err
}

// snapshot is the admin plane's scrape source: the engine's own snapshot
// with the serving-layer sample attached.
func (s *Server) snapshot() telemetry.Snapshot {
	snap := s.eng.TelemetrySnapshot()
	sample := s.sample()
	snap.Server = &sample
	return snap
}

// sample builds the serving-layer slice of the telemetry snapshot.
func (s *Server) sample() telemetry.ServerSample {
	st := &s.st
	return telemetry.ServerSample{
		Addr:           s.Addr(),
		Draining:       s.draining.Load(),
		ConnsActive:    st.connsActive.Load(),
		ConnsAccepted:  st.connsAccepted.Load(),
		ConnsRejected:  st.connsRejected.Load(),
		BytesIn:        st.bytesIn.Load(),
		BytesOut:       st.bytesOut.Load(),
		FramesIn:       st.framesIn.Load(),
		FramesOut:      st.framesOut.Load(),
		InFlight:       st.inFlight.Load(),
		FeedObjects:    st.feedObjects.Load(),
		CoalescedFeeds: st.coalescedFeeds.Load(),
		Ops: []telemetry.ServerOp{
			{Op: "feed", Requests: st.feed.requests.Load(), Latency: st.feed.latency.Snapshot()},
			{Op: "estimate", Requests: st.estimate.requests.Load(), Latency: st.estimate.latency.Snapshot()},
			{Op: "query", Requests: st.query.requests.Load(), Latency: st.query.latency.Snapshot()},
			{Op: "ping", Requests: st.ping.requests.Load(), Latency: st.ping.latency.Snapshot()},
		},
		ConnDuration:  st.connDur.Snapshot(),
		TracesSeen:    s.traces.Seen(),
		TracesSampled: s.traces.Sampled(),
		Errors: telemetry.ServerErrors{
			Malformed:    st.errs[wire.CodeMalformed].Load(),
			TooLarge:     st.errs[wire.CodeTooLarge].Load(),
			VersionSkew:  st.errs[wire.CodeVersionSkew].Load(),
			UnknownType:  st.errs[wire.CodeUnknownType].Load(),
			Backpressure: st.errs[wire.CodeBackpressure].Load(),
			Draining:     st.errs[wire.CodeDraining].Load(),
			Deadline:     st.errs[wire.CodeDeadlineExceeded].Load(),
			Internal:     st.errs[wire.CodeInternal].Load(),
			NotOwner:     st.notOwner.Load(),
		},
	}
}

// healthStatus assesses the whole stack for the health endpoints: the
// serving layer's drain state, the durability layer's degraded-mode
// machine (via latest.HealthReporter, the same type-assert extension
// pattern TracedEngine uses) and the accuracy-drift watchdog.
func (s *Server) healthStatus() (status string, reasons []string) {
	if hr, ok := s.eng.(latest.HealthReporter); ok {
		if h := hr.Health(); !h.Healthy() {
			reasons = append(reasons, "persistence:"+h.State.String())
		}
	}
	for _, d := range s.eng.TelemetrySnapshot().Drift {
		if d.Drifted {
			reasons = append(reasons, "drift:"+d.Estimator)
		}
	}
	status = "ok"
	if len(reasons) > 0 {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
		reasons = append(reasons, "draining")
	}
	return status, reasons
}

// handleHealthz is liveness plus condition: HTTP 200 as long as the
// process serves — even degraded, since a restart will not mend a broken
// disk and would lose the in-memory state a repair snapshot could still
// save — with the real assessment in the body. Route away on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, reasons := s.healthStatus()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"reasons":  reasons,
		"draining": s.draining.Load(),
		"conns":    s.st.connsActive.Load(),
	})
}

// handleReadyz splits readiness from liveness: HTTP 503 while draining,
// persistence-degraded or drift-tripped, so load balancers stop routing
// here while the process stays up (and /healthz stays 200).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status, reasons := s.healthStatus()
	ready := status == "ok"
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"ready":   ready,
		"status":  status,
		"reasons": reasons,
	})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.drainReq.Do(func() { close(s.drainCh) })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"draining": true})
}
