// Package frontend is the network serving layer that latestd and
// latest-router share: everything between a socket and the code that
// answers a request. The hot path is the length-prefixed binary protocol
// from internal/wire on a plain TCP listener — feed batches, estimates,
// query batches, pings, map fetches — with per-connection read/write loops,
// a bounded in-flight response window, coalescing of pipelined feed frames
// into one batch, per-request deadline budgets, sampled span timelines, a
// panic guard, and typed error frames for every rejection. The admin plane
// is the HTTP/JSON exposition server from internal/telemetry (health,
// stats, gauges, Prometheus text, pprof) plus a drain trigger and the
// sampled-trace view.
//
// What answers a request is a Handler: internal/server backs one with an
// engine, internal/cluster with a router. The package sits beneath both and
// imports neither.
//
// Graceful drain follows a GOAWAY-style sequence: the listener closes, new
// requests on live connections are answered with CodeDraining plus a
// retry-after hint while already-accepted requests finish and flush, and
// connections close once their peers hang up (or at the drain deadline,
// whichever comes first). A client that stops issuing requests after its
// first draining error therefore never loses an in-flight request.
package frontend

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// Handler is what differs between serving an engine and serving a router.
// Feed is called from a connection's read loop, Estimate and QueryBatch
// from its workers, so one Handler sees concurrent calls. A panic in any
// method is contained and answered with CodeInternal; a returned error is
// answered with CodeDeadlineExceeded when it is (or wraps) the context's,
// CodeInternal otherwise.
type Handler interface {
	// Feed applies one batch in arrival order; the batch may hold several
	// pipelined frames' objects. objs is reused after Feed returns.
	Feed(ctx context.Context, objs []stream.Object) error
	// Estimate answers one query. tr is the request's span recorder, nil
	// when the request is not sampled.
	Estimate(ctx context.Context, q *stream.Query, tr *telemetry.ActiveTrace) (float64, error)
	// QueryBatch answers estimates and exact counts for a batch.
	QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error)
	// OwnsObjects and OwnsQuery admit a request or have it refused with
	// the typed not-owner frame carrying Map's epoch.
	OwnsObjects(objs []stream.Object) bool
	OwnsQuery(q *stream.Query) bool
	// Map returns the partition map's epoch and encoding, which stamp
	// pongs and answer TMapFetch. A nil encoding means not clustered.
	Map() (epoch uint64, encoded []byte)
	// Snapshot is the admin plane's scrape source; the frontend attaches
	// its own ServerSample.
	Snapshot() telemetry.Snapshot
	// Health lists what makes this process degraded, for /healthz and
	// /readyz; draining is the frontend's own reason.
	Health() []string
}

// Config tunes a Server. Zero values mean defaults.
type Config struct {
	// Addr is the wire-protocol listen address ("host:port"; port 0 lets
	// the kernel pick — read it back with Addr).
	Addr string
	// Listener, when non-nil, is served instead of binding Addr. A cluster
	// coordinator pre-binds :0 listeners to learn real addresses, builds
	// the partition map naming them, and only then starts the servers.
	Listener net.Listener
	// AdminAddr, when non-empty, starts the HTTP admin/exposition plane.
	AdminAddr string
	// MaxConns caps concurrently open wire connections; a connection over
	// the cap has every request refused with CodeBackpressure. Default 256.
	MaxConns int
	// MaxInFlight bounds each connection's queued-but-unwritten responses.
	// A pipelined client running further ahead than this gets
	// CodeBackpressure refusals with a retry-after hint. Default 64.
	MaxInFlight int
	// TraceDepth sizes the /debug/requests ring of retained span timelines.
	// Default telemetry.DefaultTraceBufferDepth.
	TraceDepth int
	// TraceEvery is the trace sampling stride: one trace-flagged request in
	// this many is retained with its full span timeline (1 retains all).
	// Default telemetry.DefaultTraceSampleEvery.
	TraceEvery int
	// Log receives serving-layer lifecycle lines, each carrying
	// component=<name>. nil is silent.
	Log *slog.Logger
}

const (
	// maxPayload bounds accepted frame payloads.
	maxPayload = wire.DefaultMaxPayload
	// coalesceObjects caps how many objects from pipelined feed frames are
	// merged into a single Handler.Feed call.
	coalesceObjects = 8192
	// retryAfter is the hint carried in backpressure and draining errors.
	retryAfter = 50 * time.Millisecond
)

// opStat pairs a request counter with its latency histogram.
type opStat struct {
	requests atomic.Uint64
	latency  telemetry.Histogram
}

func (o *opStat) observe(start time.Time) {
	o.requests.Add(1)
	o.latency.Record(time.Since(start))
}

func (o *opStat) sample(op string) telemetry.ServerOp {
	return telemetry.ServerOp{Op: op, Requests: o.requests.Load(), Latency: o.latency.Snapshot()}
}

// stats is the atomically-updated source for ServerSample.
type stats struct {
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

func (st *stats) countErr(code wire.Code) {
	if int(code) < len(st.errs) {
		st.errs[code].Add(1)
	}
}

// Server fronts a Handler with the wire protocol and the admin plane.
type Server struct {
	name   string
	cfg    Config
	h      Handler
	ln     net.Listener
	admin  *telemetry.Server
	log    *slog.Logger
	traces *telemetry.TraceBuffer

	st       stats
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
// starts accepting. name ("server", "router") scopes log lines, refusal
// messages and errors. The returned server is live; stop it with Shutdown
// or Close.
func New(name string, h Handler, cfg Config) (*Server, error) {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("%s: listen: %w", name, err)
		}
	}
	s := &Server{
		name:    name,
		cfg:     cfg,
		h:       h,
		ln:      ln,
		log:     cmp.Or(cfg.Log, telemetry.Discard).With("component", name),
		traces:  telemetry.NewTraceBuffer(cfg.TraceDepth, cfg.TraceEvery),
		drainCh: make(chan struct{}),
		conns:   make(map[*conn]struct{}),
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
	if epoch, encoded := h.Map(); encoded != nil {
		s.log.Info("serving", "addr", ln.Addr().String(), "admin", cfg.AdminAddr, "epoch", epoch)
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
// endpoint. The owning process selects on it alongside SIGTERM and runs
// the same Shutdown path for both.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainCh }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Traces exposes the sampled-trace buffer (the /debug/requests source);
// tests and embedding processes read it directly.
func (s *Server) Traces() *telemetry.TraceBuffer { return s.traces }

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
				refuse(nc, code, msg)
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
		return wire.CodeDraining, s.name + " draining"
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

// closeConns force-closes every live connection and reports how many.
func (s *Server) closeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.nc.Close()
	}
	return len(s.conns)
}

// Shutdown drains gracefully: stop accepting, answer new requests with
// CodeDraining, let accepted requests finish and flush, and wait for peers
// to hang up. At ctx expiry any straggler connections are force-closed.
// Idempotent with Close; whatever the Handler fronts is not touched — the
// caller owns its lifecycle.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		closeAfterBacklog(s.ln, &s.acceptWG)
		s.log.Info("draining", "conns", s.st.connsActive.Load(),
			"inflight", s.st.inFlight.Load())

		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			n := s.closeConns()
			<-done
			err = fmt.Errorf("%s: drain deadline: force-closed %d conns: %w", s.name, n, ctx.Err())
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
		s.mu.Unlock()
		s.closeConns()
		s.connWG.Wait()
		if s.admin != nil {
			err = s.admin.Close()
		}
		s.log.Info("stopped")
	})
	return err
}

// snapshot is the admin plane's scrape source: the handler's own snapshot
// with the serving-layer sample attached.
func (s *Server) snapshot() telemetry.Snapshot {
	snap := s.h.Snapshot()
	sample := s.Sample()
	snap.Server = &sample
	return snap
}

// Sample builds the serving-layer slice of the telemetry snapshot.
func (s *Server) Sample() telemetry.ServerSample {
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
			st.feed.sample("feed"), st.estimate.sample("estimate"),
			st.query.sample("query"), st.ping.sample("ping"),
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

// health assesses the whole stack for the health endpoints: the handler's
// own reasons plus the serving layer's drain state.
func (s *Server) health() map[string]any {
	reasons := s.h.Health()
	status := "ok"
	if len(reasons) > 0 {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
		reasons = append(reasons, "draining")
	}
	body := map[string]any{"status": status, "reasons": reasons}
	if epoch, encoded := s.h.Map(); encoded != nil {
		body["epoch"] = epoch
	}
	return body
}

// handleHealthz is liveness plus condition: HTTP 200 as long as the
// process serves — even degraded, since a restart will not mend a broken
// disk and would lose the in-memory state a repair snapshot could still
// save — with the real assessment in the body. Route away on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := s.health()
	body["draining"] = s.draining.Load()
	body["conns"] = s.st.connsActive.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// handleReadyz splits readiness from liveness: HTTP 503 while draining or
// degraded, so load balancers stop routing here while the process stays up
// (and /healthz stays 200).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := s.health()
	ready := body["status"] == "ok"
	body["ready"] = ready
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(body)
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
