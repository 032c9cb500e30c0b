package telemetry

import (
	"cmp"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// ShardSample is one shard's slice of a telemetry Snapshot — the
// operational counters plus the latency histograms for each instrumented
// path. A one-shard engine reports a single shard 0.
type ShardSample struct {
	Index  int    `json:"index"`
	Active string `json:"active"`
	Phase  string `json:"phase"`

	Feeds            uint64 `json:"feeds"`
	Batches          uint64 `json:"batches"`
	Queries          uint64 `json:"queries"`
	Reordered        uint64 `json:"reordered"`
	PrefillsDrawn    uint64 `json:"prefills_drawn"`
	PrefillsReplayed uint64 `json:"prefills_replayed"`
	// PrefillObjectsDrawn and PrefillObjectsReplayed count the window
	// objects those pre-fills read.
	PrefillObjectsDrawn    uint64 `json:"prefill_objects_drawn"`
	PrefillObjectsReplayed uint64 `json:"prefill_objects_replayed"`
	Occupancy              int    `json:"occupancy"`
	WindowBytes            int    `json:"window_bytes"`
	Switches               int    `json:"switches"`
	// PrefillsStarted counts switch candidates the shard began warming and
	// PrefillsAdopted the switches that took one.
	PrefillsStarted int `json:"prefills_started"`
	PrefillsAdopted int `json:"prefills_adopted"`

	// ValidationRejected counts inputs the validation policy refused and
	// ValidationClamped inputs it repaired in place.
	ValidationRejected uint64 `json:"validation_rejected,omitempty"`
	ValidationClamped  uint64 `json:"validation_clamped,omitempty"`

	// IngestRatePerSec is the shard's trailing mean feed rate (objects per
	// second over the last ten completed seconds).
	IngestRatePerSec float64 `json:"ingest_rate_per_sec"`

	// Sanitized counts, per estimator, the answers that were NaN, ±Inf
	// or negative and were served as 0 instead.
	Sanitized map[string]uint64 `json:"sanitized,omitempty"`

	AccuracyAvg float64 `json:"accuracy_avg"`
	MemoryBytes int     `json:"memory_bytes"`

	// Batch holds per-batch ingest latencies, Query full
	// estimate+execute+observe cycles, and Estimate the active estimator's
	// approximate-answer latencies alone.
	Batch    HistSnapshot `json:"batch_latency"`
	Query    HistSnapshot `json:"query_latency"`
	Estimate HistSnapshot `json:"estimate_latency"`
}

// Snapshot is the full telemetry state an exposition server publishes:
// per-shard samples, the merged view, the recent switch-decision trace and
// the per-estimator rolling q-error.
type Snapshot struct {
	// Engine names the engine type: "sharded" for every engine of the
	// root package, whatever its shard count.
	Engine string `json:"engine"`
	// Phase and Active describe the merged module view.
	Phase       string  `json:"phase"`
	Active      string  `json:"active"`
	Switches    int     `json:"switches"`
	AccuracyAvg float64 `json:"accuracy_avg"`
	MemoryBytes int     `json:"memory_bytes"`
	WindowSize  int     `json:"window_size"`
	// WindowBytes is the footprint of the exact window stores, summed over
	// shards.
	WindowBytes int `json:"window_bytes"`

	Shards    []ShardSample  `json:"shards"`
	Decisions []Decision     `json:"decisions"`
	QError    []QErrorSample `json:"qerror"`

	// Drift is the accuracy-drift watchdog's per-estimator reading
	// (current-window vs reference-window mean q-error), merged across
	// shards.
	Drift []DriftSample `json:"drift,omitempty"`

	// Server is the serving layer's slice of the snapshot when this
	// process fronts the engine with latestd's wire protocol; nil for
	// in-process deployments.
	Server *ServerSample `json:"server,omitempty"`

	// Durable is the durability layer's slice of the snapshot when the
	// engine is wrapped in a DurableEngine; nil otherwise.
	Durable *DurableSample `json:"durable,omitempty"`

	// Cluster is the routing layer's slice of the snapshot when this
	// process routes to a multi-node cluster (client.Cluster or
	// cmd/latest-router); nil otherwise.
	Cluster *ClusterSample `json:"cluster,omitempty"`
}

// Server publishes telemetry over HTTP using only the standard library:
//
//	/metrics      Prometheus text exposition (gauges, counters, histograms)
//	/statusz      the full Snapshot as JSON (histogram percentiles computed,
//	              last-N switch decisions, per-shard gauges)
//	/debug/vars   expvar
//	/debug/pprof  runtime profiling
type Server struct {
	ln        net.Listener
	srv       *http.Server
	src       func() Snapshot
	log       *slog.Logger
	closeOnce sync.Once
	done      chan struct{}
}

// expvar publication: one process-wide "latest" Func variable pointing at
// the most recently started server's source (expvar.Publish panics on
// duplicate names, so registration happens once and the source is swapped
// atomically).
var (
	expvarOnce sync.Once
	expvarSrc  atomic.Value // of func() Snapshot
)

func publishExpvar(src func() Snapshot) {
	expvarSrc.Store(src)
	expvarOnce.Do(func() {
		expvar.Publish("latest", expvar.Func(func() any {
			if f, ok := expvarSrc.Load().(func() Snapshot); ok && f != nil {
				return f()
			}
			return nil
		}))
	})
}

// Route is an extra handler mounted on the exposition mux — the hook the
// serving layer uses to add its admin endpoints (/healthz, /drain) to the
// same listener that publishes /metrics.
type Route struct {
	Pattern string
	Handler http.Handler
}

// Serve starts a telemetry server on addr (e.g. "127.0.0.1:9090"; use port
// 0 to let the kernel pick) reading state through src on every scrape. The
// server runs until Close (immediate) or Shutdown (graceful). Extra routes
// are mounted alongside the built-in endpoints. Lifecycle lines go to log
// (nil is silent) with component=telemetry.
func Serve(addr string, src func() Snapshot, log *slog.Logger, extra ...Route) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("telemetry: nil snapshot source")
	}
	publishExpvar(src)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, src: src, log: cmp.Or(log, Discard).With("component", "telemetry"), done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, r := range extra {
		mux.Handle(r.Pattern, r.Handler)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("serve failed", "err", err)
		}
	}()
	s.log.Info("telemetry listening", "addr", ln.Addr().String())
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately, severing in-flight scrapes.
// Idempotent; a no-op after Shutdown.
func (s *Server) Close() error { return s.stop(nil) }

// Shutdown stops the server gracefully: the listener closes at once, but
// in-flight scrapes are allowed to finish until ctx expires. This is the
// path latestd's drain takes so a scrape racing the SIGTERM still gets its
// response. Idempotent; a no-op after Close.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.stop(ctx)
}

// stop implements Close (nil ctx: immediate) and Shutdown (graceful),
// sharing one sync.Once so whichever runs first wins and the server's
// goroutine is reaped exactly once.
func (s *Server) stop(ctx context.Context) error {
	var err error
	s.closeOnce.Do(func() {
		if ctx != nil {
			err = s.srv.Shutdown(ctx)
		} else {
			err = s.srv.Close()
		}
		<-s.done
		s.log.Info("telemetry stopped", "addr", s.ln.Addr().String())
	})
	return err
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(statuszView(s.src())); err != nil {
		s.log.Error("statusz encode failed", "err", err)
	}
}

// statuszPercentiles decorates a histogram with computed percentiles for
// the JSON view, where the raw bucket array alone would make operators do
// arithmetic.
type statuszPercentiles struct {
	Count uint64 `json:"count"`
	Mean  string `json:"mean"`
	P50   string `json:"p50"`
	P95   string `json:"p95"`
	P99   string `json:"p99"`
	Max   string `json:"max"`
}

type statuszShard struct {
	ShardSample
	BatchP    statuszPercentiles `json:"batch_percentiles"`
	QueryP    statuszPercentiles `json:"query_percentiles"`
	EstimateP statuszPercentiles `json:"estimate_percentiles"`
}

type statuszBody struct {
	Snapshot
	ShardsView []statuszShard `json:"shards_view"`
}

func percentilesOf(h HistSnapshot) statuszPercentiles {
	return statuszPercentiles{
		Count: h.Count,
		Mean:  h.Mean().String(),
		P50:   h.P50().String(),
		P95:   h.P95().String(),
		P99:   h.P99().String(),
		Max:   h.Max.String(),
	}
}

func statuszView(snap Snapshot) statuszBody {
	body := statuszBody{Snapshot: snap, ShardsView: make([]statuszShard, len(snap.Shards))}
	for i, sh := range snap.Shards {
		body.ShardsView[i] = statuszShard{
			ShardSample: sh,
			BatchP:      percentilesOf(sh.Batch),
			QueryP:      percentilesOf(sh.Query),
			EstimateP:   percentilesOf(sh.Estimate),
		}
	}
	return body
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, s.src())
	// Runtime health is collected live per scrape and appended after the
	// snapshot families; it stays out of WriteProm so the snapshot renderer
	// remains a deterministic, golden-testable function of its argument.
	WriteGoRuntimeProm(w, ReadGoRuntime())
}
