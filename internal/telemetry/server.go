package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ShardSample is one shard's slice of a telemetry Snapshot — the
// operational counters plus the latency histograms for each instrumented
// path. A monolithic System reports itself as a single shard 0.
type ShardSample struct {
	Index  int    `json:"index"`
	Active string `json:"active"`
	Phase  string `json:"phase"`

	Feeds          uint64 `json:"feeds"`
	Batches        uint64 `json:"batches"`
	Queries        uint64 `json:"queries"`
	Reordered      uint64 `json:"reordered"`
	PrefillsAsync  uint64 `json:"prefills_async"`
	PrefillsInline uint64 `json:"prefills_inline"`
	Occupancy      int    `json:"occupancy"`
	WindowBytes    int    `json:"window_bytes"`
	Switches       int    `json:"switches"`

	// ValidationRejected counts inputs the validation policy refused,
	// ValidationClamped inputs it repaired in place, and PrefillQueueFull
	// deferred pre-fills that hit a full queue (backpressure events).
	ValidationRejected uint64 `json:"validation_rejected,omitempty"`
	ValidationClamped  uint64 `json:"validation_clamped,omitempty"`
	PrefillQueueFull   uint64 `json:"prefill_queue_full,omitempty"`

	// IngestRatePerSec is the shard's trailing mean feed rate (objects per
	// second over the last ten completed seconds); IngestBacklog the routed
	// chunks queued to the shard's feed worker but not yet applied; and
	// IngestBackpressure the feed hand-offs that found the queue full and
	// blocked.
	IngestRatePerSec   float64 `json:"ingest_rate_per_sec"`
	IngestBacklog      int     `json:"ingest_backlog,omitempty"`
	IngestBackpressure uint64  `json:"ingest_backpressure,omitempty"`

	// Resilience is the shard's fault-isolation health: per-estimator
	// breaker states and fault counters plus fallback-answer counts.
	Resilience ResilienceStats `json:"resilience,omitempty"`

	AccuracyAvg float64 `json:"accuracy_avg"`
	MemoryBytes int     `json:"memory_bytes"`

	// Feed holds sampled single-object ingest latencies, Batch per-batch
	// ingest latencies, Query full estimate+execute+observe cycles, and
	// Estimate the active estimator's approximate-answer latencies alone.
	Feed     HistSnapshot `json:"feed_latency"`
	Batch    HistSnapshot `json:"batch_latency"`
	Query    HistSnapshot `json:"query_latency"`
	Estimate HistSnapshot `json:"estimate_latency"`
}

// Snapshot is the full telemetry state an exposition server publishes:
// per-shard samples, the merged view, the recent switch-decision trace and
// the per-estimator rolling q-error.
type Snapshot struct {
	// Engine names the deployment shape ("system", "concurrent",
	// "sharded").
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

	// Resilience is the engine-level fault-isolation view: per-shard stats
	// merged (counters summed, estimator state = worst across shards).
	Resilience ResilienceStats `json:"resilience,omitempty"`

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
	log       *Logger
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
// are mounted alongside the built-in endpoints.
func Serve(addr string, src func() Snapshot, log *Logger, extra ...Route) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("telemetry: nil snapshot source")
	}
	publishExpvar(src)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, src: src, log: log.Named("telemetry"), done: make(chan struct{})}
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
	FeedP     statuszPercentiles `json:"feed_percentiles"`
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
			FeedP:       percentilesOf(sh.Feed),
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

// WriteProm renders a Snapshot in the Prometheus text exposition format.
// Exported separately from the server so tests and offline tooling can
// render without a listener.
func WriteProm(w interface{ Write([]byte) (int, error) }, snap Snapshot) {
	var b strings.Builder

	counter := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " counter\n")
	}
	gauge := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " gauge\n")
	}
	sample := func(name, labels string, v float64) {
		b.WriteString(name)
		if labels != "" {
			b.WriteString("{" + labels + "}")
		}
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	shardLabel := func(i int) string { return `shard="` + strconv.Itoa(i) + `"` }

	counter("latest_feeds_total", "Lifetime ingested objects per shard.")
	for _, sh := range snap.Shards {
		sample("latest_feeds_total", shardLabel(sh.Index), float64(sh.Feeds))
	}
	counter("latest_batches_total", "Lifetime ingested batches per shard.")
	for _, sh := range snap.Shards {
		sample("latest_batches_total", shardLabel(sh.Index), float64(sh.Batches))
	}
	counter("latest_queries_total", "Lifetime estimate/execute cycles per shard.")
	for _, sh := range snap.Shards {
		sample("latest_queries_total", shardLabel(sh.Index), float64(sh.Queries))
	}
	counter("latest_reordered_total", "Objects whose timestamps were clamped forward per shard.")
	for _, sh := range snap.Shards {
		sample("latest_reordered_total", shardLabel(sh.Index), float64(sh.Reordered))
	}
	counter("latest_prefills_total", "Estimator pre-fill replays per shard by execution mode.")
	for _, sh := range snap.Shards {
		sample("latest_prefills_total", shardLabel(sh.Index)+`,mode="async"`, float64(sh.PrefillsAsync))
		sample("latest_prefills_total", shardLabel(sh.Index)+`,mode="inline"`, float64(sh.PrefillsInline))
	}
	counter("latest_switches_total", "Estimator switches per shard.")
	for _, sh := range snap.Shards {
		sample("latest_switches_total", shardLabel(sh.Index), float64(sh.Switches))
	}
	gauge("latest_window_occupancy", "Live objects in the shard's exact window store.")
	for _, sh := range snap.Shards {
		sample("latest_window_occupancy", shardLabel(sh.Index), float64(sh.Occupancy))
	}
	gauge("latest_window_bytes", "Footprint of the shard's exact window store, all of it its own: object arena with keyword IDs, index rings, and the keyword dictionary with its words.")
	for _, sh := range snap.Shards {
		sample("latest_window_bytes", shardLabel(sh.Index), float64(sh.WindowBytes))
	}
	gauge("latest_accuracy_avg", "Sliding accuracy average the adaptor monitors, per shard.")
	for _, sh := range snap.Shards {
		sample("latest_accuracy_avg", shardLabel(sh.Index), sh.AccuracyAvg)
	}
	gauge("latest_memory_bytes", "Estimator memory footprint per shard.")
	for _, sh := range snap.Shards {
		sample("latest_memory_bytes", shardLabel(sh.Index), float64(sh.MemoryBytes))
	}
	gauge("latest_active_estimator", "1 for the estimator currently serving each shard.")
	for _, sh := range snap.Shards {
		sample("latest_active_estimator",
			shardLabel(sh.Index)+`,estimator="`+sh.Active+`"`, 1)
	}
	gauge("latest_qerror", "Rolling q-error per estimator (1 is perfect), merged across shards.")
	for _, qe := range snap.QError {
		if qe.Samples > 0 {
			sample("latest_qerror", `estimator="`+qe.Estimator+`"`, qe.QError)
		}
	}

	if len(snap.Drift) > 0 {
		gauge("latest_qerror_drift", "Current-window over reference-window mean q-error ratio per estimator (0 until both windows fill; >= threshold means drifted).")
		for _, d := range snap.Drift {
			sample("latest_qerror_drift", `estimator="`+d.Estimator+`"`, d.Ratio)
		}
		gauge("latest_qerror_window", "Windowed mean q-error per estimator and window (reference is frozen at calibration, current rolls).")
		for _, d := range snap.Drift {
			sample("latest_qerror_window", `estimator="`+d.Estimator+`",window="reference"`, d.Reference)
			sample("latest_qerror_window", `estimator="`+d.Estimator+`",window="current"`, d.Current)
		}
		gauge("latest_qerror_drifted", "1 while the estimator's drift ratio is at or above its threshold.")
		for _, d := range snap.Drift {
			v := 0.0
			if d.Drifted {
				v = 1
			}
			sample("latest_qerror_drifted", `estimator="`+d.Estimator+`"`, v)
		}
	}

	counter("latest_validation_total", "Inputs handled by the validation policy per shard, by outcome.")
	for _, sh := range snap.Shards {
		sample("latest_validation_total", shardLabel(sh.Index)+`,outcome="rejected"`, float64(sh.ValidationRejected))
		sample("latest_validation_total", shardLabel(sh.Index)+`,outcome="clamped"`, float64(sh.ValidationClamped))
	}
	counter("latest_prefill_queue_full_total", "Deferred pre-fills that found the queue full and replayed inline, per shard.")
	for _, sh := range snap.Shards {
		sample("latest_prefill_queue_full_total", shardLabel(sh.Index), float64(sh.PrefillQueueFull))
	}
	gauge("latest_ingest_rate", "Trailing mean feed rate per shard (objects/second over the last ten completed seconds).")
	for _, sh := range snap.Shards {
		sample("latest_ingest_rate", shardLabel(sh.Index), sh.IngestRatePerSec)
	}
	gauge("latest_ingest_backlog", "Routed chunks queued to the shard's feed worker but not yet applied.")
	for _, sh := range snap.Shards {
		sample("latest_ingest_backlog", shardLabel(sh.Index), float64(sh.IngestBacklog))
	}
	counter("latest_ingest_backpressure_total", "Feed hand-offs that found the shard's ingest queue full and blocked, per shard.")
	for _, sh := range snap.Shards {
		sample("latest_ingest_backpressure_total", shardLabel(sh.Index), float64(sh.IngestBackpressure))
	}
	counter("latest_faults_total", "Estimator faults contained by the guard, per shard, estimator and kind.")
	for _, sh := range snap.Shards {
		for _, h := range sh.Resilience.Estimators {
			est := `,estimator="` + h.Estimator + `"`
			sample("latest_faults_total", shardLabel(sh.Index)+est+`,kind="panic"`, float64(h.Panics))
			sample("latest_faults_total", shardLabel(sh.Index)+est+`,kind="value"`, float64(h.ValueFaults))
			sample("latest_faults_total", shardLabel(sh.Index)+est+`,kind="deadline"`, float64(h.Deadlines))
		}
	}
	gauge("latest_quarantine_state", "Circuit-breaker state per shard and estimator: 0 closed, 1 half-open, 2 open.")
	for _, sh := range snap.Shards {
		for _, h := range sh.Resilience.Estimators {
			sample("latest_quarantine_state",
				shardLabel(sh.Index)+`,estimator="`+h.Estimator+`"`, float64(stateRank(h.State)))
		}
	}
	counter("latest_quarantines_total", "Breaker trips per shard and estimator.")
	for _, sh := range snap.Shards {
		for _, h := range sh.Resilience.Estimators {
			sample("latest_quarantines_total",
				shardLabel(sh.Index)+`,estimator="`+h.Estimator+`"`, float64(h.Quarantines))
		}
	}
	counter("latest_readmissions_total", "Probation re-admissions per shard and estimator.")
	for _, sh := range snap.Shards {
		for _, h := range sh.Resilience.Estimators {
			sample("latest_readmissions_total",
				shardLabel(sh.Index)+`,estimator="`+h.Estimator+`"`, float64(h.Readmissions))
		}
	}
	counter("latest_sanitized_total", "Estimates repaired in place by the guard (small negatives clamped), per shard and estimator.")
	for _, sh := range snap.Shards {
		for _, h := range sh.Resilience.Estimators {
			sample("latest_sanitized_total",
				shardLabel(sh.Index)+`,estimator="`+h.Estimator+`"`, float64(h.Sanitized))
		}
	}
	counter("latest_fallbacks_total", "Queries served by a fallback because the active estimate faulted, per shard and mode.")
	for _, sh := range snap.Shards {
		r := sh.Resilience
		sample("latest_fallbacks_total", shardLabel(sh.Index)+`,mode="runner_up"`, float64(r.FallbackRunnerUp))
		sample("latest_fallbacks_total", shardLabel(sh.Index)+`,mode="oracle"`, float64(r.FallbackOracle))
		sample("latest_fallbacks_total", shardLabel(sh.Index)+`,mode="zero"`, float64(r.FallbackZero))
	}

	promHistogram(&b, "latest_feed_latency_seconds",
		"Sampled single-object ingest latency.", snap.Shards,
		func(sh ShardSample) HistSnapshot { return sh.Feed })
	promHistogram(&b, "latest_batch_latency_seconds",
		"Per-batch ingest latency.", snap.Shards,
		func(sh ShardSample) HistSnapshot { return sh.Batch })
	promHistogram(&b, "latest_query_latency_seconds",
		"Full estimate+execute+observe cycle latency.", snap.Shards,
		func(sh ShardSample) HistSnapshot { return sh.Query })
	promHistogram(&b, "latest_estimate_latency_seconds",
		"Active estimator's approximate-answer latency.", snap.Shards,
		func(sh ShardSample) HistSnapshot { return sh.Estimate })

	if snap.Server != nil {
		writeServerProm(&b, snap.Server)
	}
	if snap.Durable != nil {
		writeDurableProm(&b, snap.Durable)
	}
	if snap.Cluster != nil {
		writeClusterProm(&b, snap.Cluster)
	}

	w.Write([]byte(b.String()))
}

// promHistogram renders one histogram family with per-shard label sets.
// Buckets are cumulative as the exposition format requires; empty trailing
// buckets are folded into +Inf to keep scrapes small.
func promHistogram(b *strings.Builder, name, help string, shards []ShardSample, get func(ShardSample) HistSnapshot) {
	b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " histogram\n")
	for _, sh := range shards {
		promHistogramOne(b, name, `shard="`+strconv.Itoa(sh.Index)+`"`, get(sh))
	}
}

// promHistogramOne renders one histogram series (no HELP/TYPE preamble —
// the caller owns the family header). An empty label renders an unlabeled
// series.
func promHistogramOne(b *strings.Builder, name, label string, h HistSnapshot) {
	prefix := label // bucket-line label prefix, "le" appended after it
	if label != "" {
		prefix += ","
	}
	hi := -1
	for i, n := range h.Buckets {
		if n > 0 {
			hi = i
		}
	}
	var cum uint64
	for i := 0; i <= hi && i < NumBuckets-1; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(BucketBound(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, prefix, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, h.Count)
	suffix := ""
	if label != "" {
		suffix = "{" + label + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix,
		strconv.FormatFloat(h.Sum.Seconds(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.Count)
}
