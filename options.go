package latest

import (
	"log/slog"
	"time"
)

// options.go defines the functional-option configuration surface shared by
// New, NewConcurrent and NewSharded — the only way to configure an engine.
// An option exists for each knob the paper tunes (fleet, α, τ, β, accuracy
// window, pre-training length, memory scale), for seeding, sharding and
// observability, and for the integration seams (registry, latency
// model). Everything else is a constant: the switch
// cooldown and opportunity margin are core's, the exact store a
// 4096-cell grid, the decision trace 64 records, and input validation its
// one clamp policy (validation.go). WithAlpha(0) unambiguously means
// "accuracy only", no companion boolean required. All three build the one
// engine type, ShardedSystem: NewSharded with N shards, New and
// NewConcurrent with one (New wraps it as a System). WithShards is the one
// option a constructor can reject: New and NewConcurrent always build one
// shard.

// Option customizes an engine at construction time. Options apply in
// order; later options win.
type Option func(*config)

// WithRegistry supplies the estimator registry (nil keeps the paper's six).
func WithRegistry(r *Registry) Option {
	return func(c *config) { c.Registry = r }
}

// WithEstimators names the fleet members (default: every registered
// estimator, in registration order).
func WithEstimators(names ...string) Option {
	return func(c *config) { c.Estimators = append([]string(nil), names...) }
}

// WithDefaultEstimator names the estimator active when the incremental
// phase starts (default RSH, as in the paper).
func WithDefaultEstimator(name string) Option {
	return func(c *config) { c.Default = name }
}

// WithAlpha sets α ∈ [0,1], the latency-vs-accuracy weight of switching
// decisions: 0 = accuracy only, 1 = latency only. A literal 0 needs no
// companion flag.
func WithAlpha(a float64) Option {
	return func(c *config) { c.Alpha, c.AlphaSet = a, true }
}

// WithTau sets τ ∈ (0,1), the accuracy threshold that triggers a switch
// (default 0.75).
func WithTau(t float64) Option {
	return func(c *config) { c.Tau = t }
}

// WithBeta sets β ∈ (0,1), controlling how early the replacement estimator
// starts pre-filling (default 0.8).
func WithBeta(b float64) Option {
	return func(c *config) { c.Beta = b }
}

// WithAccWindow sets how many recent queries the monitored accuracy
// average covers (default 200).
func WithAccWindow(n int) Option {
	return func(c *config) { c.AccWindow = n }
}

// WithPretrainQueries sets the engine's pre-training phase length (default
// 2000). A ShardedSystem splits it across its shards: each of n shards
// pre-trains on ceil(length/n) queries.
func WithPretrainQueries(n int) Option {
	return func(c *config) { c.PretrainQueries = n }
}

// WithMemoryScale multiplies every estimator's capacity defaults
// (default 1).
func WithMemoryScale(s float64) Option {
	return func(c *config) { c.MemoryScale = s }
}

// WithSeed makes runs reproducible.
func WithSeed(seed int64) Option {
	return func(c *config) { c.Seed = seed }
}

// WithOnSwitch installs a callback invoked after every estimator switch.
// It runs on the query that made the switch, under the engine lock, so it
// must return promptly and must not call back into the engine.
func WithOnSwitch(fn func(SwitchEvent)) Option {
	return func(c *config) { c.OnSwitch = fn }
}

// WithShards sets the number of spatial shards NewSharded partitions the
// world into (default runtime.GOMAXPROCS(0)). The pre-training length
// (WithPretrainQueries) stays the engine's and is split across the shards.
// New and NewConcurrent, which always build one shard, reject it.
func WithShards(n int) Option {
	return func(c *config) { c.Shards = n }
}

// WithTelemetry starts a stdlib-only HTTP exposition server on addr
// ("host:port"; port 0 lets the kernel pick — read the bound address back
// with TelemetryAddr). It publishes Prometheus text at /metrics, a JSON
// status snapshot (switch-decision trace, per-estimator q-error, latency
// percentiles) at /statusz, expvar at /debug/vars and pprof under
// /debug/pprof/. Every constructor accepts it: every engine is safe to
// scrape while traffic flows. Stop the server with Shutdown(ctx), which
// lets in-flight scrapes finish first.
//
// When the engine sits behind the network serving layer (cmd/latestd),
// leave this option off: the daemon runs its own exposition server via
// internal/server and publishes the engine's TelemetrySnapshot alongside
// the serving-layer families on a single /metrics listener.
func WithTelemetry(addr string) Option {
	return func(c *config) { c.TelemetryAddr = addr }
}

// WithLogger directs structured lines (estimator switches, prefill
// lifecycle, rejected input, telemetry-server lifecycle) to l; each shard's
// lines carry component=shard-N. A nil l is silent. Logging stays off the
// per-object and per-query hot paths.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.Log = l }
}

// WithLatencyModel replaces wall-clock estimator latency measurement with
// fn in the switching model's training signal: fn receives the estimator
// name, the query, and the measured latency, and returns the latency to
// record. Combined with WithSeed this makes latency-sensitive switching
// decisions (α > 0, opportunity switches) bit-reproducible across engines
// and runs — it is the one way to keep the wall clock out of switching, and
// the correctness harness in internal/check depends on it. Production
// deployments leave it unset.
func WithLatencyModel(fn func(estimator string, q *Query, measured time.Duration) time.Duration) Option {
	return func(c *config) { c.LatencyModel = fn }
}

// buildConfig folds options into a Config carrying the world and window.
func buildConfig(world Rect, window time.Duration, opts []Option) config {
	cfg := config{World: world, Window: window}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}
