package latest

import (
	"io"
	"time"
)

// options.go defines the functional-option configuration surface shared by
// New, NewConcurrent and NewSharded — the only way to configure an engine.
// WithAlpha(0) unambiguously means "accuracy only", no companion boolean
// required. There are two engine types: System, and ShardedSystem, of which
// NewConcurrent builds the one-shard preset. Options that only make sense
// for one constructor (WithTelemetry, WithShards) are rejected by the
// constructors that cannot honour them.

// Option customizes a System or a ShardedSystem at construction time.
// Options apply in order; later options win.
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

// WithPretrainQueries sets the pre-training phase length (default 2000).
func WithPretrainQueries(n int) Option {
	return func(c *config) { c.PretrainQueries = n }
}

// WithCooldown sets the minimum number of queries between switches
// (default AccWindow/2).
func WithCooldown(n int) Option {
	return func(c *config) { c.CooldownQueries = n }
}

// WithOpportunityMargin sets the proactive-switch margin: the adaptor moves
// to a strictly better estimator once its α-weighted score exceeds the
// active one's by this margin for half an accuracy window (default 0.15).
// Negative disables opportunity switches entirely, leaving only the τ
// threshold — useful for bit-exact reproducible runs, since opportunity
// decisions weigh measured wall-clock latency.
func WithOpportunityMargin(m float64) Option {
	return func(c *config) { c.OpportunityMargin = m }
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
func WithOnSwitch(fn func(SwitchEvent)) Option {
	return func(c *config) { c.OnSwitch = fn }
}

// WithOracleGridCells sizes the exact window store's internal grid (speed
// only, never correctness; default 4096).
func WithOracleGridCells(n int) Option {
	return func(c *config) { c.OracleGridCells = n }
}

// WithShards sets the number of spatial shards a ShardedSystem partitions
// the world into (default runtime.GOMAXPROCS(0)). New rejects it, and so
// does NewConcurrent, which is the one-shard engine by definition.
func WithShards(n int) Option {
	return func(c *config) { c.Shards = n }
}

// WithTelemetry starts a stdlib-only HTTP exposition server on addr
// ("host:port"; port 0 lets the kernel pick — read the bound address back
// with TelemetryAddr). It publishes Prometheus text at /metrics, a JSON
// status snapshot (switch-decision trace, per-estimator q-error, latency
// percentiles) at /statusz, expvar at /debug/vars and pprof under
// /debug/pprof/. Supported by NewConcurrent and NewSharded, whose engines
// are safe to scrape while traffic flows; New returns an error because a
// single-goroutine System is not. Stop the server with Close, or with
// Shutdown(ctx) to let in-flight scrapes finish first.
//
// When the engine sits behind the network serving layer (cmd/latestd),
// leave this option off: the daemon runs its own exposition server via
// internal/server and publishes the engine's TelemetrySnapshot alongside
// the serving-layer families on a single /metrics listener.
func WithTelemetry(addr string) Option {
	return func(c *config) { c.TelemetryAddr = addr }
}

// WithLogger directs structured logfmt lines (estimator switches, prefill
// lifecycle, telemetry-server lifecycle) at or above min to w. Logging
// stays off the per-object and per-query hot paths.
func WithLogger(w io.Writer, min LogLevel) Option {
	return func(c *config) { c.LogOutput, c.LogLevel = w, min }
}

// WithTraceDepth sizes the switch-decision audit ring each module retains
// (default 64). Deeper rings remember more history at a few hundred bytes
// per record.
func WithTraceDepth(n int) Option {
	return func(c *config) { c.TraceDepth = n }
}

// WithValidation selects the input-hardening policy applied to inbound
// objects (Feed/FeedBatch) and queries (the estimate entry points):
// ValidationClamp (the default) repairs what is repairable and rejects the
// rest, ValidationStrict rejects every non-conforming input, ValidationDrop
// rejects silently. Rejections and repairs are counted in the
// ValidationRejected / ValidationClamped gauges.
func WithValidation(p ValidationPolicy) Option {
	return func(c *config) { c.Validation = p }
}

// WithBreaker tunes the per-estimator quarantine circuit breaker (fault
// window, trip threshold, cooldown, probe count, per-call deadline,
// estimate sanity ceiling). Zero fields keep the package defaults.
func WithBreaker(b BreakerConfig) Option {
	return func(c *config) { c.Breaker = b }
}

// WithFaultInjector installs a deterministic fault injector on every
// estimator guard — the chaos-testing hook. Injected faults flow through
// the same recovery, sanitization and quarantine machinery as real ones.
func WithFaultInjector(inj *FaultInjector) Option {
	return func(c *config) { c.FaultInjector = inj }
}

// WithLatencyModel replaces wall-clock estimator latency measurement with
// fn in the switching model's training signal: fn receives the estimator
// name, the query, and the measured latency, and returns the latency to
// record. Combined with WithSeed this makes latency-sensitive switching
// decisions (α > 0, opportunity switches) bit-reproducible across engines
// and runs — the correctness harness in internal/check depends on it.
// Production deployments leave it unset.
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
