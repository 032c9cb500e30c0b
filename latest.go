// Package latest is a learning-assisted selectivity estimation module for
// spatio-textual streams — a Go reproduction of "LATEST: Learning-Assisted
// Selectivity Estimation Over Spatio-Textual Streams" (Patil & Magdy,
// ICDE 2021).
//
// LATEST answers Range-Counting Distinct-Value Queries (RC-DVQ): "estimate
// how many objects of the last T time units lie in spatial range R and
// carry at least one keyword of W". Instead of committing to a single
// estimation structure, it maintains a fleet (2-D histogram, reservoir
// samplers, adaptive quadtree, learned models) and incrementally trains a
// Hoeffding tree on system-log feedback to switch, at run time, to
// whichever estimator best serves the current query workload.
//
// # Quick start
//
//	world := latest.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
//	sys, err := latest.New(world, 10*time.Minute)
//	...
//	sys.Feed(latest.Object{ID: 1, Loc: latest.Pt(-118.24, 34.05),
//		Keywords: []string{"fire"}, Timestamp: now})
//	q := latest.HybridQuery(area, []string{"fire"}, now)
//	estimate := sys.Estimate(&q)   // fast approximate count
//	actual := sys.Execute(&q)      // exact count + feedback to the model
//
// Tuning knobs are functional options: latest.New(world, window,
// latest.WithAlpha(0), latest.WithTau(0.8), ...).
//
// Estimate is the query optimizer's cheap call; Execute plays the query
// processor whose true result lands in the system logs and trains the
// switching model. Applications that execute queries through their own
// engine can call Estimate followed by ObserveActual instead.
//
// Two engine types share one surface (Feed/FeedBatch,
// EstimateAndExecute/EstimateAndExecuteBatch):
//
//   - System — single-goroutine, lowest overhead.
//   - ShardedSystem — the world spatially partitioned into N shards, each
//     its own window + estimator fleet behind its own lock; ingest routes
//     to one shard, queries fan out to intersecting shards. NewConcurrent
//     builds it with one shard: one module behind one mutex, no
//     background goroutine, for request handlers.
package latest

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// Geometry and stream types, aliased from the implementation packages so
// user code never imports internal paths.
type (
	// Point is a location in 2-D (lon/lat-like) space.
	Point = geo.Point
	// Rect is an axis-aligned rectangle, min-closed and max-open.
	Rect = geo.Rect
	// Object is a geo-textual stream element (oid, loc, kw, timestamp).
	Object = stream.Object
	// Query is an RC-DVQ estimation query.
	Query = stream.Query
	// QueryType classifies queries as spatial, keyword or hybrid.
	QueryType = stream.QueryType
	// Estimator is the pluggable estimator interface; implement it and
	// register with a Registry to extend the fleet.
	Estimator = estimator.Estimator
	// EstimatorParams parameterizes estimator construction.
	EstimatorParams = estimator.Params
	// Registry maps estimator names to factories.
	Registry = estimator.Registry
	// SwitchEvent records one estimator switch.
	SwitchEvent = core.SwitchEvent
	// Stats is a snapshot of the module internals.
	Stats = core.Stats
	// Phase is the lifecycle phase (warm-up, pre-training, incremental).
	Phase = core.Phase
	// GaugeSnapshot is a point-in-time copy of an engine's operational
	// counters and latency histograms.
	GaugeSnapshot = metrics.GaugeSnapshot
	// HistogramSnapshot is a point-in-time copy of a latency histogram
	// (count, sum, max, log buckets, percentile accessors).
	HistogramSnapshot = telemetry.HistSnapshot
	// Decision is one switch-decision audit record: what the adaptor saw,
	// what the model recommended and with what confidence, and every
	// estimator's rolling q-error at that moment.
	Decision = telemetry.Decision
	// QErrorSample is one estimator's rolling q-error.
	QErrorSample = telemetry.QErrorSample
	// LogLevel is a severity for the structured logger enabled by
	// WithLogger.
	LogLevel = telemetry.Level
)

// Log severities for WithLogger.
const (
	LogDebug = telemetry.LevelDebug
	LogInfo  = telemetry.LevelInfo
	LogWarn  = telemetry.LevelWarn
	LogError = telemetry.LevelError
)

// Query type constants.
const (
	SpatialQueryType = stream.SpatialQuery
	KeywordQueryType = stream.KeywordQuery
	HybridQueryType  = stream.HybridQuery
)

// Lifecycle phases.
const (
	PhaseWarmup      = core.PhaseWarmup
	PhasePretrain    = core.PhasePretrain
	PhaseIncremental = core.PhaseIncremental
)

// Names of the built-in estimators.
const (
	EstimatorH4096 = estimator.NameH4096
	EstimatorRSL   = estimator.NameRSL
	EstimatorRSH   = estimator.NameRSH
	EstimatorAASP  = estimator.NameAASP
	EstimatorFFN   = estimator.NameFFN
	EstimatorSPN   = estimator.NameSPN
)

// Pt builds a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewRect builds a Rect from two corners in any order.
func NewRect(a, b Point) Rect { return geo.NewRect(a, b) }

// CenteredRect builds a Rect centred on c.
func CenteredRect(c Point, w, h float64) Rect { return geo.CenteredRect(c, w, h) }

// SpatialQuery builds a pure range-counting query.
func SpatialQuery(r Rect, ts int64) Query { return stream.SpatialQ(r, ts) }

// KeywordQuery builds a pure distinct-value query.
func KeywordQuery(kws []string, ts int64) Query { return stream.KeywordQ(kws, ts) }

// HybridQuery builds a combined spatial-keyword query.
func HybridQuery(r Rect, kws []string, ts int64) Query { return stream.HybridQ(r, kws, ts) }

// NewRegistry returns an empty estimator registry for custom fleets.
func NewRegistry() *Registry { return estimator.NewRegistry() }

// DefaultRegistry returns a registry holding the paper's six estimators.
func DefaultRegistry() *Registry { return estimator.DefaultRegistry() }

// config is the resolved option set shared by the three constructors. It
// is deliberately unexported: the only way to configure an engine is the
// functional options, so every knob is validated at the API boundary and a
// literal zero never needs a companion "was it set" flag in user code.
// (The former exported Config struct and the NewFromConfig constructors
// were removed in the durability redesign; see CHANGES.md for the
// migration table.)
type config struct {
	// World is the spatial domain all objects and ranges live in.
	World Rect
	// Window is the time window T: queries count objects of the last
	// Window duration. Internally virtual-time milliseconds; any positive
	// duration works.
	Window time.Duration
	// Registry supplies estimators (nil = the paper's six).
	Registry *Registry
	// Estimators names the fleet members (empty = all registered).
	Estimators []string
	// Default is the estimator active when the incremental phase starts.
	Default string
	// Alpha ∈ [0,1] weighs latency vs accuracy in switching decisions:
	// 0 = accuracy only, 1 = latency only. Use AlphaSet to pass a literal 0.
	Alpha    float64
	AlphaSet bool
	// Tau ∈ (0,1) is the accuracy threshold that triggers a switch.
	Tau float64
	// Beta ∈ (0,1) controls how early the replacement starts pre-filling.
	Beta float64
	// AccWindow is the number of recent queries in the monitored accuracy
	// average.
	AccWindow int
	// PretrainQueries is the pre-training phase length.
	PretrainQueries int
	// MemoryScale multiplies every estimator's capacity defaults.
	MemoryScale float64
	// Seed makes runs reproducible.
	Seed int64
	// OnSwitch, when non-nil, is called after every estimator switch.
	OnSwitch func(SwitchEvent)
	// OracleGridCells sizes the exact store's internal grid (speed only;
	// zero = 4096).
	OracleGridCells int
	// CooldownQueries is the minimum number of queries between switches
	// (zero = AccWindow/2).
	CooldownQueries int
	// OpportunityMargin is the proactive-switch margin (zero = 0.15,
	// negative disables opportunity switches).
	OpportunityMargin float64
	// Shards is the spatial shard count used by NewSharded (zero =
	// runtime.GOMAXPROCS(0)). New rejects it; NewConcurrent rejects it and
	// sets 1.
	Shards int
	// TelemetryAddr, when non-empty, starts the stdlib exposition server
	// ("host:port"; port 0 picks a free one) publishing /metrics, /statusz,
	// expvar and pprof. Supported by NewConcurrent and NewSharded; New
	// rejects it because a single-goroutine System cannot be scraped
	// concurrently with traffic.
	TelemetryAddr string
	// LogOutput, when non-nil, receives structured logfmt lines from the
	// switch and pre-fill path and input validation at LogLevel or above.
	LogOutput io.Writer
	// LogLevel is the minimum severity emitted to LogOutput.
	LogLevel LogLevel
	// TraceDepth sizes the per-module switch-decision audit ring (zero
	// keeps the default of 64).
	TraceDepth int
	// Validation selects the input-hardening policy applied to inbound
	// objects and queries (default ValidationClamp).
	Validation ValidationPolicy
	// Breaker tunes the per-estimator quarantine circuit breaker; zero
	// fields keep the package defaults.
	Breaker BreakerConfig
	// FaultInjector, when non-nil, deterministically injects estimator
	// faults for chaos testing. Nil (the default) injects nothing.
	FaultInjector *FaultInjector
	// LatencyModel, when non-nil, replaces wall-clock estimator latency
	// measurement in the switching model's training signal. Correctness
	// harnesses use it to make latency-sensitive switching decisions
	// (α > 0, opportunity switches) bit-reproducible across engines and
	// runs; production deployments leave it nil.
	LatencyModel func(estimator string, q *Query, measured time.Duration) time.Duration
}

// System bundles a LATEST module with the exact window store that plays
// the database: Feed maintains both, Execute answers exactly and feeds the
// result back as training signal. Not safe for concurrent use; wrap with
// your own synchronization if needed (the hot path is single-writer in
// streaming systems).
type System struct {
	module *core.Module
	window *stream.Window
	world  Rect
	policy ValidationPolicy

	// lastTS is the stream's timestamp high-water mark; under
	// ValidationClamp a regressed arrival is clamped to it instead of
	// violating the window store's ordering invariant.
	lastTS int64

	// gen counts snapshots taken of this engine; each Snapshot embeds
	// gen+1 and the paired feed WAL is named after it, so a restore knows
	// which WAL tail extends which snapshot.
	gen uint64

	// fingerprint is the byte encoding of every configuration knob that
	// shapes serialized state; Restore refuses a snapshot whose fingerprint
	// differs (CodeMismatch) rather than silently reinterpreting state
	// under different parameters.
	fingerprint []byte

	// pendingRejected marks that the last Estimate refused its query, so
	// the paired Execute/ObserveActual must not feed the module a truth
	// value it never produced an estimate for.
	pendingRejected bool

	// scratch keeps single-object Feed allocation-free: the object is
	// staged here so the pointer handed to the module points into the
	// (already heap-resident) System rather than forcing the argument to
	// escape. Estimators copy what they keep, so the buffer is reusable.
	scratch Object

	// gauges are the engine's operational counters and latency histograms:
	// atomic, allocation-free, safe to snapshot while traffic flows.
	// Single-object feeds are timed one in metrics.FeedSampleInterval.
	// A pointer so a ShardedSystem can point every shard's System at the
	// shard's own gauge set — validation events detected inside feedPtr
	// then land in the gauges the sharded Stats actually reads.
	gauges *metrics.ShardGauges
	log    *telemetry.Logger

	// guard enforces the single-goroutine contract in -race builds (a
	// zero-size no-op otherwise): concurrent method calls — including a
	// TelemetrySnapshot scrape racing traffic — panic with the fix spelled
	// out instead of corrupting state silently.
	guard raceGuard
}

// New builds a System over the given world rectangle, keeping the last
// window duration of stream data. Tuning knobs are functional options
// (WithAlpha, WithTau, ...); zero options take the paper's defaults.
// Options that require a concurrency-safe or sharded engine (WithTelemetry,
// WithShards) are rejected with a descriptive error.
func New(world Rect, window time.Duration, opts ...Option) (*System, error) {
	cfg := buildConfig(world, window, opts)
	if cfg.Shards != 0 {
		return nil, optionErr("WithShards", "New", "only a ShardedSystem partitions the world")
	}
	if cfg.TelemetryAddr != "" {
		return nil, optionErr("WithTelemetry", "New", "a single-goroutine System cannot be scraped concurrently with traffic; use NewConcurrent or NewSharded")
	}
	if err := validateOptions(&cfg); err != nil {
		return nil, err
	}
	return newSystem(cfg, "system")
}

// MustNew is New but panics on error — for tests, examples and programs
// whose configuration is static.
func MustNew(world Rect, window time.Duration, opts ...Option) *System {
	s, err := New(world, window, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// syncRefill seeds a freshly wiped estimator from the window store: it
// replays every live object into e on the calling goroutine — the query
// path, under the shard lock when there is one — and counts the pre-fill.
// The gauge set is read at call time: a shard repoints its System's gauges
// after construction.
func (s *System) syncRefill(e estimator.Estimator) {
	s.window.Each(func(o *stream.Object) bool {
		e.Insert(o)
		return true
	})
	s.gauges.RecordPrefill()
}

// defaultOracleGridCells sizes the exact store's grid when
// WithOracleGridCells is not given.
const defaultOracleGridCells = 4096

// newSystem is the shared constructor, over options its caller has
// validated. component names the logger ("system", "shard-3", ...).
func newSystem(cfg config, component string) (*System, error) {
	cells := cfg.OracleGridCells
	if cells == 0 {
		cells = defaultOracleGridCells
	}
	log := telemetry.NewLogger(cfg.LogOutput, cfg.LogLevel).Named(component)
	w := stream.NewWindow(cfg.World, cfg.Window.Milliseconds(), cells)
	s := &System{
		window: w,
		world:  cfg.World,
		policy: cfg.Validation,
		gauges: new(metrics.ShardGauges),
		log:    log,
	}
	m, err := core.New(core.Config{
		World:             cfg.World,
		Span:              cfg.Window.Milliseconds(),
		Registry:          cfg.Registry,
		Estimators:        cfg.Estimators,
		Default:           cfg.Default,
		Alpha:             cfg.Alpha,
		AlphaSet:          cfg.AlphaSet,
		Tau:               cfg.Tau,
		Beta:              cfg.Beta,
		AccWindow:         cfg.AccWindow,
		PretrainQueries:   cfg.PretrainQueries,
		CooldownQueries:   cfg.CooldownQueries,
		OpportunityMargin: cfg.OpportunityMargin,
		Scale:             cfg.MemoryScale,
		Seed:              cfg.Seed,
		OnSwitch:          cfg.OnSwitch,
		LatencyOf:         cfg.LatencyModel,
		Logger:            log,
		TraceDepth:        cfg.TraceDepth,
		Resilience:        cfg.Breaker,
		Injector:          cfg.FaultInjector,
		// The exact window store doubles as the last-resort fallback when
		// every estimator is quarantined: slower than any summary, but
		// always correct and always available.
		Oracle: func(q *stream.Query) float64 {
			return float64(w.Answer(q))
		},
		Refill: s.syncRefill,
	})
	if err != nil {
		return nil, err
	}
	s.module = m
	s.fingerprint = configFingerprint(&cfg, m.Config())
	return s, nil
}

// optionErr is the one error shape every option-surface rejection uses:
// which option, which constructor, why. A constructor rejects the options
// its engine cannot honour — silently ignoring them would let a caller
// believe telemetry is being served or shards exist when they do not.
func optionErr(option, constructor, reason string) error {
	return fmt.Errorf("latest: %s is not supported by %s (%s)", option, constructor, reason)
}

// validateOptions rejects option values that would previously surface as a
// panic inside an internal constructor (grid sizing, slicer spans, EWMA
// alphas, trace rings), turning each into a descriptive error at the API
// boundary. Bounds the core layer already enforces with errors (Tau, Beta,
// Alpha ranges, fleet membership) are left to it.
func validateOptions(cfg *config) error {
	if cfg.Window <= 0 {
		return fmt.Errorf("latest: Window must be positive, got %v", cfg.Window)
	}
	if cfg.Window.Milliseconds() <= 0 {
		return fmt.Errorf("latest: Window must be at least 1ms, got %v (the window store and estimator slicers run on millisecond virtual time)", cfg.Window)
	}
	if cfg.World.Empty() || !cfg.World.Valid() {
		return fmt.Errorf("latest: World must be a valid non-empty rectangle, got %v", cfg.World)
	}
	if !cfg.Validation.valid() {
		return fmt.Errorf("latest: unknown validation policy %d (use ValidationClamp, ValidationStrict or ValidationDrop)", int(cfg.Validation))
	}
	if cfg.OracleGridCells < 0 {
		return fmt.Errorf("latest: OracleGridCells must be non-negative, got %d", cfg.OracleGridCells)
	}
	if cfg.OracleGridCells > 0 {
		side := int(math.Sqrt(float64(cfg.OracleGridCells)))
		if side*side != cfg.OracleGridCells {
			return fmt.Errorf("latest: OracleGridCells must be a perfect square (the exact store uses a square grid), got %d", cfg.OracleGridCells)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"AccWindow", cfg.AccWindow},
		{"PretrainQueries", cfg.PretrainQueries},
		{"CooldownQueries", cfg.CooldownQueries},
		{"TraceDepth", cfg.TraceDepth},
	} {
		if f.v < 0 {
			return fmt.Errorf("latest: %s must be non-negative, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Alpha", cfg.Alpha},
		{"Tau", cfg.Tau},
		{"Beta", cfg.Beta},
		{"MemoryScale", cfg.MemoryScale},
		{"OpportunityMargin", cfg.OpportunityMargin},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("latest: %s must be finite, got %v", f.name, f.v)
		}
	}
	if cfg.MemoryScale < 0 {
		return fmt.Errorf("latest: MemoryScale must be non-negative, got %v", cfg.MemoryScale)
	}
	return nil
}

// feedPtr is the allocation-free ingest path shared by Feed, FeedBatch and
// the shards. The object is validated under the configured
// policy first — non-finite coordinates are rejected, regressed timestamps
// clamped (ValidationClamp) or rejected — and a ValidationClamp repair
// mutates the pointee. Otherwise the pointee, keyword array included, is
// only read during the call; the window store and the estimators copy what
// they keep. lastTS advances only on acceptance, so a rejected arrival
// carrying a garbage timestamp cannot poison the stream clock.
func (s *System) feedPtr(o *Object) {
	if !checkObject(o, s.lastTS, s.policy, s.gauges, s.log) {
		return
	}
	s.lastTS = o.Timestamp
	s.window.Insert(*o)
	s.module.Insert(o)
}

// Feed ingests one stream object. Timestamps should be non-decreasing; a
// regressed arrival is clamped to the high-water mark under the default
// ValidationClamp policy (see WithValidation for the alternatives).
// One in metrics.FeedSampleInterval calls is timed into the ingest latency
// histogram; the rest pay a single atomic increment.
func (s *System) Feed(o Object) {
	s.guard.enter("Feed")
	defer s.guard.exit()
	if s.gauges.RecordFeed() {
		start := time.Now()
		s.scratch = o
		s.feedPtr(&s.scratch)
		s.gauges.RecordFeedLatency(time.Since(start))
		s.gauges.SetWindow(s.window.Size(), s.window.MemoryBytes())
		return
	}
	s.scratch = o
	s.feedPtr(&s.scratch)
}

// FeedBatch ingests a batch of stream objects in order. Timestamps must be
// non-decreasing within the batch and across calls. Batching skips the
// per-object staging copy of Feed.
func (s *System) FeedBatch(objs []Object) {
	if len(objs) == 0 {
		return
	}
	s.guard.enter("FeedBatch")
	defer s.guard.exit()
	start := time.Now()
	for i := range objs {
		s.feedPtr(&objs[i])
	}
	s.gauges.RecordBatch(len(objs), time.Since(start))
	s.gauges.SetWindow(s.window.Size(), s.window.MemoryBytes())
}

// Estimate answers the query approximately through the active estimator.
// Follow it with Execute or ObserveActual to close the feedback loop.
//
// The query is validated first: under the default ValidationClamp policy an
// inverted rectangle is repaired in place (so the paired Execute sees the
// repaired query); a query the policy rejects returns 0 and the paired
// Execute/ObserveActual becomes a no-op rather than feeding the model a
// truth value it never estimated.
func (s *System) Estimate(q *Query) float64 {
	s.guard.enter("Estimate")
	defer s.guard.exit()
	if !checkQuery(q, s.policy, s.world, s.gauges, s.log) {
		s.pendingRejected = true
		return 0
	}
	s.pendingRejected = false
	return s.module.Estimate(q)
}

// Execute runs the query exactly against the window store, feeds the true
// selectivity back to the learning model, and returns the exact count. Call
// it after Estimate for the same query. When that Estimate rejected the
// query, Execute returns 0 without touching the store or the model.
func (s *System) Execute(q *Query) int {
	s.guard.enter("Execute")
	defer s.guard.exit()
	if s.pendingRejected {
		s.pendingRejected = false
		return 0
	}
	actual := s.window.Answer(q)
	s.module.Observe(float64(actual))
	return actual
}

// ObserveActual closes the feedback loop with a truth value obtained from
// an external execution engine. A no-op when the paired Estimate rejected
// its query.
func (s *System) ObserveActual(actual float64) {
	s.guard.enter("ObserveActual")
	defer s.guard.exit()
	if s.pendingRejected {
		s.pendingRejected = false
		return
	}
	s.module.Observe(actual)
}

// estimateAndExecute is the untimed estimate+execute cycle; a shard times
// it once, into its own gauges.
func (s *System) estimateAndExecute(q *Query) (estimate float64, actual int) {
	estimate = s.Estimate(q)
	return estimate, s.Execute(q)
}

// EstimateAndExecute is the common two-step as one call: approximate
// answer, exact answer, feedback. The full cycle is timed into the query
// latency histogram.
func (s *System) EstimateAndExecute(q *Query) (estimate float64, actual int) {
	start := time.Now()
	estimate, actual = s.estimateAndExecute(q)
	s.gauges.RecordQuery(time.Since(start))
	return estimate, actual
}

// EstimateAndExecuteBatch runs EstimateAndExecute over a batch of queries,
// returning the parallel estimate and exact-count slices. Queries are
// answered in order, each closing its own feedback loop.
func (s *System) EstimateAndExecuteBatch(qs []Query) (estimates []float64, actuals []int) {
	estimates = make([]float64, len(qs))
	actuals = make([]int, len(qs))
	for i := range qs {
		estimates[i], actuals[i] = s.EstimateAndExecute(&qs[i])
	}
	return estimates, actuals
}

// ActiveEstimator returns the currently employed estimator's name.
func (s *System) ActiveEstimator() string { return s.module.ActiveName() }

// Phase returns the lifecycle phase.
func (s *System) Phase() Phase { return s.module.Phase() }

// Switches returns the switch history.
func (s *System) Switches() []SwitchEvent { return s.module.Switches() }

// AccuracyAverage returns the monitored sliding accuracy average.
func (s *System) AccuracyAverage() float64 { return s.module.AccuracyAverage() }

// WindowSize returns the number of live objects in the exact store.
func (s *System) WindowSize() int { return s.window.Size() }

// Stats returns a snapshot of the module internals.
func (s *System) Stats() Stats {
	s.guard.enter("Stats")
	defer s.guard.exit()
	return s.module.Snapshot()
}

// RecommendFor returns the model's current estimator recommendation for a
// query, without changing any state.
func (s *System) RecommendFor(q *Query) string { return s.module.RecommendFor(q) }

// Gauges returns a point-in-time copy of the engine's operational counters
// and latency histograms. The counters are atomic, so this is safe even
// while another goroutine drives traffic.
func (s *System) Gauges() GaugeSnapshot { return s.gauges.Snapshot() }

// Decisions returns the recent switch-decision audit records, oldest first.
func (s *System) Decisions() []Decision { return s.module.Decisions() }

// QuarantinedEstimators returns the names of estimators currently held in
// quarantine by their circuit breakers, in fleet order (empty when the
// whole fleet is healthy).
func (s *System) QuarantinedEstimators() []string { return s.module.QuarantinedNames() }

// Shutdown satisfies the unified Engine interface. A System owns no
// background resources — no telemetry server — so there is nothing to
// stop; it exists so code written against Engine can shut any shape down
// uniformly.
func (s *System) Shutdown(context.Context) error { return nil }
