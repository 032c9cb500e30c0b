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
//	sys.FeedBatch([]latest.Object{{ID: 1, Loc: latest.Pt(-118.24, 34.05),
//		Keywords: []string{"fire"}, Timestamp: now}})
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
// There is one engine, the ShardedSystem: the world spatially partitioned
// into N shards, each its own window + estimator fleet behind its own lock;
// ingest routes to one shard, queries fan out to intersecting shards, and
// no background goroutine runs. It feeds through FeedBatch (one object is
// a batch of one) and answers through EstimateAndExecute, which runs both
// halves as one atomic cycle. NewSharded builds N shards; New and
// NewConcurrent build one. New returns it as a System, which adds the split
// Estimate/Execute/ObserveActual calls and the one-module accessors. Every
// engine is safe for concurrent use; the split calls pair per caller, so
// callers sharing a System use EstimateAndExecute or serialize their pairs.
// An Estimate left unpaired is dropped untrained by the next query or
// snapshot on its shard.
package latest

import (
	"fmt"
	"log/slog"
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

// config is the resolved option set shared by the three constructors, one
// field per option. It is deliberately unexported: the only way to
// configure an engine is the functional options, so every knob is validated
// at the API boundary and a literal zero never needs a companion "was it
// set" flag in user code.
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
	// Shards is the spatial shard count used by NewSharded (zero =
	// runtime.GOMAXPROCS(0)). New and NewConcurrent reject it and set 1.
	Shards int
	// TelemetryAddr, when non-empty, starts the stdlib exposition server
	// ("host:port"; port 0 picks a free one) publishing /metrics, /statusz,
	// expvar and pprof.
	TelemetryAddr string
	// Log, when non-nil, receives structured lines from the switch and
	// pre-fill path and input validation.
	Log *slog.Logger
	// LatencyModel, when non-nil, replaces wall-clock estimator latency
	// measurement in the switching model's training signal. Correctness
	// harnesses use it to make latency-sensitive switching decisions
	// (α > 0, opportunity switches) bit-reproducible across engines and
	// runs; production deployments leave it nil.
	LatencyModel func(estimator string, q *Query, measured time.Duration) time.Duration
}

// System is the engine New builds: the one-shard ShardedSystem — one
// LATEST module and the exact window store that plays its database, behind
// one lock — plus the calls only a one-module engine can offer. The paper's
// optimizer asks for an estimate and its query processor later reports the
// truth (§V-D); Estimate, Execute and ObserveActual are those two halves,
// and the one-module accessors read the module directly. Every other method
// is the embedded ShardedSystem's.
//
// Every method is safe for concurrent use. An Estimate pairs with the next
// Execute or ObserveActual on the engine, so callers that share a System
// must not interleave their split pairs; EstimateAndExecute runs both
// halves as one atomic cycle.
type System struct {
	*ShardedSystem
}

// New builds a System over the given world rectangle, keeping the last
// window duration of stream data. Tuning knobs are functional options
// (WithAlpha, WithTau, ...); zero options take the paper's defaults.
// WithShards is rejected with a descriptive error.
func New(world Rect, window time.Duration, opts ...Option) (*System, error) {
	s, err := newOneShard("New", buildConfig(world, window, opts))
	if err != nil {
		return nil, err
	}
	return &System{s}, nil
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

// newOneShard builds the one-shard engine New and NewConcurrent share.
func newOneShard(constructor string, cfg config) (*ShardedSystem, error) {
	if cfg.Shards != 0 {
		return nil, optionErr("WithShards", constructor, "only NewSharded partitions the world")
	}
	cfg.Shards = 1
	return newSharded(cfg)
}

// optionErr is the one error shape every option-surface rejection uses:
// which option, which constructor, why. A constructor rejects the options
// its engine cannot honour — silently ignoring them would let a caller
// believe telemetry is being served or shards exist when they do not.
func optionErr(option, constructor, reason string) error {
	return fmt.Errorf("latest: %s is not supported by %s (%s)", option, constructor, reason)
}

// validateOptions rejects option values that would otherwise surface as a
// panic inside an internal constructor (window spans, world partitioning,
// negative counts, non-finite weights), turning each into a descriptive
// error at the API boundary. Bounds the core layer already enforces with
// errors (Tau, Beta, Alpha ranges, fleet membership) are left to it.
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
	for _, f := range []struct {
		name string
		v    int
	}{
		{"AccWindow", cfg.AccWindow},
		{"PretrainQueries", cfg.PretrainQueries},
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

// lock takes the one shard's lock and returns the shard.
func (s *System) lock() *shard {
	sh := s.shards[0]
	sh.mu.Lock()
	return sh
}

// Estimate answers the query approximately through the active estimator.
// Follow it with Execute or ObserveActual to close the feedback loop.
//
// The query is validated first: an inverted rectangle is repaired in place
// (so the paired Execute sees the repaired query). A query validation
// rejects returns 0 and the paired Execute/ObserveActual becomes a no-op
// rather than feeding the model a truth value it never estimated. An
// earlier Estimate still waiting for its truth is dropped untrained, as it
// is by EstimateAndExecute and by a snapshot.
func (s *System) Estimate(q *Query) float64 {
	routed := len(s.route(q)) > 0
	sh := s.lock()
	defer sh.mu.Unlock()
	if !routed {
		sh.dropSplit()
		sh.pendingRejected = true
		return 0
	}
	return sh.estimate(q)
}

// Execute runs the query exactly against the window store, feeds the true
// selectivity back to the learning model, and returns the exact count. Call
// it after Estimate for the same query. When that Estimate answered 0
// without the model, Execute returns 0 without touching the store or the
// model; when no Estimate is pending, it returns the exact count and
// trains nothing.
func (s *System) Execute(q *Query) int {
	sh := s.lock()
	defer sh.mu.Unlock()
	if sh.pendingRejected {
		sh.pendingRejected = false
		return 0
	}
	actual := sh.answer(q)
	if sh.module.Pending() {
		sh.module.Observe(float64(actual))
	}
	return actual
}

// ObserveActual closes the feedback loop with a truth value obtained from
// an external execution engine. A no-op when no Estimate is pending or the
// paired Estimate answered without the model.
func (s *System) ObserveActual(actual float64) {
	sh := s.lock()
	defer sh.mu.Unlock()
	if sh.pendingRejected {
		sh.pendingRejected = false
		return
	}
	if sh.module.Pending() {
		sh.module.Observe(actual)
	}
}

// ActiveEstimator returns the currently employed estimator's name.
func (s *System) ActiveEstimator() string {
	sh := s.lock()
	defer sh.mu.Unlock()
	return sh.module.ActiveName()
}

// RecommendFor returns the model's current estimator recommendation for a
// query, without changing any state.
func (s *System) RecommendFor(q *Query) string {
	sh := s.lock()
	defer sh.mu.Unlock()
	return sh.module.RecommendFor(q)
}
