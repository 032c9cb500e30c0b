// Package core implements LATEST itself (paper §V): the learning-assisted
// selectivity-estimation module that maintains a fleet of estimators,
// answers RC-DVQ queries through exactly one *active* estimator at a time,
// and uses an incrementally trained Hoeffding tree to decide which
// estimator to switch to when the monitored accuracy degrades.
//
// Lifecycle (Figure 2):
//
//	Warm-up      — objects flow in, no queries; every estimator pre-fills.
//	Pre-training — every query runs on every estimator; the measured
//	               (accuracy, latency) pairs become Hoeffding training
//	               records labelled with the α-best estimator.
//	Incremental  — only the active estimator is maintained. Every executed
//	               query's true selectivity (from the system logs) yields
//	               one more training record; a sliding accuracy average is
//	               compared against β·τ (start pre-filling the recommended
//	               replacement) and τ (perform the switch).
package core

import (
	"fmt"
	"log/slog"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/hoeffding"
	"github.com/spatiotext/latest/internal/stream"
)

// Config parameterizes a LATEST module. Zero values take the paper's
// defaults where the paper states them.
type Config struct {
	// World is the spatial domain of the stream.
	World geo.Rect
	// Span is the time window T in virtual milliseconds.
	Span int64
	// Registry supplies estimator factories; nil means the paper's six.
	Registry *estimator.Registry
	// Estimators lists which registered estimators form the fleet; empty
	// means all registered, in registration order.
	Estimators []string
	// Default is the estimator employed when the incremental phase begins.
	// The paper's default is RSH.
	Default string
	// Alpha weighs latency vs accuracy in training labels (§V-C): 0 means
	// accuracy only, 1 means latency only. Default 0.5.
	Alpha float64
	// AlphaSet marks Alpha as explicitly provided so a literal 0 (accuracy
	// only) is distinguishable from "use the default".
	AlphaSet bool
	// Tau is the switch threshold τ on the sliding accuracy average.
	// Default 0.75.
	Tau float64
	// Beta is the pre-fill fraction β ∈ (0,1): pre-filling starts when the
	// average accuracy falls below β·τ. Default 0.8.
	Beta float64
	// AccWindow is how many recent queries the accuracy average covers.
	// Default 200.
	AccWindow int
	// PretrainQueries is the length of the pre-training phase in queries.
	// Default DefaultPretrainQueries.
	PretrainQueries int
	// Scale is the estimator memory budget multiplier (Fig. 13).
	Scale float64
	// Seed drives estimator-internal randomness.
	Seed int64
	// Hoeffding overrides the hyper-parameters of the learning model, the
	// EFDT tree of the paper's reference [44]; zero fields take the WEKA
	// defaults the paper quotes.
	Hoeffding hoeffding.Config
	// Refill, when non-nil, is called with every freshly wiped estimator
	// that is about to start serving (a pre-fill candidate or a cold
	// switch target), and with an estimator.Fitter whose fit is due, just
	// before the estimate that needs it and outside that estimate's
	// latency. The caller should seed it from the current window —
	// estimator.Fill draws a sampler, SPN's draw being its fit, and
	// replays the rest — since the DBMS holds the actual window data, so
	// a new summary structure is seeded from the store rather than
	// starting blind (§V-D's pre-filling, extended to cover the data that
	// arrived before the candidate existed). Without it, a fresh sampler
	// would scale its estimates by an arrival count that missed most of
	// the window, and SPN keeps its last model, answering 0 before its
	// first fit. With it, warm-up streams nothing into the fleet's
	// samplers (estimator.Sampler): the first Estimate hands each to
	// Refill instead, while Phase still reads PhaseWarmup.
	Refill func(e estimator.Estimator)
	// LatencyOf, when non-nil, replaces wall-clock latency measurement.
	// The simulation harness uses it to model the paper's millisecond-scale
	// estimator latencies deterministically; production deployments leave
	// it nil.
	LatencyOf func(name string, q *stream.Query, measured time.Duration) time.Duration
	// OnSwitch, when non-nil, is invoked after every estimator switch.
	OnSwitch func(ev SwitchEvent)
	// Logger receives switch-path and pre-fill lifecycle lines; nil is
	// silent (logging never touches the per-object or per-query hot path).
	Logger *slog.Logger
	// Oracle is unread. It once answered a query exactly when every
	// estimator had failed; it stays only because benchmark/probes.go
	// still sets it, and goes when that probe stops.
	Oracle func(q *stream.Query) float64
}

// DefaultPretrainQueries is the pre-training length when Config leaves it
// zero.
const DefaultPretrainQueries = 2000

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = estimator.DefaultRegistry()
	}
	if len(c.Estimators) == 0 {
		c.Estimators = c.Registry.Names()
	}
	if c.Default == "" {
		c.Default = estimator.NameRSH
	}
	if !c.AlphaSet && c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Tau == 0 {
		c.Tau = 0.75
	}
	if c.Beta == 0 {
		c.Beta = 0.8
	}
	if c.AccWindow == 0 {
		c.AccWindow = 200
	}
	if c.PretrainQueries == 0 {
		c.PretrainQueries = DefaultPretrainQueries
	}
	return c
}

func (c Config) validate() error {
	if c.World.Empty() || !c.World.Valid() {
		return fmt.Errorf("core: invalid world %v", c.World)
	}
	if c.Span <= 0 {
		return fmt.Errorf("core: span must be positive, got %d", c.Span)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha must be in [0,1], got %v", c.Alpha)
	}
	if c.Tau <= 0 || c.Tau >= 1 {
		return fmt.Errorf("core: tau must be in (0,1), got %v", c.Tau)
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("core: beta must be in (0,1), got %v", c.Beta)
	}
	if len(c.Estimators) < 2 {
		return fmt.Errorf("core: need at least 2 estimators, got %v", c.Estimators)
	}
	found := false
	for _, n := range c.Estimators {
		if n == c.Default {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("core: default estimator %q not in fleet %v", c.Default, c.Estimators)
	}
	return nil
}

// Phase is where the module sits in the Figure 2 lifecycle.
type Phase int

const (
	// PhaseWarmup: receiving data, not yet queries.
	PhaseWarmup Phase = iota
	// PhasePretrain: every query exercises every estimator.
	PhasePretrain
	// PhaseIncremental: one active estimator, adaptive switching.
	PhaseIncremental
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhasePretrain:
		return "pretrain"
	case PhaseIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// SwitchEvent records one estimator switch.
type SwitchEvent struct {
	// QueryIndex is the 0-based index of the query that triggered the
	// switch, counted from the start of the incremental phase.
	QueryIndex int
	// Timestamp is the virtual time of the trigger query.
	Timestamp int64
	// From and To name the estimators.
	From, To string
	// Prefilled reports whether the new estimator had been warming since
	// the β·τ crossing (vs a cold emergency switch).
	Prefilled bool
}

// String implements fmt.Stringer.
func (e SwitchEvent) String() string {
	return fmt.Sprintf("switch@q%d(t=%d) %s->%s prefilled=%v",
		e.QueryIndex, e.Timestamp, e.From, e.To, e.Prefilled)
}
