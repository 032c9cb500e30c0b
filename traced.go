package latest

import (
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

// traced.go threads a request trace from the serving layer into the query
// path so an estimate's span timeline includes the estimator-inference
// stage. Every engine shape implements TracedEngine; the trace recorder is
// installed on the owning shard's module under the same lock that
// serializes the query, then cleared before the lock releases, so the
// module never observes a stale trace. A nil trace makes every variant
// behave exactly like its untraced counterpart (telemetry.ActiveTrace is
// nil-safe), which keeps call sites branch-free.

// TracedEngine is the optional tracing extension of Engine: engines that
// can attribute per-stage spans (notably the active estimator's inference
// latency) to an in-flight request trace. Every engine — System,
// ShardedSystem (whichever of NewSharded and NewConcurrent built it),
// DurableEngine — implements it. Callers holding only an Engine should
// type-assert and fall back to EstimateAndExecute.
type TracedEngine interface {
	Engine
	// EstimateAndExecuteTraced is EstimateAndExecute recording per-stage
	// spans into tr (nil tr: identical to EstimateAndExecute).
	EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (estimate float64, actual int)
}

// The tracing extension is part of each shape's contract.
var (
	_ TracedEngine = (*System)(nil)
	_ TracedEngine = (*ShardedSystem)(nil)
	_ TracedEngine = (*DurableEngine)(nil)
)

// EstimateAndExecuteTraced implements TracedEngine. Like every System
// method it must not race other calls; the caller owns the engine.
func (s *System) EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (estimate float64, actual int) {
	s.module.SetTrace(tr)
	estimate, actual = s.EstimateAndExecute(q)
	s.module.SetTrace(nil)
	return estimate, actual
}

// EstimateAndExecuteTraced implements TracedEngine, and with a nil trace
// is EstimateAndExecute: both take this one path. A single-shard query
// threads the trace into that shard's module (the common case — point and
// small-range queries route to one shard); the scatter-gather path records
// one whole-fan-out span instead, because the trace recorder is
// single-owner and the partial queries run on concurrent goroutines.
func (s *ShardedSystem) EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (estimate float64, actual int) {
	targets := s.route(q)
	switch len(targets) {
	case 0:
		return 0, 0
	case 1:
		return targets[0].query(q, tr)
	}
	start := time.Now()
	estimate, actual = s.fanOut(q, targets)
	tr.AddSpan("fanout", start)
	return estimate, actual
}

// EstimateAndExecuteTraced implements TracedEngine, delegating to the
// wrapped engine under the read lock.
func (d *DurableEngine) EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (float64, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if te, ok := d.eng.(TracedEngine); ok {
		return te.EstimateAndExecuteTraced(q, tr)
	}
	return d.eng.EstimateAndExecute(q)
}
