package latest

import (
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

// traced.go threads a request trace from the serving layer into the query
// path so an estimate's span timeline includes the estimator-inference
// stage. The trace recorder is installed on the owning shard's module under
// the same lock that serializes the query, then cleared before the lock
// releases, so the module never observes a stale trace. A nil trace makes
// the call behave exactly like EstimateAndExecute (telemetry.ActiveTrace is
// nil-safe), which keeps call sites branch-free.

// EstimateAndExecuteTraced implements Engine, and with a nil trace is
// EstimateAndExecute: both take this one path. A single-shard query
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
