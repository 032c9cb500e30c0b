package latest

import (
	"log/slog"
	"math"

	"github.com/spatiotext/latest/internal/metrics"
)

// validation.go is the engine's one input-hardening policy. Streams
// assembled from real devices carry objects with NaN/±Inf coordinates,
// queries with inverted or degenerate rectangles, and timestamps that run
// the stream clock backwards; a selectivity estimator sits on the query
// path and must never let one bad tuple panic the engine or poison the
// window store. The policy repairs what is repairable and rejects the rest:
// a regressed object timestamp is clamped to the stream's high-water mark
// and an inverted query rectangle has its corners swapped; non-finite
// coordinates, predicate-less queries and degenerate (zero-area) query
// rectangles are rejected. A zero-area rectangle cannot match any object
// under the engine's open-interval intersection semantics, so the reject's
// answer of 0 is also the query's exact answer. Repairs are counted in the
// ValidationClamped gauge; rejects in ValidationRejected, each logged at
// warn level.

// finite reports whether every value is a usable coordinate.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkObject validates one inbound stream object. It may repair o in
// place: a timestamp below lastTS is clamped to it, counted as both a clamp
// and a reordered arrival — the one place any engine decides that. Returns
// false when the object must not be ingested; the reject is counted in g
// and logged.
func checkObject(o *Object, lastTS int64, g *metrics.ShardGauges, log *slog.Logger) bool {
	if !finite(o.Loc.X, o.Loc.Y) {
		g.RecordValidationRejected()
		log.Warn("object rejected: non-finite coordinates",
			"id", o.ID, "x", o.Loc.X, "y", o.Loc.Y)
		return false
	}
	if o.Timestamp < lastTS {
		o.Timestamp = lastTS
		g.RecordValidationClamped()
		g.RecordReordered()
	}
	return true
}

// checkQuery validates one estimation query. An inverted rectangle is
// repaired in place (corners swapped) so the caller's subsequent Execute
// sees the same query the estimate answered. Returns false when the query
// must be rejected; the reject is counted in g and logged.
func checkQuery(q *Query, g *metrics.ShardGauges, log *slog.Logger) bool {
	reject := func(reason string) bool {
		g.RecordValidationRejected()
		log.Warn("query rejected: "+reason, "query", q.String())
		return false
	}
	if !q.HasRange && len(q.Keywords) == 0 {
		return reject("no predicates")
	}
	if q.HasRange {
		r := q.Range
		if !finite(r.MinX, r.MinY, r.MaxX, r.MaxY) {
			return reject("non-finite range")
		}
		if r.MinX > r.MaxX || r.MinY > r.MaxY {
			if r.MinX > r.MaxX {
				r.MinX, r.MaxX = r.MaxX, r.MinX
			}
			if r.MinY > r.MaxY {
				r.MinY, r.MaxY = r.MaxY, r.MinY
			}
			q.Range = r
			g.RecordValidationClamped()
		}
		// geo.Rect.Intersects is false for any empty rect, and
		// core.Module.Estimate panics on queries stream.Query.Valid deems
		// invalid — which includes empty ranges. Rejecting here turns that
		// panic into a counted, logged reject with the exact answer (0).
		if q.Range.Empty() {
			return reject("empty range")
		}
	}
	return true
}
