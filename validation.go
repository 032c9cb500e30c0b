package latest

import (
	"math"

	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/telemetry"
)

// ValidationPolicy selects how the engines treat non-conforming input —
// objects with NaN/±Inf coordinates, queries with inverted or degenerate
// rectangles, timestamps that run the stream clock backwards. Streams
// assembled from real devices contain all of these; a selectivity
// estimator sits on the query path and must never let one bad tuple panic
// the engine or poison the window store.
type ValidationPolicy int

const (
	// ValidationClamp (the default) repairs what is repairable and rejects
	// the rest: regressed object timestamps are clamped to the stream's
	// high-water mark, inverted query rectangles have their corners
	// swapped; NaN/±Inf coordinates, predicate-less queries and
	// degenerate (zero-area) query rectangles are rejected. A zero-area
	// rectangle cannot match any object under the engine's open-interval
	// intersection semantics, so the reject's answer of 0 is also the
	// query's exact answer. Repairs mutate the caller's value in place so
	// a subsequent Execute sees the same repaired query.
	ValidationClamp ValidationPolicy = iota
	// ValidationStrict rejects every non-conforming input instead of
	// repairing it, and additionally rejects query rectangles that do not
	// intersect the world. Rejections are logged at warn level.
	ValidationStrict
	// ValidationDrop silently rejects non-conforming input (counted in the
	// ValidationRejected gauge, never logged).
	ValidationDrop
)

// String implements fmt.Stringer.
func (p ValidationPolicy) String() string {
	switch p {
	case ValidationClamp:
		return "clamp"
	case ValidationStrict:
		return "strict"
	case ValidationDrop:
		return "drop"
	default:
		return "ValidationPolicy(?)"
	}
}

// valid reports whether p is a known policy.
func (p ValidationPolicy) valid() bool {
	return p == ValidationClamp || p == ValidationStrict || p == ValidationDrop
}

// finite reports whether every value is a usable coordinate.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkObject applies the validation policy to one inbound stream object.
// It may repair o in place: under ValidationClamp a timestamp below lastTS
// is clamped to it, counted as both a clamp and a reordered arrival — the
// one place any engine decides that. Returns false when the object must
// not be ingested; the reject is counted in g and, outside ValidationDrop,
// logged.
func checkObject(o *Object, lastTS int64, policy ValidationPolicy, g *metrics.ShardGauges, log *telemetry.Logger) bool {
	if !finite(o.Loc.X, o.Loc.Y) {
		g.RecordValidationRejected()
		if policy != ValidationDrop {
			log.Warn("object rejected: non-finite coordinates",
				"id", o.ID, "x", o.Loc.X, "y", o.Loc.Y)
		}
		return false
	}
	if o.Timestamp < lastTS {
		switch policy {
		case ValidationClamp:
			o.Timestamp = lastTS
			g.RecordValidationClamped()
			g.RecordReordered()
		case ValidationStrict:
			g.RecordValidationRejected()
			log.Warn("object rejected: timestamp regression",
				"id", o.ID, "timestamp", o.Timestamp, "highWater", lastTS)
			return false
		default: // ValidationDrop
			g.RecordValidationRejected()
			return false
		}
	}
	return true
}

// checkQuery applies the validation policy to one estimation query. Under
// ValidationClamp an inverted rectangle is repaired in place (corners
// swapped) so the caller's subsequent Execute sees the same query the
// estimate answered. Returns false when the query must be rejected.
func checkQuery(q *Query, policy ValidationPolicy, world Rect, g *metrics.ShardGauges, log *telemetry.Logger) bool {
	reject := func(reason string) bool {
		g.RecordValidationRejected()
		if policy != ValidationDrop {
			log.Warn("query rejected: "+reason, "query", q.String())
		}
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
			if policy != ValidationClamp {
				return reject("inverted range")
			}
			if r.MinX > r.MaxX {
				r.MinX, r.MaxX = r.MaxX, r.MinX
			}
			if r.MinY > r.MaxY {
				r.MinY, r.MaxY = r.MaxY, r.MinY
			}
			q.Range = r
			g.RecordValidationClamped()
		}
		// Degenerate (zero-area) rectangles are rejected under every
		// policy, not just Strict: the engine's intersection semantics are
		// open intervals (geo.Rect.Intersects returns false for any empty
		// rect), so a point or line query can never match an object, and
		// core.Module.Estimate panics on queries stream.Query.Valid deems
		// invalid — which includes empty ranges. Rejecting here turns that
		// panic into a counted, logged reject with the exact answer (0)
		// the query would have received anyway.
		if q.Range.Empty() {
			return reject("empty range")
		}
		if policy == ValidationStrict && !q.Range.Intersects(world) {
			return reject("range outside world")
		}
	}
	return true
}
