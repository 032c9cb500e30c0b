// Package check is the repository's correctness-verification subsystem.
// It proves, rather than assumes, that the engines of the public API —
// System, and ShardedSystem with one shard and with several —
// still serve the paper's RC-DVQ semantics after every layer of sharding,
// telemetry and persistence added on top, and that the exact window store itself agrees
// with a second, independently written implementation of the query
// definition.
//
// Three pillars (DESIGN.md §9):
//
//   - Differential testing (differential.go): one deterministic workload is
//     fed into System and a 1-shard NewSharded (the engine NewConcurrent
//     builds) configured for bit-reproducibility plus a brute-force oracle;
//     exact counts, estimates, switch decisions and stats snapshots must
//     agree at every step.
//   - Metamorphic properties (metamorphic.go): RC-DVQ identities that must
//     hold whatever the data — growing R/W/T never shrinks the exact count,
//     quadrants partition a count exactly, keyword order is irrelevant —
//     plus per-estimator statistical error envelopes.
//   - Golden replay (golden.go): a checked-in object trace replayed through
//     a deterministic System, diffed against checked-in count and
//     decision-trace files, so silent semantic drift fails a readable diff.
//
// The same entry points back both the go test suites in this directory
// (short mode runs in seconds; -tags slowcheck unlocks the 10k-step runs)
// and the cmd/latest-check CI binary.
package check

import (
	"math"

	"github.com/spatiotext/latest/internal/stream"
)

// Oracle is a brute-force RC-DVQ evaluator: a flat slice of live objects,
// scanned linearly per query. It is written from the query definition in
// the paper (§III) on purpose — no grid, no inverted index, no code shared
// with internal/stream — so that a bug in the window store's index
// maintenance cannot hide inside an identical bug here.
//
// Semantics mirrored from the definition: the window holds objects of the
// last span milliseconds, eviction is physical (an object dropped because
// of one query's timestamp never reappears for a later, older-stamped
// query), rectangles are min-closed/max-open, the keyword predicate is
// "carries at least one of W", and a query with no predicate — or a
// non-finite, inverted or degenerate rectangle — counts zero.
type Oracle struct {
	span int64
	objs []oracleObj
	head int
}

type oracleObj struct {
	x, y float64
	kws  []string
	ts   int64
}

// NewOracle builds an oracle keeping the last span milliseconds.
func NewOracle(span int64) *Oracle {
	if span <= 0 {
		panic("check: oracle span must be positive")
	}
	return &Oracle{span: span}
}

// Insert appends one object and expires everything older than its window.
// Keywords are copied; the caller may reuse the slice.
func (o *Oracle) Insert(obj *stream.Object) {
	o.objs = append(o.objs, oracleObj{
		x:   obj.Loc.X,
		y:   obj.Loc.Y,
		kws: append([]string(nil), obj.Keywords...),
		ts:  obj.Timestamp,
	})
	o.Advance(obj.Timestamp)
}

// Advance expires every object with timestamp < ts-span. Like the real
// store's eviction it only ever moves forward: a ts older than a previous
// one is a no-op, not a resurrection.
func (o *Oracle) Advance(ts int64) {
	cutoff := ts - o.span
	for o.head < len(o.objs) && o.objs[o.head].ts < cutoff {
		o.head++
	}
	if o.head > 1024 && o.head*2 >= len(o.objs) {
		n := copy(o.objs, o.objs[o.head:])
		o.objs = o.objs[:n]
		o.head = 0
	}
}

// Size returns the number of live objects.
func (o *Oracle) Size() int { return len(o.objs) - o.head }

// Count advances the window to the query's timestamp and then answers the
// RC-DVQ by linear scan.
func (o *Oracle) Count(q *stream.Query) int {
	o.Advance(q.Timestamp)
	return o.CountLive(q)
}

// CountLive answers the query over the current live set without advancing
// the window — the form the metamorphic suite uses so that many query
// variants observe the identical snapshot.
func (o *Oracle) CountLive(q *stream.Query) int {
	if !queryMeaningful(q) {
		return 0
	}
	total := 0
	for i := o.head; i < len(o.objs); i++ {
		if o.matches(&o.objs[i], q) {
			total++
		}
	}
	return total
}

// queryMeaningful re-derives the validity rule: at least one predicate, and
// a present rectangle must be finite, ordered and of positive area.
func queryMeaningful(q *stream.Query) bool {
	if !q.HasRange && len(q.Keywords) == 0 {
		return false
	}
	if q.HasRange {
		r := q.Range
		for _, v := range [...]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if r.MaxX <= r.MinX || r.MaxY <= r.MinY {
			return false
		}
	}
	return true
}

func (o *Oracle) matches(obj *oracleObj, q *stream.Query) bool {
	if q.HasRange {
		r := q.Range
		if obj.x < r.MinX || obj.x >= r.MaxX || obj.y < r.MinY || obj.y >= r.MaxY {
			return false
		}
	}
	if len(q.Keywords) > 0 {
		found := false
	scan:
		for _, want := range q.Keywords {
			for _, have := range obj.kws {
				if have == want {
					found = true
					break scan
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}
