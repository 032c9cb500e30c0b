// Package stream defines the geo-textual streaming data model of the paper:
// objects (oid, loc, kw, timestamp), RC-DVQ estimation queries, a virtual
// clock, and the exact sliding-window store that plays the role of the
// "system logs" — the source of actual query selectivity against which every
// estimator's answer is scored.
package stream

import (
	"fmt"
	"sort"
	"strings"

	"github.com/spatiotext/latest/internal/geo"
)

// Object is a geo-textual stream element, mirroring the paper's
// (oid, loc, kw, timestamp) tuple. Timestamps are virtual milliseconds from
// an arbitrary epoch; they must be non-decreasing in arrival order.
type Object struct {
	ID        uint64
	Loc       geo.Point
	Keywords  []string
	Timestamp int64
}

// HasKeyword reports whether the object carries keyword kw.
func (o *Object) HasKeyword(kw string) bool {
	for _, k := range o.Keywords {
		if k == kw {
			return true
		}
	}
	return false
}

// MatchesAny reports whether the object carries at least one of the given
// keywords (the RC-DVQ keyword predicate: o.kw ∩ q.W ≠ ∅).
func (o *Object) MatchesAny(kws []string) bool {
	for _, k := range kws {
		if o.HasKeyword(k) {
			return true
		}
	}
	return false
}

// QueryType classifies an RC-DVQ by which predicates it carries. The paper's
// workloads are mixes of these three types.
type QueryType uint8

const (
	// SpatialQuery has only a spatial range R (a pure range-counting query).
	SpatialQuery QueryType = iota
	// KeywordQuery has only a keyword set W (a pure distinct-value query).
	KeywordQuery
	// HybridQuery has both predicates.
	HybridQuery
)

// String implements fmt.Stringer.
func (t QueryType) String() string {
	switch t {
	case SpatialQuery:
		return "spatial"
	case KeywordQuery:
		return "keyword"
	case HybridQuery:
		return "hybrid"
	default:
		return fmt.Sprintf("QueryType(%d)", uint8(t))
	}
}

// Query is a Range-Counting Distinct-Value Query (RC-DVQ, paper §III):
// estimate |{o ∈ S_T : o.loc ∈ R ∧ o.kw ∩ W ≠ ∅}|. Both predicates are
// optional; at least one must be present for the query to be meaningful.
type Query struct {
	// Range is the spatial predicate R. Ignored unless HasRange.
	Range geo.Rect
	// HasRange marks the spatial predicate as present. A pure keyword query
	// has HasRange == false.
	HasRange bool
	// Keywords is the keyword predicate W; empty for pure spatial queries.
	Keywords []string
	// Timestamp is when the query was issued (virtual ms). The window it
	// observes is [Timestamp-T, Timestamp].
	Timestamp int64
}

// SpatialQ builds a pure spatial query.
func SpatialQ(r geo.Rect, ts int64) Query {
	return Query{Range: r, HasRange: true, Timestamp: ts}
}

// KeywordQ builds a pure keyword query.
func KeywordQ(kws []string, ts int64) Query {
	return Query{Keywords: kws, Timestamp: ts}
}

// HybridQ builds a combined spatial-keyword query.
func HybridQ(r geo.Rect, kws []string, ts int64) Query {
	return Query{Range: r, HasRange: true, Keywords: kws, Timestamp: ts}
}

// Type classifies the query.
func (q *Query) Type() QueryType {
	switch {
	case q.HasRange && len(q.Keywords) > 0:
		return HybridQuery
	case q.HasRange:
		return SpatialQuery
	default:
		return KeywordQuery
	}
}

// Valid reports whether the query carries at least one predicate and, when
// present, a valid rectangle.
func (q *Query) Valid() bool {
	if !q.HasRange && len(q.Keywords) == 0 {
		return false
	}
	if q.HasRange && (!q.Range.Valid() || q.Range.Empty()) {
		return false
	}
	return true
}

// Matches reports whether object o satisfies the query's predicates
// (ignoring the time window, which is the store's concern).
func (q *Query) Matches(o *Object) bool {
	if q.HasRange && !q.Range.Contains(o.Loc) {
		return false
	}
	if len(q.Keywords) > 0 && !o.MatchesAny(q.Keywords) {
		return false
	}
	return true
}

// String implements fmt.Stringer.
func (q Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q{%s", q.Type())
	if q.HasRange {
		fmt.Fprintf(&b, " R=%v", q.Range)
	}
	if len(q.Keywords) > 0 {
		kws := append([]string(nil), q.Keywords...)
		sort.Strings(kws)
		fmt.Fprintf(&b, " W=%v", kws)
	}
	fmt.Fprintf(&b, " @%d}", q.Timestamp)
	return b.String()
}
