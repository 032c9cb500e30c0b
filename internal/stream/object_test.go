package stream

import (
	"strings"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
)

func TestObjectKeywordMatching(t *testing.T) {
	o := Object{ID: 1, Keywords: []string{"fire", "rescue", "ca"}}
	if !o.HasKeyword("fire") || o.HasKeyword("flood") {
		t.Error("HasKeyword mismatch")
	}
	if !o.MatchesAny([]string{"flood", "ca"}) {
		t.Error("MatchesAny should hit on second keyword")
	}
	if o.MatchesAny([]string{"flood", "storm"}) {
		t.Error("MatchesAny false positive")
	}
	if o.MatchesAny(nil) {
		t.Error("MatchesAny(nil) should be false")
	}
	empty := Object{ID: 2}
	if empty.MatchesAny([]string{"fire"}) {
		t.Error("keywordless object should match nothing")
	}
}

func TestQueryTypeClassification(t *testing.T) {
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	tests := []struct {
		q    Query
		want QueryType
	}{
		{SpatialQ(r, 0), SpatialQuery},
		{KeywordQ([]string{"a"}, 0), KeywordQuery},
		{HybridQ(r, []string{"a"}, 0), HybridQuery},
	}
	for _, tc := range tests {
		if got := tc.q.Type(); got != tc.want {
			t.Errorf("Type(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if SpatialQuery.String() != "spatial" || KeywordQuery.String() != "keyword" || HybridQuery.String() != "hybrid" {
		t.Error("QueryType.String mismatch")
	}
	if !strings.Contains(QueryType(9).String(), "9") {
		t.Error("unknown QueryType should include raw value")
	}
}

func TestQueryValid(t *testing.T) {
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	tests := []struct {
		name string
		q    Query
		want bool
	}{
		{"spatial", SpatialQ(r, 0), true},
		{"keyword", KeywordQ([]string{"a"}, 0), true},
		{"hybrid", HybridQ(r, []string{"a"}, 0), true},
		{"no predicates", Query{}, false},
		{"empty rect", SpatialQ(geo.Rect{}, 0), false},
		{"inverted rect", Query{HasRange: true, Range: geo.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}}, false},
	}
	for _, tc := range tests {
		if got := tc.q.Valid(); got != tc.want {
			t.Errorf("%s: Valid = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQueryMatches(t *testing.T) {
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	in := Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"fire"}}
	out := Object{Loc: geo.Pt(2, 2), Keywords: []string{"fire"}}
	noKw := Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"flood"}}

	hq := HybridQ(r, []string{"fire"}, 0)
	if !hq.Matches(&in) {
		t.Error("hybrid should match in-range keyword object")
	}
	if hq.Matches(&out) {
		t.Error("hybrid should reject out-of-range object")
	}
	if hq.Matches(&noKw) {
		t.Error("hybrid should reject non-matching keywords")
	}
	sq := SpatialQ(r, 0)
	if !sq.Matches(&noKw) {
		t.Error("spatial ignores keywords")
	}
	kq := KeywordQ([]string{"fire"}, 0)
	if !kq.Matches(&out) {
		t.Error("keyword ignores location")
	}
}

func TestQueryString(t *testing.T) {
	q := HybridQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, []string{"b", "a"}, 42)
	s := q.String()
	for _, want := range []string{"hybrid", "[a b]", "@42"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
