package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	tests := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(1.5, 0), Pt(0, 2), 2.5},
	}
	for _, tc := range tests {
		if got := tc.a.DistanceTo(tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("DistanceTo(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.a.SquaredDistanceTo(tc.b); math.Abs(got-tc.want*tc.want) > 1e-9 {
			t.Errorf("SquaredDistanceTo(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want*tc.want)
		}
	}
}

func TestNewRectOrdersCorners(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(2, 7))
	want := Rect{MinX: 2, MinY: 1, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestRectAccessors(t *testing.T) {
	r := RectWH(Pt(1, 2), 3, 4)
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("WH = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %v", r.Area())
	}
	if c := r.Center(); c != Pt(2.5, 4) {
		t.Errorf("Center = %v", c)
	}
	if CenteredRect(Pt(2.5, 4), 3, 4) != r {
		t.Errorf("CenteredRect round-trip failed")
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},     // min corner included
		{Pt(1, 1), false},    // max corner excluded
		{Pt(1, 0), false},    // max X edge excluded
		{Pt(0, 1), false},    // max Y edge excluded
		{Pt(0.5, 0.5), true}, // interior
		{Pt(-0.1, 0.5), false},
		{Pt(0.5, 1.0000001), false},
	}
	for _, tc := range tests {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	tests := []struct {
		name string
		b    Rect
		want Rect
		hits bool
	}{
		{"full overlap", Rect{2, 2, 4, 4}, Rect{2, 2, 4, 4}, true},
		{"partial", Rect{5, 5, 15, 15}, Rect{5, 5, 10, 10}, true},
		{"touching edges do not intersect", Rect{10, 0, 20, 10}, Rect{}, false},
		{"disjoint", Rect{20, 20, 30, 30}, Rect{}, false},
		{"identical", a, a, true},
		{"contains a", Rect{-5, -5, 15, 15}, a, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := a.Intersects(tc.b); got != tc.hits {
				t.Errorf("Intersects = %v, want %v", got, tc.hits)
			}
			if got := a.Intersect(tc.b); got != tc.want {
				t.Errorf("Intersect = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 2, 3, 3}
	if got := a.Union(b); got != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := (Rect{}).Union(b); got != b {
		t.Errorf("empty Union = %v", got)
	}
	if got := a.Expand(1); got != (Rect{-1, -1, 2, 2}) {
		t.Errorf("Expand = %v", got)
	}
	if got := a.Expand(-1); !got.Empty() {
		t.Errorf("over-shrunk Expand should be empty, got %v", got)
	}
}

func TestOverlapFraction(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		s    Rect
		want float64
	}{
		{Rect{0, 0, 10, 10}, 1},
		{Rect{0, 0, 20, 10}, 0.5},
		{Rect{-10, 0, 10, 10}, 0.5},
		{Rect{20, 20, 30, 30}, 0},
		{Rect{5, 5, 15, 15}, 0.25},
	}
	for _, tc := range tests {
		if got := r.OverlapFraction(tc.s); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("OverlapFraction(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestQuadrants(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	q := r.Quadrants()
	want := [4]Rect{
		{0, 0, 1, 1}, {1, 0, 2, 1}, {0, 1, 1, 2}, {1, 1, 2, 2},
	}
	if q != want {
		t.Fatalf("Quadrants = %v, want %v", q, want)
	}
	// Every quadrant's points map back to its own index.
	for i, qr := range q {
		if got := r.QuadrantOf(qr.Center()); got != i {
			t.Errorf("QuadrantOf(center of quadrant %d) = %d", i, got)
		}
	}
	// Quadrants tile the parent: areas sum and pairwise disjoint.
	total := 0.0
	for _, qr := range q {
		total += qr.Area()
	}
	if math.Abs(total-r.Area()) > 1e-12 {
		t.Errorf("quadrant areas sum to %v, want %v", total, r.Area())
	}
}

func TestClamp(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	tests := []struct {
		in Point
	}{
		{Pt(-5, 0.5)}, {Pt(5, 0.5)}, {Pt(0.5, -5)}, {Pt(0.5, 5)}, {Pt(2, 2)}, {Pt(0.5, 0.5)},
	}
	for _, tc := range tests {
		got := r.Clamp(tc.in)
		if !r.Contains(got) {
			t.Errorf("Clamp(%v) = %v not contained in %v", tc.in, got, r)
		}
	}
	// Interior points are unchanged.
	if got := r.Clamp(Pt(0.25, 0.75)); got != Pt(0.25, 0.75) {
		t.Errorf("Clamp moved interior point: %v", got)
	}
}

func TestRectValid(t *testing.T) {
	if !(Rect{0, 0, 1, 1}).Valid() {
		t.Error("unit rect should be valid")
	}
	if (Rect{1, 0, 0, 1}).Valid() {
		t.Error("inverted rect should be invalid")
	}
	if (Rect{math.NaN(), 0, 1, 1}).Valid() {
		t.Error("NaN rect should be invalid")
	}
	if (Rect{0, 0, math.Inf(1), 1}).Valid() {
		t.Error("Inf rect should be invalid")
	}
}

// Property: intersection is commutative and contained in both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := RectWH(Pt(norm(ax), norm(ay)), pos(aw), pos(ah))
		b := RectWH(Pt(norm(bx), norm(by)), pos(bw), pos(bh))
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1 != i2 {
			return false
		}
		if i1.Empty() {
			return true
		}
		return a.ContainsRect(i1) && b.ContainsRect(i1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: union contains both operands; intersect(a, union) == a.
func TestUnionProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := RectWH(Pt(norm(ax), norm(ay)), pos(aw), pos(ah))
		b := RectWH(Pt(norm(bx), norm(by)), pos(bw), pos(bh))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) && u.Intersect(a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// norm squashes an arbitrary float into a sane coordinate.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

// pos squashes an arbitrary float into a positive extent.
func pos(v float64) float64 {
	v = math.Abs(norm(v))
	if v < 1e-9 {
		return 1e-9
	}
	return v
}
