package geo

import (
	"math"
	"math/bits"
)

// Lattice is the integer lattice a world's points are stored on. It is
// dyadic: its step is a power of two, and its lines are the multiples of
// the step, wherever the world lies. The step is the finest for which the
// world spans at most 2³² steps on either axis (and for which no line
// within the world lies more than 2⁵² steps from 0), so a lattice point is
// two uint32 column indices counted from the world's first column.
//
// Three properties follow from the lines being multiples of a power of
// two, and the engine relies on each:
//   - every lattice point is an exact float64, so Unsnap∘Snap is the
//     identity on lattice points;
//   - Snap is an exact floor: a point lies on or after a lattice line
//     exactly when its column does;
//   - a narrower world's lattice refines a wider one's (its step divides
//     the wider step), so a territory engine and the map it was cut from
//     put every point on the same side of every line of the wider lattice.
//
// Points outside the world clamp onto its first or last column, and a
// range is snapped to the columns its points snap to: one clamp rule for
// objects and queries.
type Lattice struct {
	x, y latAxis
}

// latAxis is one dimension of a lattice.
type latAxis struct {
	scale float64 // 1/step, a power of two
	lo    float64 // the world's first column on the global lattice, floor(min·scale)
	n     float64 // columns the world touches, at most 2³²
	cols  uint64  // n
	last  uint32  // n-1
	// exact is set when v·scale − lo is exact for every in-world v, so
	// snap's truncation needs no correction (see snap).
	exact bool
}

// LPoint is a lattice point: column indices from the world's first column.
type LPoint struct{ X, Y uint32 }

// LRect is a half-open range of lattice points, [MinX, MaxX) × [MinY,
// MaxY). Its bounds are 64-bit: a range that runs to the far edge of a
// world spanning 2³² steps ends at 2³².
type LRect struct {
	MinX, MinY, MaxX, MaxY uint64
}

// Contains reports whether r holds p. A point left of MinX wraps to a
// difference no width reaches, so each axis costs one comparison.
func (r LRect) Contains(p LPoint) bool {
	return uint64(p.X)-r.MinX < r.MaxX-r.MinX && uint64(p.Y)-r.MinY < r.MaxY-r.MinY
}

// maxLatticeIndex bounds |v·scale| for every v in the world, so that
// floor(v·scale) − lo is computed exactly in float64.
const maxLatticeIndex = 1 << 52

// maxColumns is the most columns a world may span on one axis.
const maxColumns = 1 << 32

// NewLattice builds the lattice of world, which must be finite and
// non-empty.
func NewLattice(world Rect) Lattice {
	e := min(finestExp(world.MinX, world.MaxX), finestExp(world.MinY, world.MaxY))
	return Lattice{x: newLatAxis(world.MinX, world.MaxX, e), y: newLatAxis(world.MinY, world.MaxY, e)}
}

// finestExp returns the largest e for which [lo, hi] touches at most
// maxColumns columns of step 2⁻ᵉ, and no column within it is further than
// maxLatticeIndex from 0. Both counts grow with e, so it steps down from
// a guess above the answer.
func finestExp(lo, hi float64) int {
	_, em := math.Frexp(max(math.Abs(lo), math.Abs(hi)))
	_, ew := math.Frexp(hi/2 - lo/2) // halves, so a world spanning most of float64 does not overflow
	e := min(53-em, 33-ew, 1023)
	for ; e > -1022; e-- {
		a, b := math.Floor(math.Ldexp(lo, e)), math.Ceil(math.Ldexp(hi, e))
		if b-a <= maxColumns && max(-a, b) <= maxLatticeIndex {
			break
		}
	}
	return e
}

func newLatAxis(lo, hi float64, e int) latAxis {
	scale := math.Ldexp(1, e)
	a := latAxis{scale: scale, lo: math.Floor(lo * scale)}
	a.n = max(math.Ceil(hi*scale)-a.lo, 1)
	a.cols, a.last = uint64(a.n), uint32(a.n-1)
	// The difference of v·scale and the integer lo needs bits from t's
	// top, below 2^bits.Len(last), down to v·scale's ulp: it fits a
	// float64 when the world keeps |v·scale| ≥ 2^bits.Len(last) (v·scale
	// then has an ulp of at least 2^(bits.Len(last)−52)), or lo is 0.
	near := math.Min(math.Abs(lo*scale), math.Abs(hi*scale))
	if lo < 0 && hi > 0 {
		near = 0
	}
	a.exact = a.lo == 0 || near >= math.Ldexp(1, bits.Len32(a.last))
	return a
}

// snap returns v's column, clamped onto [0, n-1]: ⌊v·scale⌋ − lo, which
// is exact. v·scale is exact, and so is its difference t from the integer
// lo unless v·scale carries fraction bits below t's precision (never, on
// an exact axis); rounding can then lift t onto the next integer, never
// past it, and the column is corrected by comparing its start with
// v·scale. A t below 0, at or past n, or NaN converts to an integer that
// is not below n as a uint64, whatever the platform makes of it, and
// clamps by t's sign: NaN lands in column 0.
func (a *latAxis) snap(v float64) uint32 {
	f := v * a.scale
	t := f - a.lo
	i := uint64(int64(t))
	if i >= a.cols {
		if t > 0 {
			return a.last
		}
		return 0
	}
	if !a.exact && i > 0 && float64(int64(i))+a.lo > f {
		i--
	}
	return uint32(i)
}

// unsnap returns where column i begins; i may be n, the end of the last.
func (a *latAxis) unsnap(i uint64) float64 { return (float64(i) + a.lo) / a.scale }

// Snap returns the lattice point of p: the column of each coordinate,
// clamped onto the world's lattice.
func (l *Lattice) Snap(p Point) LPoint { return LPoint{l.x.snap(p.X), l.y.snap(p.Y)} }

// Unsnap returns the point where lattice point p's cell begins: p itself,
// when p is read as a float.
func (l *Lattice) Unsnap(p LPoint) Point {
	return Point{l.x.unsnap(uint64(p.X)), l.y.unsnap(uint64(p.Y))}
}

// SnapRect returns the lattice points the half-open rect r holds: the
// columns from the one r's min edge snaps to through the one its last
// point snaps to. A point of r snaps into it, and a point outside r snaps
// into it only within one step of r's edge, or by clamping when r reaches
// beyond the world. An empty r gives an empty range at its min corner.
func (l *Lattice) SnapRect(r Rect) LRect {
	lr := LRect{MinX: uint64(l.x.snap(r.MinX)), MinY: uint64(l.y.snap(r.MinY))}
	if !(r.MinX < r.MaxX && r.MinY < r.MaxY) {
		lr.MaxX, lr.MaxY = lr.MinX, lr.MinY
		return lr
	}
	lr.MaxX = uint64(l.x.snap(math.Nextafter(r.MaxX, math.Inf(-1)))) + 1
	lr.MaxY = uint64(l.y.snap(math.Nextafter(r.MaxY, math.Inf(-1)))) + 1
	return lr
}

// Align returns r rounded outward onto the lattice: the rectangle that
// SnapRect(r) covers. Its edges are lattice lines, so any lattice that
// refines this one snaps it to the same points: a range is aligned once,
// where a query is split across territories, and every part then answers
// as the whole world's lattice would.
func (l *Lattice) Align(r Rect) Rect {
	lr := l.SnapRect(r)
	return Rect{MinX: l.x.unsnap(lr.MinX), MinY: l.y.unsnap(lr.MinY), MaxX: l.x.unsnap(lr.MaxX), MaxY: l.y.unsnap(lr.MaxY)}
}

// Holds reports whether p is a point of the lattice.
func (l *Lattice) Holds(p LPoint) bool { return p.X <= l.x.last && p.Y <= l.y.last }
