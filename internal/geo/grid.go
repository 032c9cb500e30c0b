package geo

import (
	"fmt"
	"math"
)

// Grid maps points in a world rectangle onto a Cols×Rows uniform cell grid.
// It is the one cell arithmetic of the system: the estimators, the exact
// window, the engine's shards and the cluster's partition map all locate
// through it, so they agree exactly on which cell a point belongs to.
//
// A point is located by one truncated division per axis, and the cell edges
// are derived from that locate, so a cell rectangle holds exactly the
// in-world points located into it, down to the last ulp.
type Grid struct {
	World Rect
	Cols  int
	Rows  int

	x, y axis
}

// axis is one dimension of a grid: its locate parameters and the cell
// edges derived from them.
type axis struct {
	min, step float64
	// cells (n as a float) and last (n-1) let index clamp without a
	// conversion.
	cells float64
	last  int
	edges []float64 // len n+1
}

// NewGrid creates a grid over world with the given column and row counts.
// It panics on non-positive dimensions or an empty world, which are
// programming errors rather than runtime conditions.
func NewGrid(world Rect, cols, rows int) *Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geo: grid dimensions must be positive, got %dx%d", cols, rows))
	}
	if world.Empty() || !world.Valid() {
		panic(fmt.Sprintf("geo: grid world must be a valid non-empty rect, got %v", world))
	}
	return &Grid{
		World: world,
		Cols:  cols,
		Rows:  rows,
		x:     newAxis(world.MinX, world.MaxX, cols),
		y:     newAxis(world.MinY, world.MaxY, rows),
	}
}

// NewSquareGrid creates a grid with cells² = n total cells arranged in a
// √n × √n layout. n must be a perfect square (the paper's H4096 uses 64×64).
func NewSquareGrid(world Rect, n int) *Grid {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side*side != n {
		panic(fmt.Sprintf("geo: %d is not a perfect square", n))
	}
	return NewGrid(world, side, side)
}

// index locates v: the truncated division (v-min)/step, clamped onto
// [0, n-1] before it is converted, so NaN (which fails f >= 0) lands in
// cell 0 and +Inf in cell n-1 by test, not by whatever the platform's
// float-to-int conversion makes of them.
func (a *axis) index(v float64) int {
	f := (v - a.min) / a.step
	if f >= 0 {
		if f < a.cells {
			return int(f)
		}
		return a.last
	}
	return 0
}

// newAxis splits [lo, hi] into n cells and derives their edges from
// index: the outer edges are lo and hi, and edge i the least float index
// puts in cell i or beyond.
func newAxis(lo, hi float64, n int) axis {
	a := axis{min: lo, step: (hi - lo) / float64(n), cells: float64(n), last: n - 1, edges: make([]float64, n+1)}
	a.edges[0], a.edges[n] = lo, hi
	for i := 1; i < n; i++ {
		a.edges[i] = a.least(i, a.edges[i-1], hi)
	}
	return a
}

// least returns the least float in [from, to] that index puts in cell i
// or beyond, or to when none is. It bisects over the floats'
// order-preserving bit keys, narrowed first to the few ulps around the
// arithmetic edge min + i·step when they bracket it; index is monotone,
// so this is exact.
func (a *axis) least(i int, from, to float64) float64 {
	in := func(k uint64) bool { return a.index(keyFloat(k)) >= i }
	l, h := floatKey(from), floatKey(to)
	if in(l) {
		return from
	}
	if g := floatKey(a.min + float64(i)*a.step); l+32 < g && g+32 < h {
		if !in(g - 32) {
			l = g - 32
		}
		if in(g + 32) {
			h = g + 32
		}
	}
	for h-l > 1 { // !in(l), and in(h) unless h is still to's key
		if m := l + (h-l)/2; in(m) {
			h = m
		} else {
			l = m
		}
	}
	if e := keyFloat(h); e != 0 {
		return e
	}
	return 0 // +0, not -0: the two locate alike
}

// floatKey maps a non-NaN float onto a uint64 whose order is the float
// order; keyFloat inverts it.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.Cols * g.Rows }

// CellOf returns the flat cell index of point p, clamping out-of-world
// points onto the boundary cells so a slightly-out-of-range coordinate never
// corrupts downstream counters.
func (g *Grid) CellOf(p Point) int {
	return g.y.index(p.Y)*g.Cols + g.x.index(p.X)
}

// CellRect returns the rectangle of the cell with flat index idx: the
// half-open span between its derived edges. It panics when idx is out of
// range.
func (g *Grid) CellRect(idx int) Rect {
	if idx < 0 || idx >= g.NumCells() {
		panic(fmt.Sprintf("geo: cell index %d out of range [0,%d)", idx, g.NumCells()))
	}
	col, row := idx%g.Cols, idx/g.Cols
	return Rect{MinX: g.x.edges[col], MinY: g.y.edges[row], MaxX: g.x.edges[col+1], MaxY: g.y.edges[row+1]}
}

// CellRange describes the rectangle of cells [ColMin,ColMax]×[RowMin,RowMax]
// overlapped by a query rectangle.
type CellRange struct {
	ColMin, ColMax int
	RowMin, RowMax int
}

// Empty reports whether the range covers no cells.
func (cr CellRange) Empty() bool { return cr.ColMax < cr.ColMin || cr.RowMax < cr.RowMin }

// Count returns the number of cells in the range.
func (cr CellRange) Count() int {
	if cr.Empty() {
		return 0
	}
	return (cr.ColMax - cr.ColMin + 1) * (cr.RowMax - cr.RowMin + 1)
}

// CellsOverlapping returns the inclusive range of cells intersecting rect r,
// clipped to the grid. The returned range is Empty when r misses the world.
func (g *Grid) CellsOverlapping(r Rect) CellRange {
	clipped := g.World.Intersect(r)
	if clipped.Empty() {
		return CellRange{ColMin: 0, ColMax: -1, RowMin: 0, RowMax: -1}
	}
	return g.Span(clipped)
}

// Span returns the cells holding the points of the half-open rect r, with
// out-of-world extents clamped onto the boundary cells exactly as CellOf
// clamps points: a rect wholly outside the world spans the cells its
// points land in. It is never empty; an empty r spans its min corner's
// cell.
func (g *Grid) Span(r Rect) CellRange {
	cr := CellRange{
		ColMin: g.x.index(r.MinX),
		ColMax: g.x.index(math.Nextafter(r.MaxX, math.Inf(-1))), // the last x r holds
		RowMin: g.y.index(r.MinY),
		RowMax: g.y.index(math.Nextafter(r.MaxY, math.Inf(-1))),
	}
	cr.ColMax = max(cr.ColMax, cr.ColMin)
	cr.RowMax = max(cr.RowMax, cr.RowMin)
	return cr
}

// ColEdge returns the x coordinate where column i begins (i == Cols gives
// the world's max edge).
func (g *Grid) ColEdge(i int) float64 { return g.x.edges[i] }

// RowEdge returns the y coordinate where row i begins (i == Rows gives the
// world's max edge).
func (g *Grid) RowEdge(i int) float64 { return g.y.edges[i] }

// ForEachCell calls fn with the flat index and rectangle of every cell in
// cr. fn returning false stops the iteration early.
func (g *Grid) ForEachCell(cr CellRange, fn func(idx int, cell Rect) bool) {
	for row := cr.RowMin; row <= cr.RowMax; row++ {
		for col := cr.ColMin; col <= cr.ColMax; col++ {
			idx := row*g.Cols + col
			if !fn(idx, g.CellRect(idx)) {
				return
			}
		}
	}
}
