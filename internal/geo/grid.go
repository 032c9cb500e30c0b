package geo

import (
	"fmt"
	"math"
	"math/bits"
)

// Grid maps points in a world rectangle onto a Cols×Rows uniform cell grid.
// It is the one cell arithmetic of the system: the estimators, the exact
// window, the engine's shards and the cluster's partition map all locate
// through it, so they agree exactly on which cell a point belongs to.
//
// Cells are cut from the world's lattice: a point is snapped, and its
// lattice point located by an integer multiply-shift per axis. Cell edges
// are lattice lines, so a cell rectangle holds exactly the in-world points
// located into it, and a grid over a territory cut from another grid's
// cells agrees with it at every shared edge.
type Grid struct {
	World Rect
	Cols  int
	Rows  int

	lat  Lattice
	x, y axis
}

// axis is one dimension of a grid over a lattice of n columns, split into
// c cells: column l is in cell ⌊l·c/n⌋.
type axis struct {
	// Column l's cell is the high word of (l·2^shift)·frac, frac being
	// ⌈2⁶⁴·c/n'⌉ for n' = n·2^shift, the least such multiple of n above
	// c: shift is 0 unless the lattice has no more columns than the grid
	// has cells. For l·2^shift < n' ≤ 2³² the rounding of frac never
	// reaches the next integer, so this is exact.
	shift uint8
	frac  uint64
	edges []uint64 // len c+1: the first column of each cell, then n
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
	lat := NewLattice(world)
	return &Grid{
		World: world,
		Cols:  cols,
		Rows:  rows,
		lat:   lat,
		x:     newAxis(lat.x.cols, cols),
		y:     newAxis(lat.y.cols, rows),
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

func newAxis(n uint64, cells int) axis {
	c := uint64(cells)
	a := axis{edges: make([]uint64, cells+1)}
	for n<<a.shift <= c {
		a.shift++
	}
	var rem uint64
	if a.frac, rem = bits.Div64(c, 0, n<<a.shift); rem != 0 {
		a.frac++
	}
	for i := range a.edges {
		// The least column in cell i or beyond: ⌈i·n/c⌉.
		hi, lo := bits.Mul64(uint64(i), n)
		q, rem := bits.Div64(hi, lo, c)
		if rem != 0 {
			q++
		}
		a.edges[i] = q
	}
	return a
}

// index returns the cell of column l.
func (a *axis) index(l uint32) int {
	hi, _ := bits.Mul64(uint64(l)<<(a.shift&63), a.frac)
	return int(hi)
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.Cols * g.Rows }

// CellOf returns the flat cell index of point p, clamping out-of-world
// points onto the boundary cells so a slightly-out-of-range coordinate never
// corrupts downstream counters.
func (g *Grid) CellOf(p Point) int {
	return g.y.index(g.lat.y.snap(p.Y))*g.Cols + g.x.index(g.lat.x.snap(p.X))
}

// CellOfL returns the flat cell index of lattice point p.
func (g *Grid) CellOfL(p LPoint) int {
	return g.y.index(p.Y)*g.Cols + g.x.index(p.X)
}

// Lattice returns the lattice of the grid's world, which its cells are cut
// from.
func (g *Grid) Lattice() *Lattice { return &g.lat }

// CellRect returns the rectangle of the cell with flat index idx: the
// half-open span between its edges. It panics when idx is out of range.
func (g *Grid) CellRect(idx int) Rect {
	if idx < 0 || idx >= g.NumCells() {
		panic(fmt.Sprintf("geo: cell index %d out of range [0,%d)", idx, g.NumCells()))
	}
	col, row := idx%g.Cols, idx/g.Cols
	return Rect{MinX: g.ColEdge(col), MinY: g.RowEdge(row), MaxX: g.ColEdge(col + 1), MaxY: g.RowEdge(row + 1)}
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
func (g *Grid) Span(r Rect) CellRange { return g.SpanL(g.lat.SnapRect(r)) }

// SpanL returns the cells holding the points of lattice range r. It is
// never empty; an empty r spans its min corner's cell.
func (g *Grid) SpanL(r LRect) CellRange {
	return CellRange{
		ColMin: g.x.index(uint32(r.MinX)),
		ColMax: g.x.index(uint32(max(r.MaxX, r.MinX+1) - 1)),
		RowMin: g.y.index(uint32(r.MinY)),
		RowMax: g.y.index(uint32(max(r.MaxY, r.MinY+1) - 1)),
	}
}

// WithinL returns the cells lattice range r holds whole; it is Empty when
// there are none.
func (g *Grid) WithinL(r LRect) CellRange {
	colMin, colMax := g.x.within(r.MinX, r.MaxX)
	rowMin, rowMax := g.y.within(r.MinY, r.MaxY)
	return CellRange{ColMin: colMin, ColMax: colMax, RowMin: rowMin, RowMax: rowMax}
}

// within returns the first and last cell that columns [lo, hi) hold
// whole, last < first when none.
func (a *axis) within(lo, hi uint64) (first, last int) {
	if hi <= lo {
		return 0, -1
	}
	first, last = a.index(uint32(lo)), a.index(uint32(hi-1))
	if a.edges[first] < lo {
		first++
	}
	if a.edges[last+1] > hi {
		last--
	}
	return first, last
}

// ColEdge returns the x coordinate where column i begins: a lattice line,
// but the world's own edges for i == 0 and i == Cols.
func (g *Grid) ColEdge(i int) float64 { return edge(&g.x, &g.lat.x, i, g.World.MinX, g.World.MaxX) }

// RowEdge returns the y coordinate where row i begins: a lattice line,
// but the world's own edges for i == 0 and i == Rows.
func (g *Grid) RowEdge(i int) float64 { return edge(&g.y, &g.lat.y, i, g.World.MinY, g.World.MaxY) }

func edge(a *axis, l *latAxis, i int, lo, hi float64) float64 {
	if i == 0 {
		return lo
	}
	if i == len(a.edges)-1 {
		return hi
	}
	return min(max(l.unsnap(a.edges[i]), lo), hi)
}

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
