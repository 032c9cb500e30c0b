package geo

import (
	"fmt"
	"math"
)

// Grid maps points in a world rectangle onto a Cols×Rows uniform cell grid.
// It is the shared cell arithmetic behind the 2-D histogram estimator, the
// reservoir-sampling hashmap and the full Grid index, so that all three
// agree exactly on which cell a point belongs to.
type Grid struct {
	World Rect
	Cols  int
	Rows  int

	cellW float64
	cellH float64
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
		cellW: world.Width() / float64(cols),
		cellH: world.Height() / float64(rows),
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

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.Cols * g.Rows }

// CellSize returns the width and height of a single cell.
func (g *Grid) CellSize() (w, h float64) { return g.cellW, g.cellH }

// CellOf returns the flat cell index of point p, clamping out-of-world
// points onto the boundary cells so a slightly-out-of-range coordinate never
// corrupts downstream counters.
func (g *Grid) CellOf(p Point) int {
	c, r := g.ColRowOf(p)
	return r*g.Cols + c
}

// ColRowOf returns the (column, row) of point p with boundary clamping.
func (g *Grid) ColRowOf(p Point) (col, row int) {
	col = int((p.X - g.World.MinX) / g.cellW)
	row = int((p.Y - g.World.MinY) / g.cellH)
	if col < 0 {
		col = 0
	} else if col >= g.Cols {
		col = g.Cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.Rows {
		row = g.Rows - 1
	}
	return col, row
}

// CellRect returns the rectangle of the cell with flat index idx.
// It panics when idx is out of range.
func (g *Grid) CellRect(idx int) Rect {
	if idx < 0 || idx >= g.NumCells() {
		panic(fmt.Sprintf("geo: cell index %d out of range [0,%d)", idx, g.NumCells()))
	}
	col, row := idx%g.Cols, idx/g.Cols
	minX := g.World.MinX + float64(col)*g.cellW
	minY := g.World.MinY + float64(row)*g.cellH
	return Rect{MinX: minX, MinY: minY, MaxX: minX + g.cellW, MaxY: minY + g.cellH}
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
	colMin := int((clipped.MinX - g.World.MinX) / g.cellW)
	rowMin := int((clipped.MinY - g.World.MinY) / g.cellH)
	// The max edge is exclusive; nudge inward so an exactly-aligned query
	// edge does not pull in the next cell row/column.
	colMax := int(math.Nextafter((clipped.MaxX-g.World.MinX)/g.cellW, -1))
	rowMax := int(math.Nextafter((clipped.MaxY-g.World.MinY)/g.cellH, -1))
	if colMax >= g.Cols {
		colMax = g.Cols - 1
	}
	if rowMax >= g.Rows {
		rowMax = g.Rows - 1
	}
	if colMin < 0 {
		colMin = 0
	}
	if rowMin < 0 {
		rowMin = 0
	}
	if colMax < colMin || rowMax < rowMin {
		return CellRange{ColMin: 0, ColMax: -1, RowMin: 0, RowMax: -1}
	}
	return CellRange{ColMin: colMin, ColMax: colMax, RowMin: rowMin, RowMax: rowMax}
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
