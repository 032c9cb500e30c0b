package geo

import (
	"math"
	"testing"
)

// latticeWorlds are worlds whose edges are lattice lines and worlds whose
// edges are not, near 0 and far from it.
var latticeWorlds = []Rect{
	{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50},
	UnitSquare,
	{MinX: -74.3, MinY: 40.4, MaxX: -73.7, MaxY: 41.0},
	{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1},
	{MinX: 1e15, MinY: -1, MaxX: 1e15 + 3, MaxY: 1},
}

// step is l's step, the same on both axes.
func (l *Lattice) step() float64 { return 1 / l.x.scale }

// TestLatticeSteps: the step is a power of two, the world spans at most
// 2³² steps on each axis, a wider world's step is no finer, and on the
// continental-US presets the step is 2⁻²⁶.
func TestLatticeSteps(t *testing.T) {
	for _, w := range latticeWorlds {
		l := NewLattice(w)
		frac, _ := math.Frexp(l.step())
		if nx, ny := l.x.cols, l.y.cols; frac != 0.5 || nx > 1<<32 || ny > 1<<32 {
			t.Errorf("%v: step %g, %d×%d columns", w, l.step(), nx, ny)
		}
		wider := NewLattice(w.Expand(w.Width() + w.Height()))
		if wider.step() < l.step() {
			t.Errorf("%v: the wider world %v has the finer step %g", w, w.Expand(w.Width()+w.Height()), wider.step())
		}
	}
	if l := NewLattice(latticeWorlds[0]); l.step() != math.Ldexp(1, -26) {
		t.Errorf("CONUS step %g, want 2⁻²⁶", l.step())
	}
}

// FuzzLattice checks, for a fuzzed world, grid and pair of coordinates:
//   - Snap is monotone;
//   - Unsnap∘Snap is the identity on lattice points;
//   - Grid locate agrees with the lattice cell edges: a point's cell is
//     the one whose edge columns bracket its lattice column, and the
//     cell's rectangle holds it when it lies in the world;
//   - a territory cut from the grid's cells — one column stripe of it, as
//     a uniform cluster map gives a node, the 9×3 map among the seeds —
//     has a lattice whose step divides the world's, and that puts every
//     point on the side of every map edge the world's lattice puts it.
func FuzzLattice(f *testing.F) {
	for _, w := range latticeWorlds {
		f.Add(w.MinX, w.MinY, w.MaxX, w.MaxY, uint8(9), uint8(3), w.MinX+w.Width()/3, w.MinY+w.Height()/7, uint8(1))
		f.Add(w.MinX, w.MinY, w.MaxX, w.MaxY, uint8(64), uint8(64), math.Nextafter(w.MaxX, 0), w.MaxY, uint8(0))
	}
	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY float64, cols, rows uint8, x, y float64, stripe uint8) {
		w := Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
		if !w.Valid() || w.Empty() || cols == 0 || rows == 0 || math.IsNaN(x) || math.IsNaN(y) {
			t.Skip()
		}
		g := NewGrid(w, int(cols), int(rows))
		l := g.Lattice()

		// Monotone, and the identity on lattice points.
		for _, v := range [][2]float64{{x, y}, {y, x}} {
			lo, hi := min(v[0], v[1]), max(v[0], v[1])
			a, b := l.Snap(Pt(lo, lo)), l.Snap(Pt(hi, hi))
			if a.X > b.X || a.Y > b.Y {
				t.Fatalf("%v: Snap(%v) = %v after Snap(%v) = %v", w, lo, a, hi, b)
			}
		}
		p := l.Snap(Pt(x, y))
		if back := l.Snap(l.Unsnap(p)); back != p {
			t.Fatalf("%v: Snap(Unsnap(%v)) = %v", w, p, back)
		}

		// Locate agrees with the cell edges.
		idx := g.CellOf(Pt(x, y))
		if idx != g.CellOfL(p) {
			t.Fatalf("%v: CellOf %d, CellOfL %d", w, idx, g.CellOfL(p))
		}
		if cell := cellRectL(g, idx); !cell.Contains(p) {
			t.Fatalf("%v %dx%d: %v in cell %d, whose lattice range %v does not hold it", w, cols, rows, p, idx, cell)
		}
		if pt := Pt(x, y); w.Contains(pt) && !g.CellRect(idx).Contains(pt) {
			t.Fatalf("%v %dx%d: %v in cell %d, whose rectangle %v does not hold it", w, cols, rows, pt, idx, g.CellRect(idx))
		}

		// A territory: one column stripe of the grid.
		c := int(stripe) % g.Cols
		terr := g.CellRect(c).Union(g.CellRect((g.Rows-1)*g.Cols + c))
		if terr.Empty() {
			return
		}
		tl := NewLattice(terr)
		if r := l.step() / tl.step(); r < 1 || r != math.Exp2(math.Round(math.Log2(r))) {
			t.Fatalf("%v: territory %v step %g does not divide the world's %g", w, terr, tl.step(), l.step())
		}
		for _, e := range []float64{g.ColEdge(c), g.ColEdge(c + 1)} {
			if e == w.MinX || e == w.MaxX {
				continue
			}
			// The map edge is a line of both lattices: its column index,
			// which may be one past the territory's last, is whole.
			ew, et := e*l.x.scale-l.x.lo, e*tl.x.scale-tl.x.lo
			if ew != math.Trunc(ew) || et != math.Trunc(et) {
				t.Fatalf("%v: map edge %v is not a lattice line (columns %v, %v in territory %v)", w, e, ew, et, terr)
			}
			for k := -2; k <= 2; k++ {
				v := e
				for i := 0; i < k; i++ {
					v = math.Nextafter(v, math.Inf(1))
				}
				for i := 0; i > k; i-- {
					v = math.Nextafter(v, math.Inf(-1))
				}
				if v < terr.MinX || v >= terr.MaxX {
					continue
				}
				world := float64(l.Snap(Pt(v, y)).X) >= ew
				territory := float64(tl.Snap(Pt(v, y)).X) >= et
				if world != territory || world != (v >= e) {
					t.Fatalf("%v: %v against map edge %v: world lattice says %v, territory %v says %v", w, v, e, world, terr, territory)
				}
			}
		}
	})
}

// TestWithinL: the cells WithinL reports are exactly the cells of the
// span whose lattice ranges the range holds whole.
func TestWithinL(t *testing.T) {
	for _, w := range latticeWorlds {
		g := NewGrid(w, 9, 7)
		l := g.Lattice()
		for i := 0; i < 200; i++ {
			a := Pt(w.MinX+float64(i%13)/12*w.Width(), w.MinY+float64(i%7)/6*w.Height())
			b := Pt(w.MinX+float64(i%11)/5*w.Width()-w.Width()/3, w.MinY+float64(i%5)/3*w.Height())
			r := l.SnapRect(NewRect(a, b))
			in := g.WithinL(r)
			for row := 0; row < g.Rows; row++ {
				for col := 0; col < g.Cols; col++ {
					cell := cellRectL(g, row*g.Cols+col)
					whole := r.MinX < r.MaxX && r.MinY < r.MaxY &&
						cell.MinX >= r.MinX && cell.MaxX <= r.MaxX && cell.MinY >= r.MinY && cell.MaxY <= r.MaxY
					inside := col >= in.ColMin && col <= in.ColMax && row >= in.RowMin && row <= in.RowMax
					if whole != inside {
						t.Fatalf("%v, range %v: cell (%d,%d) %v held whole %v, WithinL %+v", w, r, col, row, cell, whole, in)
					}
				}
			}
		}
	}
}

// cellRectL is the lattice range of cell idx: the columns between its
// edges.
func cellRectL(g *Grid, idx int) LRect {
	col, row := idx%g.Cols, idx/g.Cols
	return LRect{MinX: g.x.edges[col], MinY: g.y.edges[row], MaxX: g.x.edges[col+1], MaxY: g.y.edges[row+1]}
}
