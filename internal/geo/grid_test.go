package geo

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGridPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero cols", func() { NewGrid(UnitSquare, 0, 4) }},
		{"negative rows", func() { NewGrid(UnitSquare, 4, -1) }},
		{"empty world", func() { NewGrid(Rect{}, 4, 4) }},
		{"non-square count", func() { NewSquareGrid(UnitSquare, 4095) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSquareGrid4096(t *testing.T) {
	g := NewSquareGrid(UnitSquare, 4096)
	if g.Cols != 64 || g.Rows != 64 {
		t.Fatalf("got %dx%d, want 64x64", g.Cols, g.Rows)
	}
	if g.NumCells() != 4096 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	if c := g.CellRect(0); c.Width() != 1.0/64 || c.Height() != 1.0/64 {
		t.Fatalf("cell 0 is %v", c)
	}
}

func TestCellOfCorners(t *testing.T) {
	g := NewGrid(UnitSquare, 4, 4)
	tests := []struct {
		p    Point
		want int
	}{
		{Pt(0, 0), 0},
		{Pt(0.999, 0.999), 15},
		{Pt(0.25, 0), 1},       // exactly on a cell boundary goes right
		{Pt(0, 0.25), 4},       // boundary row goes up
		{Pt(0.5, 0.5), 10},     // centre
		{Pt(-1, -1), 0},        // clamped
		{Pt(2, 2), 15},         // clamped
		{Pt(0.26, 0.74), 9},    // col 1, row 2
		{Pt(0.99999, 0.0), 3},  // top of first row
		{Pt(0.0, 0.99999), 12}, // first col, last row
	}
	for _, tc := range tests {
		if got := g.CellOf(tc.p); got != tc.want {
			t.Errorf("CellOf(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	g := NewGrid(Rect{-10, -5, 30, 15}, 8, 5)
	for idx := 0; idx < g.NumCells(); idx++ {
		cell := g.CellRect(idx)
		if got := g.CellOf(cell.Center()); got != idx {
			t.Fatalf("cell %d center maps to %d", idx, got)
		}
		// Min corner belongs to the cell (half-open semantics).
		if got := g.CellOf(Point{cell.MinX, cell.MinY}); got != idx {
			t.Fatalf("cell %d min corner maps to %d", idx, got)
		}
	}
}

func TestCellRectPanicsOutOfRange(t *testing.T) {
	g := NewGrid(UnitSquare, 2, 2)
	for _, idx := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CellRect(%d) should panic", idx)
				}
			}()
			g.CellRect(idx)
		}()
	}
}

func TestCellsOverlapping(t *testing.T) {
	g := NewGrid(UnitSquare, 4, 4)
	tests := []struct {
		name string
		r    Rect
		want CellRange
	}{
		{"whole world", UnitSquare, CellRange{0, 3, 0, 3}},
		{"single cell interior", Rect{0.1, 0.1, 0.2, 0.2}, CellRange{0, 0, 0, 0}},
		{"exactly one cell", Rect{0.25, 0.25, 0.5, 0.5}, CellRange{1, 1, 1, 1}},
		{"two cols", Rect{0.2, 0.1, 0.3, 0.2}, CellRange{0, 1, 0, 0}},
		{"miss", Rect{2, 2, 3, 3}, CellRange{0, -1, 0, -1}},
		{"overhang clips", Rect{-1, -1, 0.1, 0.1}, CellRange{0, 0, 0, 0}},
		{"beyond max clips", Rect{0.9, 0.9, 5, 5}, CellRange{3, 3, 3, 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := g.CellsOverlapping(tc.r)
			if got != tc.want {
				t.Errorf("CellsOverlapping(%v) = %+v, want %+v", tc.r, got, tc.want)
			}
		})
	}
}

func TestCellRangeCount(t *testing.T) {
	if c := (CellRange{0, 3, 0, 3}).Count(); c != 16 {
		t.Errorf("Count = %d", c)
	}
	if c := (CellRange{0, -1, 0, -1}).Count(); c != 0 {
		t.Errorf("empty Count = %d", c)
	}
	if !(CellRange{2, 1, 0, 0}).Empty() {
		t.Error("inverted range should be empty")
	}
}

func TestForEachCellVisitsAllAndStops(t *testing.T) {
	g := NewGrid(UnitSquare, 4, 4)
	cr := g.CellsOverlapping(UnitSquare)
	var visited []int
	g.ForEachCell(cr, func(idx int, cell Rect) bool {
		visited = append(visited, idx)
		return true
	})
	if len(visited) != 16 {
		t.Fatalf("visited %d cells, want 16", len(visited))
	}
	for i, idx := range visited {
		if i > 0 && idx <= visited[i-1] {
			t.Fatalf("visit order not increasing: %v", visited)
		}
	}
	// Early stop.
	n := 0
	g.ForEachCell(cr, func(idx int, cell Rect) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

// Property: every point inside the world maps to a cell whose rect
// contains it, and that cell is within every overlap range computed from a
// rect containing the point.
func TestGridPointCellConsistency(t *testing.T) {
	g := NewGrid(Rect{-100, -50, 100, 50}, 17, 13) // deliberately non-square, odd
	rng := rand.New(rand.NewSource(7))
	f := func(fx, fy float64) bool {
		x := g.World.MinX + pos01(fx)*g.World.Width()
		y := g.World.MinY + pos01(fy)*g.World.Height()
		p := Pt(x, y)
		idx := g.CellOf(p)
		if !g.CellRect(idx).Contains(p) {
			return false
		}
		// A random query rect around p must include p's cell in its range.
		qw := rng.Float64()*20 + 1e-6
		qh := rng.Float64()*20 + 1e-6
		cr := g.CellsOverlapping(CenteredRect(p, qw, qh))
		col, row := colRow(g, p)
		return col >= cr.ColMin && col <= cr.ColMax && row >= cr.RowMin && row <= cr.RowMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the union of CellsOverlapping cell rects covers the clipped
// query rect.
func TestCellsOverlappingCoversQuery(t *testing.T) {
	g := NewGrid(UnitSquare, 9, 6)
	f := func(ax, ay, w, h float64) bool {
		q := rectWH(pos01(ax), pos01(ay), pos01(w)*0.5+1e-9, pos01(h)*0.5+1e-9)
		cr := g.CellsOverlapping(q)
		clipped := g.World.Intersect(q)
		if clipped.Empty() {
			return cr.Empty()
		}
		var cover Rect
		g.ForEachCell(cr, func(idx int, cell Rect) bool {
			cover = cover.Union(cell)
			return true
		})
		// Cell edges are derived from the locate, so the union covers the
		// clipped query exactly, with no epsilon.
		return cover.ContainsRect(clipped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// exactnessWorlds are the worlds the exactness property runs over: the
// dataset worlds and a few whose edges are not dyadic.
var exactnessWorlds = []Rect{
	{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50},
	UnitSquare,
	{MinX: -10, MinY: -5, MaxX: 10, MaxY: 5},
	{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90},
	{MinX: -74.3, MinY: 40.4, MaxX: -73.7, MaxY: 41.0},
}

// colRow returns the column and row of the cell p locates in.
func colRow(g *Grid, p Point) (col, row int) {
	idx := g.CellOf(p)
	return idx % g.Cols, idx / g.Cols
}

// refIndex locates v on axis a of a grid of cells by exact big-number
// arithmetic: its lattice column ⌊v·scale⌋ − lo, clamped onto the
// lattice, then ⌊column·cells/n⌋. CellOf must agree with it.
func refIndex(v float64, a *latAxis, cells int) int {
	n := big.NewInt(int64(a.n))
	var col *big.Int
	switch {
	case math.IsNaN(v) || math.IsInf(v, -1):
		col = big.NewInt(0)
	case math.IsInf(v, 1):
		col = new(big.Int).Sub(n, big.NewInt(1))
	default:
		f := new(big.Float).SetPrec(4096).SetFloat64(v)
		f.Mul(f, new(big.Float).SetFloat64(a.scale))
		col, _ = f.Int(nil)
		if f.Sign() < 0 && !f.IsInt() {
			col.Sub(col, big.NewInt(1))
		}
		lo, _ := new(big.Float).SetFloat64(a.lo).Int(nil)
		col.Sub(col, lo)
		if col.Sign() < 0 {
			col.SetInt64(0)
		}
		if col.Cmp(n) >= 0 {
			col.Sub(n, big.NewInt(1))
		}
	}
	col.Mul(col, big.NewInt(int64(cells)))
	return int(col.Div(col, n).Int64())
}

// ulps moves v by k ulps (k < 0 moves down).
func ulps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// nearEdges returns the coordinates within ±3 ulps of every cell edge of
// one axis: the grid's own edges and the arithmetic edges min + i·step.
func nearEdges(edge func(int) float64, min, step float64, n int) []float64 {
	var vs []float64
	for i := 0; i <= n; i++ {
		for _, e := range []float64{edge(i), min + float64(i)*step} {
			for k := -3; k <= 3; k++ {
				vs = append(vs, ulps(e, k))
			}
		}
	}
	return vs
}

// TestGridLocateIsExact: points within a few ulps of every cell edge
// locate as exact arithmetic on their lattice columns does, land inside
// their own cell's rectangle, and fall in the cell span of every range
// containing them.
func TestGridLocateIsExact(t *testing.T) {
	type dims struct{ cols, rows int }
	var grids []dims
	for n := 1; n <= 16; n++ {
		grids = append(grids, dims{n, n}, dims{n, 17 - n})
	}
	grids = append(grids, dims{64, 64})
	for _, w := range exactnessWorlds {
		for _, d := range grids {
			g := NewGrid(w, d.cols, d.rows)
			cw, ch := w.Width()/float64(d.cols), w.Height()/float64(d.rows)
			xs := nearEdges(g.ColEdge, w.MinX, cw, d.cols)
			ys := nearEdges(g.RowEdge, w.MinY, ch, d.rows)
			// Every near-edge x meets some near-edge y and vice versa.
			pts := make([]Point, 0, len(xs)+len(ys))
			for i, x := range xs {
				pts = append(pts, Pt(x, ys[i%len(ys)]))
			}
			for i, y := range ys {
				pts = append(pts, Pt(xs[(7*i+3)%len(xs)], y))
			}
			for _, p := range pts {
				x, y := p.X, p.Y
				col, row := colRow(g, p)
				if rc, rr := refIndex(x, &g.lat.x, d.cols), refIndex(y, &g.lat.y, d.rows); col != rc || row != rr {
					t.Fatalf("%v %dx%d: %v at (%d,%d), the lattice says (%d,%d)", w, d.cols, d.rows, p, col, row, rc, rr)
				}
				if !w.Contains(p) {
					continue
				}
				idx := g.CellOf(p)
				if cell := g.CellRect(idx); !cell.Contains(p) {
					t.Fatalf("%v %dx%d: %v outside its cell %d %v", w, d.cols, d.rows, p, idx, cell)
				}
				// The tightest range holding p, and ranges reaching
				// from p to each world corner.
				for _, r := range []Rect{
					{MinX: x, MinY: y, MaxX: ulps(x, 1), MaxY: ulps(y, 1)},
					{MinX: w.MinX, MinY: w.MinY, MaxX: ulps(x, 1), MaxY: ulps(y, 1)},
					{MinX: x, MinY: y, MaxX: w.MaxX, MaxY: w.MaxY},
				} {
					for _, cr := range []CellRange{g.Span(r), g.CellsOverlapping(r)} {
						if col < cr.ColMin || col > cr.ColMax || row < cr.RowMin || row > cr.RowMax {
							t.Fatalf("%v %dx%d: %v in cell (%d,%d) outside the span %+v of %v",
								w, d.cols, d.rows, p, col, row, cr, r)
						}
					}
				}
			}
		}
	}
}

// TestGridLocateNonFinite: NaN, infinities and far-away coordinates clamp
// onto the boundary cells, NaN onto cell 0 by an explicit test rather than
// by the platform's float-to-int conversion.
func TestGridLocateNonFinite(t *testing.T) {
	for _, w := range exactnessWorlds {
		g := NewGrid(w, 7, 5)
		for _, tc := range []struct {
			v        float64
			col, row int
		}{
			{math.NaN(), 0, 0},
			{math.Inf(-1), 0, 0},
			{math.Inf(1), 6, 4},
			{-1e300, 0, 0},
			{1e300, 6, 4},
			{-1e6, 0, 0},
			{1e6, 6, 4},
		} {
			col, _ := colRow(g, Pt(tc.v, w.MinY))
			_, row := colRow(g, Pt(w.MinX, tc.v))
			if col != tc.col || row != tc.row {
				t.Errorf("%v: %v locates to col %d row %d, want %d, %d", w, tc.v, col, row, tc.col, tc.row)
			}
		}
		// A range wholly outside the world overlaps nothing, but spans the
		// boundary cells its points clamp into.
		out := Rect{MinX: w.MaxX + 1, MinY: w.MinY - 3, MaxX: w.MaxX + 2, MaxY: w.MinY - 2}
		if cr := g.CellsOverlapping(out); !cr.Empty() {
			t.Errorf("%v: CellsOverlapping(%v) = %+v, want empty", w, out, cr)
		}
		if cr := g.Span(out); cr != (CellRange{ColMin: 6, ColMax: 6, RowMin: 0, RowMax: 0}) {
			t.Errorf("%v: Span(%v) = %+v, want cell (6,0)", w, out, cr)
		}
	}
}

// TestGridEdgesTileTheWorld: the edges start and end on the world,
// increase strictly, and sit within one lattice step of min + i·step.
func TestGridEdgesTileTheWorld(t *testing.T) {
	for _, w := range exactnessWorlds {
		g := NewSquareGrid(w, 4096)
		cw := w.Width() / 64
		if g.ColEdge(0) != w.MinX || g.ColEdge(64) != w.MaxX || g.RowEdge(0) != w.MinY || g.RowEdge(64) != w.MaxY {
			t.Fatalf("%v: outer edges are not the world's", w)
		}
		for i := 1; i <= 64; i++ {
			e := g.ColEdge(i)
			if e <= g.ColEdge(i-1) {
				t.Fatalf("%v: edge %d = %v not above edge %d = %v", w, i, e, i-1, g.ColEdge(i-1))
			}
			if approx := w.MinX + float64(i)*cw; math.Abs(e-approx) > g.lat.step()+1e-12*w.Width() {
				t.Fatalf("%v: edge %d = %v, arithmetic %v", w, i, e, approx)
			}
		}
	}
}

// TestGridExtremeWorlds: worlds whose cell size underflows to zero or
// whose width overflows to +Inf (a decoded partition map may carry
// either) still build a grid whose edges never decrease, and every
// in-world point still lands inside its own cell.
func TestGridExtremeWorlds(t *testing.T) {
	for _, w := range []Rect{
		{MinX: 0, MinY: 0, MaxX: 5e-324, MaxY: 1e-320},
		{MinX: 1e-300, MinY: -1e-300, MaxX: 2e-300, MaxY: 1e-300},
		{MinX: -1e308, MinY: -1e308, MaxX: 1e308, MaxY: 1e308},
		{MinX: 1e15, MinY: -1, MaxX: 1e15 + 3, MaxY: 1},
	} {
		for _, n := range []int{1, 3, 64} {
			g := NewGrid(w, n, n)
			for i := 1; i <= n; i++ {
				if g.ColEdge(i) < g.ColEdge(i-1) || g.RowEdge(i) < g.RowEdge(i-1) {
					t.Fatalf("%v %dx%d: edges decrease at %d", w, n, n, i)
				}
			}
			for _, p := range []Point{
				{X: w.MinX, Y: w.MinY},
				{X: ulps(w.MaxX, -1), Y: ulps(w.MaxY, -1)},
				{X: w.MinX/2 + w.MaxX/2, Y: w.MinY/2 + w.MaxY/2},
			} {
				if !w.Contains(p) {
					continue
				}
				if idx := g.CellOf(p); !g.CellRect(idx).Contains(p) {
					t.Fatalf("%v %dx%d: %v outside its cell %d %v", w, n, n, p, idx, g.CellRect(idx))
				}
			}
		}
	}
}

func pos01(v float64) float64 {
	v = norm(v) / 1000
	if v < 0 {
		v = -v
	}
	return v
}

// sink keeps benchmark results live so the compiler cannot discard the
// work being timed.
var sink int

func BenchmarkCellOf(b *testing.B) {
	g := NewSquareGrid(UnitSquare, 4096)
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1024)
	for i := range pts {
		pts[i] = Pt(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += g.CellOf(pts[i&1023])
	}
	sink = s
}

// BenchmarkCellOfL locates lattice points, as the window and RSH locate
// what they store: integer arithmetic only.
func BenchmarkCellOfL(b *testing.B) {
	g := NewSquareGrid(UnitSquare, 4096)
	rng := rand.New(rand.NewSource(1))
	pts := make([]LPoint, 1024)
	for i := range pts {
		pts[i] = g.Lattice().Snap(Pt(rng.Float64(), rng.Float64()))
	}
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += g.CellOfL(pts[i&1023])
	}
	sink = s
}

func BenchmarkCellsOverlapping(b *testing.B) {
	g := NewSquareGrid(UnitSquare, 4096)
	rng := rand.New(rand.NewSource(1))
	qs := make([]Rect, 1024)
	for i := range qs {
		qs[i] = CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.1, 0.1)
	}
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += g.CellsOverlapping(qs[i&1023]).Count()
	}
	sink = s
}

func BenchmarkNewGrid4096(b *testing.B) {
	conus := Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
	for i := 0; i < b.N; i++ {
		sink += NewSquareGrid(conus, 4096).Cols
	}
}
