package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
)

var testNodes = []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"}

func mustUniform(t *testing.T, world geo.Rect, cols, rows int, nodes []string, epoch uint64) *Map {
	t.Helper()
	m, err := Uniform(world, cols, rows, nodes, epoch)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return m
}

func TestUniformStripes(t *testing.T) {
	m := mustUniform(t, geo.UnitSquare, 6, 2, testNodes, 1)
	// 6 columns over 3 nodes: columns 0-1 -> node 0, 2-3 -> node 1, 4-5 -> node 2.
	for row := 0; row < 2; row++ {
		for col := 0; col < 6; col++ {
			want := int32(col / 2)
			if got := m.Owners[row*6+col]; got != want {
				t.Errorf("cell (%d,%d) owner %d, want %d", col, row, got, want)
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		m    Map
	}{
		{"zero grid", Map{World: geo.UnitSquare, Nodes: testNodes}},
		{"huge grid", Map{World: geo.UnitSquare, Cols: 4096, Rows: 4096, Nodes: testNodes}},
		{"empty world", Map{Cols: 2, Rows: 2, Nodes: testNodes}},
		{"no nodes", Map{World: geo.UnitSquare, Cols: 1, Rows: 1, Owners: []int32{0}}},
		{"owner count", Map{World: geo.UnitSquare, Cols: 2, Rows: 2, Nodes: testNodes, Owners: []int32{0}}},
		{"owner range", Map{World: geo.UnitSquare, Cols: 1, Rows: 1, Nodes: testNodes, Owners: []int32{3}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid map", tc.name)
		}
	}
}

func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	m := mustUniform(t, geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, 8, 4, testNodes, 42)
	enc := m.Encode()
	got, err := DecodeMap(enc)
	if err != nil {
		t.Fatalf("DecodeMap: %v", err)
	}
	if got.Epoch != m.Epoch || got.World != m.World || got.Cols != m.Cols || got.Rows != m.Rows {
		t.Fatalf("decoded header mismatch: %+v vs %+v", got, m)
	}
	if !reflect.DeepEqual(got.Owners, m.Owners) || !reflect.DeepEqual(got.Nodes, m.Nodes) {
		t.Fatalf("decoded body mismatch")
	}
	if !reflect.DeepEqual(got.grid, m.grid) {
		t.Fatalf("decoded map grid differs from original: routing would diverge")
	}
}

// TestMapDecodesEarlierBytes: testdata/conus_9x3.lmap is a 9×3 stripe map
// over the dataset world (the shape the cluster oracle and smoke use), as
// an earlier build encoded it. Deployed map files must keep decoding and
// re-encode to the same bytes.
func TestMapDecodesEarlierBytes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "conus_9x3.lmap"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMap(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Encode(), raw) {
		t.Fatal("re-encoded map differs from the stored bytes")
	}
	want := mustUniform(t, geo.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}, 9, 3,
		[]string{"127.0.0.1:17707", "127.0.0.1:17717", "127.0.0.1:17727"}, 1)
	if !bytes.Equal(want.Encode(), raw) {
		t.Fatal("Uniform no longer encodes the stored bytes")
	}
}

func TestMapDecodeRejectsCorruption(t *testing.T) {
	enc := mustUniform(t, geo.UnitSquare, 4, 4, testNodes, 7).Encode()

	for _, n := range []int{0, 3, 9} {
		if _, err := DecodeMap(enc[:n]); err == nil {
			t.Errorf("DecodeMap accepted %d-byte truncation", n)
		}
	}
	for _, i := range []int{0, 5, 12, len(enc) - 5, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeMap(bad); err == nil {
			t.Errorf("DecodeMap accepted flipped bit at offset %d", i)
		}
	}
}

func TestLocateHalfOpenBoundaries(t *testing.T) {
	m := mustUniform(t, geo.UnitSquare, 4, 4, testNodes, 1)
	col := func(x float64) int { return m.grid.CellOf(geo.Pt(x, 0.5)) % m.Cols }
	// A point exactly on an interior boundary belongs to the cell on its
	// right (min-closed), matching geo.Rect semantics.
	x2 := m.grid.ColEdge(2)
	if got := col(x2); got != 2 {
		t.Errorf("locate(boundary x2) = %d, want 2", got)
	}
	if got := col(math.Nextafter(x2, 0)); got != 1 {
		t.Errorf("locate(just below x2) = %d, want 1", got)
	}
	// Out-of-range values clamp onto the boundary cells.
	if got := col(-5); got != 0 {
		t.Errorf("locate(-5) = %d, want 0", got)
	}
	if got := col(5); got != 3 {
		t.Errorf("locate(5) = %d, want 3", got)
	}
	// The world max edge itself clamps into the last cell.
	if got := col(1); got != 3 {
		t.Errorf("locate(max edge) = %d, want 3", got)
	}
}

func TestPlanQueryForward(t *testing.T) {
	m := mustUniform(t, geo.UnitSquare, 6, 2, testNodes, 1)
	cases := []struct {
		name  string
		r     geo.Rect
		owner int
	}{
		{"inside one stripe", geo.Rect{MinX: 0.05, MinY: 0.1, MaxX: 0.3, MaxY: 0.9}, 0},
		{"exact stripe", m.Territory(1), 1}, // its edges are lattice lines near 1/3 and 2/3
		{"out of world left", geo.Rect{MinX: -3, MinY: 0.2, MaxX: -2, MaxY: 0.4}, 0},
		{"out of world right", geo.Rect{MinX: 2, MinY: 0.2, MaxX: 3, MaxY: 0.4}, 2},
		{"beyond world edge", geo.Rect{MinX: 0.9, MinY: 0.5, MaxX: 4, MaxY: 5}, 2},
	}
	for _, tc := range cases {
		owner, parts := m.PlanQuery(tc.r)
		if parts != nil {
			t.Errorf("%s: expected forward, got %d parts", tc.name, len(parts))
			continue
		}
		if owner != tc.owner {
			t.Errorf("%s: owner %d, want %d", tc.name, owner, tc.owner)
		}
		if !m.OwnsQuery(tc.owner, tc.r) {
			t.Errorf("%s: OwnsQuery(%d) = false for a forwarded rect", tc.name, tc.owner)
		}
	}
}

func TestPlanQueryScatterStripeMap(t *testing.T) {
	m := mustUniform(t, geo.UnitSquare, 6, 2, testNodes, 1)
	r := geo.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}
	owner, parts := m.PlanQuery(r)
	if owner != -1 || len(parts) != 3 {
		t.Fatalf("PlanQuery = (%d, %d parts), want (-1, 3 parts)", owner, len(parts))
	}
	// Vertical merge must give one rect per node on a stripe map.
	for _, p := range parts {
		if len(p.Rects) != 1 {
			t.Fatalf("node %d got %d rects, want 1 (vertical merge)", p.Node, len(p.Rects))
		}
		if !m.OwnsQuery(p.Node, p.Rects[0]) {
			t.Errorf("node %d does not own its own clip %v", p.Node, p.Rects[0])
		}
	}
}

func TestPlanQuerySliverOnBoundary(t *testing.T) {
	m := mustUniform(t, geo.UnitSquare, 3, 1, testNodes, 1)
	// MaxX exactly on the node-0/node-1 boundary: the node-1 share is a
	// zero-area sliver, so the whole rect forwards to node 0.
	r := geo.Rect{MinX: 0.1, MinY: 0.2, MaxX: m.grid.ColEdge(1), MaxY: 0.8}
	owner, parts := m.PlanQuery(r)
	if parts != nil || owner != 0 {
		t.Fatalf("PlanQuery = (%d, %v), want forward to 0", owner, parts)
	}
}

func TestPlanQueryOutOfWorldSpansStripes(t *testing.T) {
	m := mustUniform(t, geo.UnitSquare, 6, 2, testNodes, 1)
	// A rect entirely above the world spanning every column stripe: objects
	// inside it clamp onto top-row cells of *different* nodes, so the plan
	// must scatter across all three — forwarding to the min corner's owner
	// would lose the other stripes' clamped objects.
	r := geo.Rect{MinX: -1, MinY: 2, MaxX: 2, MaxY: 3}
	owner, parts := m.PlanQuery(r)
	if owner != -1 || len(parts) != 3 {
		t.Fatalf("PlanQuery = (%d, %d parts), want scatter to 3 nodes", owner, len(parts))
	}
	checkDisjointExact(t, m, r, parts)
}

func TestPlanQueryCheckerboardMerge(t *testing.T) {
	// Hand-assembled 4x4 checkerboard between two nodes: exercises run
	// splitting and vertical-merge candidate matching off the stripe path.
	m := &Map{
		Epoch: 1, World: geo.UnitSquare, Cols: 4, Rows: 4,
		Nodes: testNodes[:2],
	}
	m.Owners = make([]int32, 16)
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			m.Owners[row*4+col] = int32((row + col) % 2)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := geo.Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.99, MaxY: 0.99}
	_, parts := m.PlanQuery(r)
	checkDisjointExact(t, m, r, parts)
}

// checkDisjointExact asserts the clipping invariant directly: every point of
// the query rect lies in exactly one clip, and that clip belongs to the node
// that owns the point.
func checkDisjointExact(t *testing.T, m *Map, r geo.Rect, parts []NodeClips) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	samplePoints := boundaryBiasedPoints(rng, m, r, 400)
	for _, p := range samplePoints {
		hits, hitNode := 0, -1
		for _, part := range parts {
			for _, clip := range part.Rects {
				if clip.Contains(p) {
					hits++
					hitNode = part.Node
				}
			}
		}
		if !r.Contains(p) {
			if hits != 0 {
				t.Fatalf("point %v outside query hit %d clips", p, hits)
			}
			continue
		}
		if hits != 1 {
			t.Fatalf("point %v in query hit %d clips, want exactly 1", p, hits)
		}
		if own := m.OwnerOf(p); own != hitNode {
			t.Fatalf("point %v in clip of node %d but owned by node %d", p, hitNode, own)
		}
	}
}

// gridEdges returns a map's column and row edges.
func gridEdges(m *Map) (xs, ys []float64) {
	for i := 0; i <= m.Cols; i++ {
		xs = append(xs, m.grid.ColEdge(i))
	}
	for i := 0; i <= m.Rows; i++ {
		ys = append(ys, m.grid.RowEdge(i))
	}
	return xs, ys
}

// boundaryBiasedPoints samples points around r, snapping coordinates onto
// partition boundaries often — the 1-ulp disagreements live there.
func boundaryBiasedPoints(rng *rand.Rand, m *Map, r geo.Rect, n int) []geo.Point {
	xs, ys := gridEdges(m)
	coord := func(bs []float64, lo, hi float64) float64 {
		switch rng.Intn(4) {
		case 0:
			return bs[rng.Intn(len(bs))] // exactly on a boundary
		case 1:
			b := bs[rng.Intn(len(bs))]
			return math.Nextafter(b, lo) // one ulp off a boundary
		default:
			return lo + rng.Float64()*(hi-lo)
		}
	}
	pts := make([]geo.Point, 0, n)
	pad := 0.1 * (r.MaxX - r.MinX)
	for i := 0; i < n; i++ {
		pts = append(pts, geo.Pt(
			coord(xs, r.MinX-pad, r.MaxX+pad),
			coord(ys, r.MinY-pad, r.MaxY+pad),
		))
	}
	return pts
}

func TestPlanQueryPropertyRandom(t *testing.T) {
	world := geo.Rect{MinX: -10, MinY: -5, MaxX: 10, MaxY: 5}
	m := mustUniform(t, world, 9, 3, testNodes, 1)
	rng := rand.New(rand.NewSource(7))
	xs, ys := gridEdges(m)
	for trial := 0; trial < 300; trial++ {
		// Random rect, sometimes snapped to boundaries, sometimes poking
		// past the world edges.
		rc := func(bs []float64, lo, hi float64) float64 {
			if rng.Intn(3) == 0 {
				return bs[rng.Intn(len(bs))]
			}
			return lo + rng.Float64()*(hi-lo)
		}
		x1, x2 := rc(xs, -14, 14), rc(xs, -14, 14)
		y1, y2 := rc(ys, -8, 8), rc(ys, -8, 8)
		r := geo.NewRect(geo.Pt(x1, y1), geo.Pt(x2, y2))
		if r.Empty() {
			continue
		}
		owner, parts := m.PlanQuery(r)
		if parts == nil {
			// Forwarded: the owner must own every sampled in-rect point.
			for _, p := range boundaryBiasedPoints(rng, m, r, 40) {
				if r.Contains(p) && m.OwnerOf(p) != owner {
					t.Fatalf("trial %d: rect %v forwarded to %d but point %v owned by %d",
						trial, r, owner, p, m.OwnerOf(p))
				}
			}
			continue
		}
		checkDisjointExact(t, m, r, parts)
	}
}

// TestTerritory: a node's territory is the bounding rectangle of its cells
// — its stripe on a Uniform map, whose interior edges are the grid's — and
// empty for a node without cells.
func TestTerritory(t *testing.T) {
	world := geo.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
	m := mustUniform(t, world, 9, 3, testNodes, 1)
	for node := range testNodes {
		want := geo.Rect{MinX: m.grid.ColEdge(3 * node), MinY: world.MinY, MaxX: m.grid.ColEdge(3*node + 3), MaxY: world.MaxY}
		if got := m.Territory(node); got != want {
			t.Errorf("Territory(%d) = %v, want %v", node, got, want)
		}
	}
	if got := m.Territory(0).MinX; got != world.MinX {
		t.Errorf("first stripe starts at %v, want the world's %v", got, world.MinX)
	}
	// Every point a node owns lies in its territory.
	rng := rand.New(rand.NewSource(3))
	for _, p := range boundaryBiasedPoints(rng, m, world, 2000) {
		if world.Contains(p) && !m.Territory(m.OwnerOf(p)).Contains(p) {
			t.Fatalf("%v owned by node %d lies outside its territory %v", p, m.OwnerOf(p), m.Territory(m.OwnerOf(p)))
		}
	}
	four := mustUniform(t, world, 2, 1, []string{"a", "b", "c", "d"}, 1)
	if got := four.Territory(1); !got.Empty() {
		t.Errorf("a node without cells has territory %v, want empty", got)
	}
}
