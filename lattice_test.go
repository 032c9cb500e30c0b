package latest

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/geo"
)

// engineNode serves one in-process engine to a cluster router as a remote
// node would: feeds and queries go straight to the engine.
type engineNode struct {
	eng *ShardedSystem
	m   *cluster.Map
}

func (n engineNode) FeedBatch(_ context.Context, objs []Object) (uint32, error) {
	n.eng.FeedBatch(objs)
	return uint32(len(objs)), nil
}

func (n engineNode) Estimate(_ context.Context, q Query) (float64, error) {
	est, _ := n.eng.EstimateAndExecute(&q)
	return est, nil
}

func (n engineNode) QueryBatch(_ context.Context, qs []Query) ([]float64, []int, error) {
	ests, acts := n.eng.EstimateAndExecuteBatch(qs)
	return ests, acts, nil
}

func (n engineNode) Ping(context.Context) error               { return nil }
func (n engineNode) FetchMap(context.Context) ([]byte, error) { return n.m.Encode(), nil }
func (n engineNode) Close() error                             { return nil }

// newTerritoryCluster builds one engine per node of m over its territory,
// as latestd -cluster-map does, and puts them behind a router.
func newTerritoryCluster(t *testing.T, m *cluster.Map) *cluster.Router {
	t.Helper()
	nodes := map[string]engineNode{}
	for i, addr := range m.Nodes {
		eng := MustNewSharded(m.Territory(i), time.Hour, WithSeed(1), WithShards(1))
		t.Cleanup(eng.Close)
		nodes[addr] = engineNode{eng: eng, m: m}
	}
	r := cluster.NewRouter(m, func(addr string) cluster.Node { return nodes[addr] }, cluster.Options{})
	t.Cleanup(func() { r.Close() })
	return r
}

// countsAgree feeds objs to every engine and the cluster and asks each
// the same queries: every exact count must equal the control's.
func countsAgree(t *testing.T, control *ShardedSystem, others map[string]*ShardedSystem, r *cluster.Router, objs []Object, qs []Query) {
	t.Helper()
	control.FeedBatch(objs)
	for _, eng := range others {
		eng.FeedBatch(objs)
	}
	if _, err := r.FeedBatch(context.Background(), objs); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		q := qs[i]
		_, want := control.EstimateAndExecute(&q)
		for name, eng := range others {
			if _, got := eng.EstimateAndExecute(&q); got != want {
				t.Errorf("%s, %v: counts %d, one engine %d", name, q.Range, got, want)
			}
		}
		_, acts, err := r.QueryBatch(context.Background(), []Query{q})
		if err != nil {
			t.Fatal(err)
		}
		if acts[0] != want {
			t.Errorf("cluster, %v: counts %d, one engine %d", q.Range, acts[0], want)
		}
	}
}

// TestOutOfWorldRangeAgreesAcrossLayouts: objects beyond the world are
// stored where they clamp, and a range wholly outside the world is
// clamped by the same rule, so it counts them — on one engine, on four
// shards and on a three-node cluster alike. The range past the max-x edge
// answered 0 on the cluster before the rule, with one object there.
func TestOutOfWorldRangeAgreesAcrossLayouts(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	m, err := cluster.Uniform(world, 9, 3, []string{"n0", "n1", "n2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	control := MustNewSharded(world, time.Hour, WithSeed(1), WithShards(1))
	defer control.Close()
	four := MustNewSharded(world, time.Hour, WithSeed(1), WithShards(4))
	defer four.Close()
	objs := []Object{
		{ID: 1, Loc: Pt(5, 0.5), Keywords: []string{"a"}, Timestamp: 1},
		{ID: 2, Loc: Pt(-3, 2), Keywords: []string{"a"}, Timestamp: 1},
		{ID: 3, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 1},
		{ID: 4, Loc: Pt(0.2, -7), Keywords: []string{"b"}, Timestamp: 1},
	}
	var qs []Query
	for _, r := range []Rect{
		{MinX: 3, MinY: 0.4, MaxX: 4, MaxY: 0.6},  // past max x, over object 1
		{MinX: -9, MinY: 1.5, MaxX: -2, MaxY: 9},  // past the min-x, max-y corner
		{MinX: -1, MinY: -9, MaxX: 2, MaxY: -8},   // below the world, every column
		{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},      // past the empty corner
		{MinX: 0.4, MinY: -1, MaxX: 0.6, MaxY: 2}, // through the world and out
	} {
		qs = append(qs, SpatialQuery(r, 1), HybridQuery(r, []string{"a"}, 1))
	}
	countsAgree(t, control, map[string]*ShardedSystem{"4 shards": four}, newTerritoryCluster(t, m), objs, qs)
	q := SpatialQuery(Rect{MinX: 3, MinY: 0.4, MaxX: 4, MaxY: 0.6}, 1)
	if _, actual := control.EstimateAndExecute(&q); actual != 1 {
		t.Errorf("range past the max-x edge counts %d, want the 1 object clamped there", actual)
	}
}

// TestClusterEdgeOracle: three engines over the territories of a 9×3 map,
// built as latestd -cluster-map builds them, behind the router, and four
// shards, count exactly what one engine over the whole world counts. The
// objects sit exactly on every map cell edge, one ulp either side of
// each, a fraction of a world lattice step either side (where a
// territory's finer lattice splits the world's columns), and outside the
// world; the ranges are the whole world, each territory, ranges whose
// edges are drawn from the same coordinates, random ranges and ranges
// outside the world.
func TestClusterEdgeOracle(t *testing.T) {
	for _, world := range []Rect{
		{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50},
		{MinX: -74.3, MinY: 40.4, MaxX: -73.7, MaxY: 41.0},
		{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1},
	} {
		m, err := cluster.Uniform(world, 9, 3, []string{"n0", "n1", "n2"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := geo.NewGrid(world, 9, 3)
		lat := g.Lattice()
		step := lat.Unsnap(geo.LPoint{X: 1}).X - lat.Unsnap(geo.LPoint{}).X
		near := func(e float64) []float64 {
			return []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1)),
				e - 0.75*step, e - 0.25*step, e + 0.25*step, e + 0.75*step}
		}
		var xs, ys []float64
		for i := 0; i <= 9; i++ {
			xs = append(xs, near(g.ColEdge(i))...)
		}
		for i := 0; i <= 3; i++ {
			ys = append(ys, near(g.RowEdge(i))...)
		}
		xs = append(xs, world.MinX-world.Width(), world.MaxX+3*world.Width())
		ys = append(ys, world.MinY-2*world.Height(), world.MaxY+world.Height())
		var objs []Object
		for _, x := range xs {
			for _, y := range ys {
				objs = append(objs, Object{ID: uint64(len(objs)), Loc: Pt(x, y), Keywords: []string{"k"}, Timestamp: 1})
			}
		}
		rng := rand.New(rand.NewSource(46))
		pick := func(vs []float64) float64 { return vs[rng.Intn(len(vs))] }
		ranges := []Rect{world, m.Territory(0), m.Territory(1), m.Territory(2)}
		for i := 0; i < 40; i++ {
			a, b := pick(xs), pick(xs)
			c, d := pick(ys), pick(ys)
			ranges = append(ranges, geo.NewRect(Pt(a, c), Pt(b, d)))
			p := Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height())
			ranges = append(ranges, geo.CenteredRect(p, rng.Float64()*world.Width(), rng.Float64()*world.Height()))
		}
		ranges = append(ranges,
			Rect{MinX: world.MaxX + 1, MinY: world.MinY, MaxX: world.MaxX + 2, MaxY: world.MaxY},
			Rect{MinX: world.MinX - 5, MinY: world.MaxY + 1, MaxX: world.MaxX + 5, MaxY: world.MaxY + 2},
		)
		var qs []Query
		for _, r := range ranges {
			if !r.Empty() {
				qs = append(qs, SpatialQuery(r, 1))
			}
		}
		control := MustNewSharded(world, time.Hour, WithSeed(1), WithShards(1))
		four := MustNewSharded(world, time.Hour, WithSeed(1), WithShards(4))
		countsAgree(t, control, map[string]*ShardedSystem{"4 shards": four}, newTerritoryCluster(t, m), objs, qs)
		control.Close()
		four.Close()
	}
}

// TestDurableRecoversEdgePointsFromWAL: the WAL keeps float64 locations,
// as it did before the window stored lattice points, and replaying a tail
// snaps each one exactly as the live apply did. A four-shard engine takes
// a snapshot, then a tail of objects on every shard edge, an ulp either
// side of each and beyond the world; abandoned and recovered, it encodes
// the image of a twin that was never interrupted, byte for byte.
func TestDurableRecoversEdgePointsFromWAL(t *testing.T) {
	world := Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
	build := func() *ShardedSystem {
		eng := MustNewSharded(world, time.Hour, WithSeed(1), WithShards(4))
		t.Cleanup(eng.Close)
		return eng
	}
	rng := rand.New(rand.NewSource(46))
	var head, tail []Object
	for i := 0; i < 300; i++ {
		head = append(head, Object{ID: uint64(i), Loc: Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height()),
			Keywords: []string{"h"}, Timestamp: int64(i)})
	}
	g := geo.NewGrid(world, 2, 2)
	var xs, ys []float64
	for i := 0; i <= 2; i++ {
		for _, e := range [][2]float64{{g.ColEdge(i), 0}, {g.RowEdge(i), 1}} {
			vs := []float64{math.Nextafter(e[0], math.Inf(-1)), e[0], math.Nextafter(e[0], math.Inf(1))}
			if e[1] == 0 {
				xs = append(xs, vs...)
			} else {
				ys = append(ys, vs...)
			}
		}
	}
	xs, ys = append(xs, world.MaxX+7), append(ys, world.MinY-3)
	for _, x := range xs {
		for _, y := range ys {
			tail = append(tail, Object{ID: uint64(300 + len(tail)), Loc: Pt(x, y), Keywords: []string{"e"}, Timestamp: 300})
		}
	}

	st := NewMemStore()
	dur, err := NewDurable(build(), st, DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	dur.FeedBatch(head)
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	dur.FeedBatch(tail) // in the WAL only; the engine is then abandoned

	recovered := build()
	if _, err := NewDurable(recovered, st, DurableConfig{WALSyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	twin := build()
	twin.FeedBatch(head)
	twin.FeedBatch(tail)
	a, err := recovered.encodeImage(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.encodeImage(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("recovered engine encodes %d bytes that differ from its uninterrupted twin's %d", len(a), len(b))
	}
	q := SpatialQuery(world, 300)
	if _, n := recovered.EstimateAndExecute(&q); n != len(head)+len(tail) {
		t.Errorf("recovered engine counts %d objects over the world, want %d", n, len(head)+len(tail))
	}
}
