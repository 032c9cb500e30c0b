package asptree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/kmv"
	"github.com/spatiotext/latest/internal/persist"
)

func newTestTree(cfg Config) *Tree { return New(geo.UnitSquare, cfg) }

func TestInsertCountsExactlyOnce(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 10})
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), nil)
	}
	if tr.Live() != n {
		t.Fatalf("Live = %d, want %d", tr.Live(), n)
	}
	// The whole world must estimate the exact total regardless of splits.
	got := tr.EstimateRange(geo.UnitSquare)
	if math.Abs(got-n) > 1e-6 {
		t.Fatalf("EstimateRange(world) = %v, want %d", got, n)
	}
	if tr.NodeCount() <= 1 {
		t.Error("tree should have split under threshold 10")
	}
}

func TestSplitRespectsMaxNodes(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 1, MaxNodes: 9})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), nil)
	}
	if tr.NodeCount() > 9 {
		t.Fatalf("NodeCount = %d exceeds MaxNodes 9", tr.NodeCount())
	}
}

func TestSplitRespectsMaxDepth(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 1, MaxDepth: 3, MaxNodes: 1 << 20})
	// Hammer one point so only one path can deepen.
	for i := 0; i < 1000; i++ {
		tr.Insert(geo.Pt(0.1, 0.1), nil)
	}
	if d := tr.Depth(); d > 3 {
		t.Fatalf("Depth = %d exceeds MaxDepth 3", d)
	}
}

func TestEstimateRangeUniformData(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 64})
	rng := rand.New(rand.NewSource(3))
	const n = 40000
	for i := 0; i < n; i++ {
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), nil)
	}
	// A quarter of uniform space should hold ~a quarter of the points.
	got := tr.EstimateRange(geo.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5})
	if rel := math.Abs(got-n/4) / (n / 4); rel > 0.1 {
		t.Errorf("quarter estimate %v, want ~%d (rel err %.3f)", got, n/4, rel)
	}
	// Out-of-world range estimates zero.
	if got := tr.EstimateRange(geo.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}); got != 0 {
		t.Errorf("out-of-world estimate = %v", got)
	}
}

func TestEstimateAdaptsToSkew(t *testing.T) {
	// Clustered data: adaptivity should give a much better estimate for a
	// query on the dense cluster than a single uniform cell would.
	tr := newTestTree(Config{SplitThreshold: 32, MaxNodes: 1 << 14})
	rng := rand.New(rand.NewSource(4))
	const n = 30000
	for i := 0; i < n; i++ {
		// 90% in a tight cluster, 10% uniform noise.
		if rng.Float64() < 0.9 {
			tr.Insert(geo.Pt(0.7+rng.NormFloat64()*0.01, 0.7+rng.NormFloat64()*0.01), nil)
		} else {
			tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), nil)
		}
	}
	cluster := geo.CenteredRect(geo.Pt(0.7, 0.7), 0.08, 0.08)
	got := tr.EstimateRange(cluster)
	// Truth is ~0.9*n (cluster ±4σ) + tiny uniform part.
	want := 0.9 * float64(n)
	if rel := math.Abs(got-want) / want; rel > 0.15 {
		t.Errorf("cluster estimate %v, want ~%v (rel %.3f)", got, want, rel)
	}
	// Far empty area estimates near zero.
	empty := geo.CenteredRect(geo.Pt(0.2, 0.2), 0.05, 0.05)
	if got := tr.EstimateRange(empty); got > 0.02*float64(n) {
		t.Errorf("empty-area estimate too high: %v", got)
	}
}

func TestKeywordEstimates(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 256, KeywordBuckets: 64})
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	for i := 0; i < n; i++ {
		kws := []string{"common"}
		if i%10 == 0 {
			kws = append(kws, "rare")
		}
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), kws)
	}
	// "common" appears on every object.
	got := tr.EstimateKeywords([]string{"common"})
	if rel := math.Abs(got-n) / n; rel > 0.15 {
		t.Errorf("common keyword estimate %v, want ~%d", got, n)
	}
	// "rare" appears on 10%: collisions may inflate, so allow headroom
	// above but require at least the true frequency.
	got = tr.EstimateKeywords([]string{"rare"})
	if got < 0.08*n || got > 0.35*n {
		t.Errorf("rare keyword estimate %v, want ~%d", got, n/10)
	}
	// Unknown keyword may only pick up collision mass.
	got = tr.EstimateKeywords([]string{"nonexistent-kw-xyz"})
	if got > 0.3*n {
		t.Errorf("unknown keyword estimate too high: %v", got)
	}
}

func TestHybridEstimateUsesLocalCorrelation(t *testing.T) {
	// Keyword "fire" only occurs in the north-east; a south-west hybrid
	// query should estimate near zero even though "fire" is common overall.
	tr := newTestTree(Config{SplitThreshold: 64, MaxNodes: 1 << 14})
	rng := rand.New(rand.NewSource(6))
	const n = 20000
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64(), rng.Float64())
		kws := []string{"base"}
		if p.X > 0.5 && p.Y > 0.5 {
			kws = append(kws, "fire")
		}
		tr.Insert(p, kws)
	}
	sw := geo.Rect{MinX: 0, MinY: 0, MaxX: 0.4, MaxY: 0.4}
	ne := geo.Rect{MinX: 0.6, MinY: 0.6, MaxX: 1, MaxY: 1}
	swEst := tr.EstimateRangeKeywords(sw, []string{"fire"})
	neEst := tr.EstimateRangeKeywords(ne, []string{"fire"})
	if neEst < 5*math.Max(swEst, 1) {
		t.Errorf("local correlation lost: sw=%v ne=%v", swEst, neEst)
	}
	// NE truth: all ~0.16*n objects there carry "fire".
	want := 0.16 * float64(n)
	if rel := math.Abs(neEst-want) / want; rel > 0.3 {
		t.Errorf("ne estimate %v, want ~%v", neEst, want)
	}
}

func TestAdvanceSliceExpiresCounts(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 100, Slices: 4})
	for i := 0; i < 1000; i++ {
		tr.Insert(geo.Pt(0.5, 0.5), []string{"k"})
	}
	if tr.Live() != 1000 {
		t.Fatalf("Live = %d", tr.Live())
	}
	// Counts live for Slices-1 more advances, then expire.
	for i := 0; i < 3; i++ {
		tr.AdvanceSlice()
		if tr.Live() != 1000 {
			t.Fatalf("Live after %d advances = %d, want 1000", i+1, tr.Live())
		}
	}
	tr.AdvanceSlice()
	if tr.Live() != 0 {
		t.Fatalf("Live after expiry = %d, want 0", tr.Live())
	}
	if got := tr.EstimateRange(geo.UnitSquare); got != 0 {
		t.Fatalf("estimate after expiry = %v", got)
	}
	if got := tr.EstimateKeywords([]string{"k"}); got != 0 {
		t.Fatalf("keyword estimate after expiry = %v", got)
	}
}

func TestCollapseReclaimsNodes(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 8, Slices: 2, MaxNodes: 1 << 14})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), nil)
	}
	grown := tr.NodeCount()
	if grown < 100 {
		t.Fatalf("tree did not grow: %d nodes", grown)
	}
	tr.AdvanceSlice()
	tr.AdvanceSlice() // everything expired
	if tr.Live() != 0 {
		t.Fatalf("Live = %d", tr.Live())
	}
	if tr.NodeCount() != 1 {
		t.Fatalf("collapse left %d nodes, want 1", tr.NodeCount())
	}
	// The tree keeps working after a full collapse.
	tr.Insert(geo.Pt(0.5, 0.5), []string{"x"})
	if tr.Live() != 1 {
		t.Fatalf("post-collapse insert lost: Live = %d", tr.Live())
	}
}

func TestSlidingWindowMatchesSteadyState(t *testing.T) {
	// Continuous arrival with periodic advances: live count must track
	// exactly the inserts of the last `Slices` slices.
	tr := newTestTree(Config{SplitThreshold: 50, Slices: 5})
	perSlice := 200
	for s := 0; s < 20; s++ {
		for i := 0; i < perSlice; i++ {
			tr.Insert(geo.Pt(rand.New(rand.NewSource(int64(s*1000+i))).Float64(), 0.5), nil)
		}
		if s >= 4 {
			if tr.Live() != perSlice*5 {
				t.Fatalf("slice %d: Live = %d, want %d", s, tr.Live(), perSlice*5)
			}
		}
		tr.AdvanceSlice()
	}
}

func TestResetAndMemory(t *testing.T) {
	tr := newTestTree(Config{SplitThreshold: 4})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), []string{fmt.Sprintf("k%d", i%50)})
	}
	memGrown := tr.MemoryBytes()
	tr.Reset()
	if tr.Live() != 0 || tr.NodeCount() != 1 {
		t.Fatalf("Reset incomplete: live=%d nodes=%d", tr.Live(), tr.NodeCount())
	}
	if tr.MemoryBytes() >= memGrown {
		t.Errorf("memory did not shrink after Reset: %d >= %d", tr.MemoryBytes(), memGrown)
	}
	if tr.DistinctKeywords() != 0 {
		t.Errorf("synopsis not reset: %v", tr.DistinctKeywords())
	}
}

func TestDistinctKeywords(t *testing.T) {
	tr := newTestTree(Config{})
	for i := 0; i < 500; i++ {
		tr.Insert(geo.Pt(0.5, 0.5), []string{fmt.Sprintf("kw%d", i%100)})
	}
	got := tr.DistinctKeywords()
	if got != 100 { // below KMV k: exact
		t.Errorf("DistinctKeywords = %v, want 100", got)
	}
}

func TestInvalidWorldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(geo.Rect{}, Config{})
}

// TestTreeDifferential drives Tree beside refTree, the pointer tree it
// replaced, through inserts at a moving hot spot, slice advances that
// collapse quartets, splits that reuse their ids, round trips through the
// image and resets, and requires the two to agree to the bit at every step.
// The second case subdivides below floating-point resolution, where empty
// cells make EstimateKeywords skip subtrees.
func TestTreeDifferential(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		hot    geo.Point
		spread float64
	}{
		{"capped", Config{SplitThreshold: 6, MaxNodes: 301, Slices: 4, KeywordBuckets: 16}, geo.Pt(0.3, 0.7), 0.08},
		// A point on the world's max corner lands, once cells are narrower
		// than a float's resolution at 1, in the empty upper halves.
		{"below-resolution", Config{SplitThreshold: 1, MaxDepth: 64, MaxNodes: 1 << 12, Slices: 3, KeywordBuckets: 8}, geo.Pt(1, 1), 0},
	}
	vocab := []string{"fire", "flood", "kw0", "kw1", "kw2", "kw3", "kw4", "kw5"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			tr, ref := newTestTree(tc.cfg), newRefTree(geo.UnitSquare, tc.cfg)
			hot := tc.hot
			reused, collapsed, degenerate := 0, 0, false
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(20); {
				case op < 12:
					freeBefore, nodesBefore := len(tr.free), tr.NodeCount()
					for i := rng.Intn(40); i >= 0; i-- {
						p := hot
						if tc.spread > 0 {
							p = geo.UnitSquare.Clamp(geo.Pt(hot.X+rng.NormFloat64()*tc.spread, hot.Y+rng.NormFloat64()*tc.spread))
						}
						k := rng.Intn(len(vocab) - 2)
						kws := vocab[k : k+rng.Intn(3)]
						tr.Insert(p, kws)
						ref.Insert(p, kws)
					}
					if len(tr.free) < freeBefore && tr.NodeCount() > nodesBefore {
						reused++
					}
				case op < 16:
					nodesBefore := tr.NodeCount()
					tr.AdvanceSlice()
					ref.AdvanceSlice()
					if tr.NodeCount() < nodesBefore {
						collapsed++
					}
					if tc.spread > 0 && rng.Intn(3) == 0 {
						hot = geo.Pt(rng.Float64(), rng.Float64())
					}
				case op < 19:
					var e persist.Enc
					tr.SaveState(&e)
					loaded := newTestTree(tc.cfg)
					if err := loaded.LoadState(persist.NewDec(e.Data())); err != nil {
						t.Fatalf("step %d: LoadState: %v", step, err)
					}
					tr = loaded
				default:
					tr.Reset()
					ref.Reset()
				}
				degenerate = degenerate || tr.degenerate
				assertTreesAgree(t, step, tr, ref, vocab)
			}
			if tc.spread > 0 && (collapsed == 0 || reused == 0) {
				t.Errorf("collapses %d, splits reusing ids %d: both paths must run", collapsed, reused)
			}
			if tc.spread == 0 && !degenerate {
				t.Error("no cell fell below floating-point resolution")
			}
		})
	}
}

func assertTreesAgree(t *testing.T, step int, tr *Tree, ref *refTree, vocab []string) {
	t.Helper()
	if tr.NodeCount() != ref.NodeCount() || tr.Live() != ref.Live() || tr.Depth() != ref.Depth() {
		t.Fatalf("step %d: nodes/live/depth %d/%d/%d, reference %d/%d/%d", step,
			tr.NodeCount(), tr.Live(), tr.Depth(), ref.NodeCount(), ref.Live(), ref.Depth())
	}
	same := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: %s = %v, reference %v", step, what, got, want)
		}
	}
	ranges := []geo.Rect{
		geo.UnitSquare,
		{MinX: 0.2, MinY: 0.55, MaxX: 0.45, MaxY: 0.9},
		geo.CenteredRect(geo.Pt(0.3, 0.7), 0.01, 0.02),
		{MinX: 0.5, MinY: 0, MaxX: 1, MaxY: 0.5},
	}
	kwSets := [][]string{nil, {}, {"fire"}, {"kw3", "flood"}, {"absent"}}
	for _, kws := range kwSets {
		same(fmt.Sprintf("EstimateKeywords(%q)", kws), tr.EstimateKeywords(kws), ref.EstimateKeywords(kws))
		for _, r := range ranges {
			same(fmt.Sprintf("EstimateRangeKeywords(%v, %q)", r, kws),
				tr.EstimateRangeKeywords(r, kws), ref.EstimateRangeKeywords(r, kws))
		}
	}
	for _, r := range ranges {
		same(fmt.Sprintf("EstimateRange(%v)", r), tr.EstimateRange(r), ref.EstimateRange(r))
	}
	var got, want persist.Enc
	tr.SaveState(&got)
	ref.SaveState(&want)
	if !bytes.Equal(got.Data(), want.Data()) {
		t.Fatalf("step %d: image differs from the reference's (%d vs %d bytes)", step, got.Len(), want.Len())
	}
}

// rootImage is the image of a tree that is a lone root with the given
// rings, its synopsis empty.
func rootImage(cfg Config, slices []uint32, live uint32, kw, kwLive []uint32) []byte {
	var e persist.Enc
	e.Int(1)
	e.Int(0)
	e.U32(live)
	e.Bool(false)
	e.U32s(slices)
	e.U32(live)
	e.U32s(kw)
	e.U32s(kwLive)
	kmv.NewSliced(synopsisK, cfg.withDefaults().Slices).SaveState(&e)
	return e.Data()
}

// TestLoadStateRejectsInconsistentCaches: an image whose live count or
// bucket sum disagrees with the ring it caches is malformed, and so is one
// with keyword counts in a slice that holds no point, though its sums
// agree. A node with no live count may collapse and hand its id to a new
// node, and a keyword log entry left naming it would then be retired from
// the newcomer.
func TestLoadStateRejectsInconsistentCaches(t *testing.T) {
	cfg := Config{Slices: 2, KeywordBuckets: 2}
	tr := newTestTree(cfg)
	if err := tr.LoadState(persist.NewDec(rootImage(cfg, []uint32{2, 1}, 3, []uint32{1, 0, 2, 1}, []uint32{1, 3}))); err != nil {
		t.Fatalf("consistent image: %v", err)
	}
	for name, bad := range map[string][]byte{
		"live":        rootImage(cfg, []uint32{2, 1}, 4, []uint32{1, 0, 2, 1}, []uint32{1, 3}),
		"bucket":      rootImage(cfg, []uint32{2, 1}, 3, []uint32{1, 0, 2, 1}, []uint32{1, 2}),
		"empty slice": rootImage(cfg, []uint32{0, 3}, 3, []uint32{1, 0, 0, 2}, []uint32{1, 2}),
	} {
		if err := tr.LoadState(persist.NewDec(bad)); persist.CodeOf(err) != persist.CodeMalformed {
			t.Errorf("%s: %v, want malformed", name, err)
		}
		if tr.Live() != 3 {
			t.Errorf("%s: a rejected image changed the tree (Live %d)", name, tr.Live())
		}
	}
}

// TestKeywordLogCounts: a log entry that counts one occurrence is one word
// and a run is two; a run longer than a count word holds splits, and each
// count comes back out of the log whole. An image whose cells count in the
// billions restores into a log of a few words, saves the same bytes, and
// retires to nothing.
func TestKeywordLogCounts(t *testing.T) {
	type entry struct{ cell, n uint32 }
	entries := func(log []uint32) []entry {
		var out []entry
		eachEntry(log, func(cell, n uint32) { out = append(out, entry{cell, n}) })
		return out
	}
	var log []uint32
	for _, cell := range []uint32{7, 7, 7, 3, 7, 9, 9} {
		log = logCell(log, cell)
	}
	log = logRun(log, 5, 1)
	log = logRun(log, 5, math.MaxUint32)
	full := logCell(logRun(nil, 4, kwRun-1), 4)
	for _, tc := range []struct {
		log  []uint32
		want []entry
	}{
		{log, []entry{{7, 3}, {3, 1}, {7, 1}, {9, 2}, {5, 1}, {5, kwRun - 1}, {5, kwRun - 1}, {5, 1}}},
		{full, []entry{{4, kwRun - 1}, {4, 1}}},
	} {
		if got := entries(tc.log); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("log %v holds %v, want %v", tc.log, got, tc.want)
		}
	}

	cfg := Config{Slices: 2, KeywordBuckets: 2}
	const big = 3_000_000_000
	image := rootImage(cfg, []uint32{big, 0}, big, []uint32{big, 0, big - 7, 0}, []uint32{big, big - 7})
	tr := newTestTree(cfg)
	if err := tr.LoadState(persist.NewDec(image)); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.kwLog[0]); n > 8 {
		t.Errorf("two counted cells restored into %d log words", n)
	}
	var e persist.Enc
	tr.SaveState(&e)
	if !bytes.Equal(e.Data(), image) {
		t.Error("the restored tree saves a different image")
	}
	tr.AdvanceSlice()
	tr.AdvanceSlice()
	if tr.Live() != 0 || tr.kwLive[0] != 0 || tr.kwLive[tr.stride] != 0 {
		t.Errorf("retired every slice, yet Live %d and bucket sums %d, %d remain", tr.Live(), tr.kwLive[0], tr.kwLive[tr.stride])
	}
}

// TestTreeHeapUnderPointerTree holds the tree's live heap, after a fill, a
// Reset and a refill, to under a third of the pointer tree's, which kept a
// keyword ring of every bucket and slice in every node: a column grown past
// what the nodes need, or a keyword log that kept what it retired, would
// show here. MemoryBytes reports that heap to within 15 %.
func TestTreeHeapUnderPointerTree(t *testing.T) {
	cfg := Config{SplitThreshold: 16, MaxNodes: 4096}
	fill := func(insert func(geo.Point, []string)) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40000; i++ {
			p := geo.UnitSquare.Clamp(geo.Pt(0.6+rng.NormFloat64()*0.15, 0.4+rng.NormFloat64()*0.15))
			insert(p, []string{fmt.Sprintf("kw%d", rng.Intn(200))})
		}
	}
	retained := func(build func() any) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(x)
		return after.HeapAlloc - before.HeapAlloc
	}
	var refNodes, nodes, reported int
	want := retained(func() any {
		ref := newRefTree(geo.UnitSquare, cfg)
		fill(ref.Insert)
		ref.Reset()
		fill(ref.Insert)
		refNodes = ref.NodeCount()
		return ref
	})
	got := retained(func() any {
		tr := newTestTree(cfg)
		fill(tr.Insert)
		tr.Reset()
		fill(tr.Insert)
		nodes, reported = tr.NodeCount(), tr.MemoryBytes()
		return tr
	})
	if nodes != refNodes {
		t.Fatalf("NodeCount %d, reference %d", nodes, refNodes)
	}
	t.Logf("%d nodes: %d bytes live (MemoryBytes %d), pointer tree %d", nodes, got, reported, want)
	if 3*got > want {
		t.Errorf("live heap %d bytes, more than a third of the pointer tree's %d", got, want)
	}
	if ratio := float64(reported) / float64(got); ratio < 0.85 || ratio > 1.15 {
		t.Errorf("MemoryBytes %d, live heap %d (ratio %.2f)", reported, got, ratio)
	}
}

// TestInsertSteadyAllocatesNothing: once the columns and the keyword logs
// have grown to a stream's steady state, inserting allocates nothing — not
// in a split, which reuses a collapsed quartet's ids and gives a node no
// keyword ring, and not in a retire, after which a slice's log keeps its
// array for the slice's next turn. The stream is a hot spot that visits
// five places in turn, one per slice, so each visit splits cells that the
// last visit's expiry collapsed.
func TestInsertSteadyAllocatesNothing(t *testing.T) {
	const perSlice, spots = 2000, 5
	tr := newTestTree(Config{SplitThreshold: 16, MaxNodes: 1 << 12, Slices: 4, KeywordBuckets: 64})
	rng := rand.New(rand.NewSource(12))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("kw%d", i)
	}
	pts := make([][]geo.Point, spots)
	kws := make([][][]string, spots)
	for s := range pts {
		c := geo.Pt(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64())
		for i := 0; i < perSlice; i++ {
			pts[s] = append(pts[s], geo.UnitSquare.Clamp(geo.Pt(c.X+rng.NormFloat64()*0.03, c.Y+rng.NormFloat64()*0.03)))
			k := rng.Intn(len(vocab) - 2)
			kws[s] = append(kws[s], vocab[k:k+1+rng.Intn(2)])
		}
	}
	splits := 0
	cycle := func() {
		for s := range pts {
			before := tr.NodeCount()
			for i := range pts[s] {
				tr.Insert(pts[s][i], kws[s][i])
			}
			if tr.NodeCount() > before {
				splits++
			}
			tr.AdvanceSlice()
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	splits = 0
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Errorf("%v allocations per %d inserts", n, spots*perSlice)
	}
	if splits < 5*spots {
		t.Errorf("%d of %d measured slices split a node: the stream does not exercise splits", splits, 6*spots)
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	tr := newTestTree(Config{SplitThreshold: 256, MaxNodes: 1 << 14})
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 4096)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64(), rng.Float64())
	}
	kws := []string{"a", "b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(pts[i&4095], kws)
		if i%100_000 == 99_999 {
			tr.AdvanceSlice()
		}
	}
}

func BenchmarkTreeEstimate(b *testing.B) {
	tr := newTestTree(Config{SplitThreshold: 128, MaxNodes: 1 << 14})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), []string{"a"})
	}
	r := geo.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.EstimateRangeKeywords(r, []string{"a"})
	}
}
