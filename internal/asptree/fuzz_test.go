package asptree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
)

// fuzzConfig is small enough for a fuzzed image to name every shape: a few
// slices and buckets, and a node cap an image can reach.
var fuzzConfig = Config{SplitThreshold: 6, MaxNodes: 301, Slices: 4, KeywordBuckets: 16}

// trainFuzzTree inserts n points around a moving hot spot, advancing a
// slice every 150, so the tree splits and collapses.
func trainFuzzTree(tr *Tree, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	hot := geo.Pt(0.3, 0.7)
	for i := 0; i < n; i++ {
		if i%150 == 149 {
			tr.AdvanceSlice()
			hot = geo.Pt(rng.Float64(), rng.Float64())
		}
		p := geo.UnitSquare.Clamp(geo.Pt(hot.X+rng.NormFloat64()*0.05, hot.Y+rng.NormFloat64()*0.05))
		tr.Insert(p, []string{fmt.Sprintf("kw%d", rng.Intn(12)), fmt.Sprintf("kw%d", rng.Intn(4))})
	}
}

func treeImage(tr *Tree) []byte {
	var e persist.Enc
	tr.SaveState(&e)
	return e.Data()
}

// FuzzASPTreeLoadState: LoadState reads bytes it has no reason to trust. It
// refuses them and leaves the receiver as it was, or accepts them and
// leaves a tree that inserts, estimates, retires every slice it loaded —
// its live count and keyword sums then back at zero — and saves an image
// that loads back to the same bytes.
func FuzzASPTreeLoadState(f *testing.F) {
	for _, n := range []int{300, 2000} {
		tr := newTestTree(fuzzConfig)
		trainFuzzTree(tr, n, int64(n))
		if tr.NodeCount() == 1 {
			f.Fatalf("seed tree of %d points never split", n)
		}
		f.Add(treeImage(tr))
	}
	kws := [][]string{nil, {"kw1"}, {"kw3", "kw9", "absent"}}
	ranges := []geo.Rect{geo.UnitSquare, geo.CenteredRect(geo.Pt(0.3, 0.7), 0.2, 0.1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newTestTree(fuzzConfig)
		trainFuzzTree(tr, 200, 1)
		before := treeImage(tr)
		if err := tr.LoadState(persist.NewDec(data)); err != nil {
			if !bytes.Equal(treeImage(tr), before) {
				t.Fatalf("refused image (%v) changed the receiver", err)
			}
			return
		}
		trainFuzzTree(tr, 100, 2)
		for _, r := range ranges {
			tr.EstimateRange(r)
			for _, k := range kws {
				tr.EstimateRangeKeywords(r, k)
				tr.EstimateKeywords(k)
			}
		}
		image := treeImage(tr)
		again := newTestTree(fuzzConfig)
		if err := again.LoadState(persist.NewDec(image)); err != nil {
			t.Fatalf("the accepted tree saved an image it refuses: %v", err)
		}
		if !bytes.Equal(treeImage(again), image) {
			t.Fatal("the accepted tree's image does not round-trip")
		}
		for i := 0; i < fuzzConfig.Slices; i++ {
			tr.AdvanceSlice()
		}
		if tr.Live() != 0 || tr.EstimateKeywords([]string{"kw1"}) != 0 {
			t.Fatalf("every slice retired, yet Live %d and a keyword estimate %v remain",
				tr.Live(), tr.EstimateKeywords([]string{"kw1"}))
		}
		for _, x := range tr.kwLive {
			if x != 0 {
				t.Fatal("every slice retired, yet a keyword sum remains")
			}
		}
		treeImage(tr)
	})
}
