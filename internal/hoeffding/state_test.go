package hoeffding

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"github.com/spatiotext/latest/internal/persist"
)

// fixtureAttrs is the schema of the pinned tree image: one nominal and two
// numeric attributes, three classes.
var fixtureAttrs = []Attribute{
	{Name: "q", Kind: Nominal, NumValues: 3},
	{Name: "v", Kind: Numeric},
	{Name: "w", Kind: Numeric},
}

var fixtureClasses = []string{"x", "y", "z"}

func newFixtureTree() *Tree {
	return New(fixtureAttrs, fixtureClasses, Config{GracePeriod: 50, TieThreshold: 0.1})
}

// fixtureInstance draws one instance: for the first 1000 the nominal
// attribute is the class, afterwards a band of the numeric one is, so the
// tree splits and then revises its root.
func fixtureInstance(rng *rand.Rand, i int) ([]float64, int) {
	q, v, w := rng.Intn(3), rng.Float64(), rng.Float64()
	cls := q
	if i >= 1000 {
		cls = min(int(v*3), 2)
	}
	return []float64{float64(q), v, w}, cls
}

// trainFixture feeds the seeded stream the pinned image was written from.
func trainFixture(tr *Tree, n int) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		x, cls := fixtureInstance(rng, i)
		tr.Learn(x, cls)
	}
}

func image(tr *Tree) []byte {
	var e persist.Enc
	tr.SaveState(&e)
	return e.Data()
}

// TestTreeImageBytesPinned: testdata/split_tree.bin is the image of
// trainFixture's 6000-instance stream written before the learner was
// narrowed to EFDT with majority-class leaves. It carries the two zero
// tally slots and the observer-presence flags of every node. This build
// loads it and writes it back byte for byte, and training the same stream
// from scratch writes the same bytes.
func TestTreeImageBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/split_tree.bin")
	if err != nil {
		t.Fatal(err)
	}
	restored := newFixtureTree()
	if err := restored.LoadState(persist.NewDec(want)); err != nil {
		t.Fatal(err)
	}
	if restored.Splits() == 0 || restored.Resplits() == 0 {
		t.Fatalf("fixture has %d splits and %d resplits; it must cover both", restored.Splits(), restored.Resplits())
	}
	if got := image(restored); !bytes.Equal(got, want) {
		t.Errorf("restored image re-encodes to %d bytes that differ from the fixture's %d", len(got), len(want))
	}
	trained := newFixtureTree()
	trainFixture(trained, 6000)
	if got := image(trained); !bytes.Equal(got, want) {
		t.Errorf("training the fixture stream writes %d bytes that differ from the fixture's %d", len(got), len(want))
	}
}

// TestRestoreWithoutObserversKeepsLearning: an image may mark a node's
// observer maps absent, as trees that dropped the statistics of split
// nodes wrote them. The restored tree must still learn at every node.
func TestRestoreWithoutObserversKeepsLearning(t *testing.T) {
	var e persist.Enc
	e.Int(1)  // attributes
	e.Int(2)  // classes
	e.Int(3)  // nodes
	e.Int(20) // instances
	e.Int(1)  // splits
	e.Int(0)  // resplits
	node := func(leaf bool, counts []float64) {
		e.Bool(leaf)
		if !leaf {
			e.Int(0) // split attribute
			e.F64(0) // threshold
			e.Int(2) // children
		}
		e.F64s(counts)
		e.F64(0) // seenAtSplit
		e.F64(0) // retired tallies
		e.F64(0)
		e.Bool(false) // no nominal observers
		e.Bool(false) // no numeric observers
	}
	node(false, []float64{10, 10})
	node(true, []float64{10, 0})
	node(true, []float64{0, 10})

	tr := twoClassNominal()
	if err := tr.LoadState(persist.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tr.Learn([]float64{float64(i % 2)}, i%2)
	}
	for v := 0; v < 2; v++ {
		if got := tr.Predict([]float64{float64(v)}); got != v {
			t.Errorf("Predict(%d) = %d", v, got)
		}
	}
	again := twoClassNominal()
	if err := again.LoadState(persist.NewDec(image(tr))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(again), image(tr)) {
		t.Error("re-saved image does not round-trip")
	}
}

// FuzzTreeLoadState: LoadState reads bytes it has no reason to trust. It
// refuses them and leaves the receiver as it was, or accepts them and
// leaves a tree that learns, predicts and saves without panicking.
func FuzzTreeLoadState(f *testing.F) {
	if pinned, err := os.ReadFile("testdata/split_tree.bin"); err == nil {
		f.Add(pinned)
	}
	for _, n := range []int{300, 2000} {
		tr := newFixtureTree()
		trainFixture(tr, n)
		if tr.Splits() == 0 {
			f.Fatalf("seed tree of %d instances never split", n)
		}
		f.Add(image(tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newFixtureTree()
		trainFixture(tr, 200)
		before := image(tr)
		if err := tr.LoadState(persist.NewDec(data)); err != nil {
			if !bytes.Equal(image(tr), before) {
				t.Fatalf("refused image (%v) changed the receiver", err)
			}
			return
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 300; i++ {
			x, cls := fixtureInstance(rng, 1000+i)
			tr.Learn(x, cls)
			tr.Predict(x)
			tr.PredictProba(x)
		}
		image(tr)
	})
}
