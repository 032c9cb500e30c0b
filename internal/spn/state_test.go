package spn

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/spatiotext/latest/internal/persist"
)

func image(n *Network) []byte {
	var e persist.Enc
	n.SaveState(&e)
	return e.Data()
}

// TestStateRoundTrip: a trained network restores into a fresh one of the
// same shape that re-saves the same bytes and answers the same; a cut
// image or another shape is refused.
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{Components: 3, XBins: 8, YBins: 8, KwBuckets: 16, Seed: 5}
	n := New(cfg)
	n.Train(uniformSamples(rand.New(rand.NewSource(5)), 500, 16))
	img := image(n)
	r := New(cfg)
	if err := r.LoadState(persist.NewDec(img)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(r), img) {
		t.Fatal("re-saved image differs")
	}
	if !r.Trained() {
		t.Error("restored network is not trained")
	}
	q := RangeQuery{XLo: 0.1, XHi: 0.6, YLo: 0.2, YHi: 0.9, HasRange: true, KwB: []int{3}}
	if a, b := n.Prob(q), r.Prob(q); a != b {
		t.Errorf("prob %v, restored %v", a, b)
	}

	for c := 0; c < len(img); c++ {
		if err := New(cfg).LoadState(persist.NewDec(img[:c])); err == nil {
			t.Fatalf("image cut at %d of %d bytes was accepted", c, len(img))
		}
	}
	for _, other := range []Config{
		{Components: 2, XBins: 8, YBins: 8, KwBuckets: 16},
		{Components: 3, XBins: 16, YBins: 8, KwBuckets: 16},
	} {
		if err := New(other).LoadState(persist.NewDec(img)); persist.CodeOf(err) != persist.CodeMismatch {
			t.Errorf("shape %+v: %v, want CodeMismatch", other, err)
		}
	}
}
