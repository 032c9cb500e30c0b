package mlp

import (
	"bytes"
	"testing"

	"github.com/spatiotext/latest/internal/persist"
)

func image(n *Network) []byte {
	var e persist.Enc
	n.SaveState(&e)
	return e.Data()
}

// TestStateRoundTrip: a trained network restores into a fresh one of the
// same shape that re-saves the same bytes, predicts the same and trains
// on identically; a cut image or another shape is refused.
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{Inputs: 3, Hidden: []int{5, 4}, Outputs: 1, Seed: 2}
	n := New(cfg)
	for i := 0; i < 50; i++ {
		x := []float64{float64(i%7) / 7, float64(i%3) / 3, 0.5}
		n.Train(x, []float64{x[0] * x[1]})
	}
	img := image(n)
	r := New(Config{Inputs: 3, Hidden: []int{5, 4}, Outputs: 1, Seed: 9})
	if err := r.LoadState(persist.NewDec(img)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(r), img) {
		t.Fatal("re-saved image differs")
	}
	x := []float64{0.2, 0.7, 0.1}
	if a, b := n.Predict(x), r.Predict(x); a != b {
		t.Errorf("predict %v, restored %v", a, b)
	}
	if a, b := n.Train(x, []float64{0.3}), r.Train(x, []float64{0.3}); a != b {
		t.Errorf("train loss %v, restored %v", a, b)
	}

	for c := 0; c < len(img); c++ {
		if err := New(cfg).LoadState(persist.NewDec(img[:c])); err == nil {
			t.Fatalf("image cut at %d of %d bytes was accepted", c, len(img))
		}
	}
	for _, other := range []Config{
		{Inputs: 3, Hidden: []int{5}, Outputs: 1},
		{Inputs: 3, Hidden: []int{5, 3}, Outputs: 1},
		{Inputs: 2, Hidden: []int{5, 4}, Outputs: 1},
	} {
		if err := New(other).LoadState(persist.NewDec(img)); persist.CodeOf(err) != persist.CodeMismatch {
			t.Errorf("shape %+v: %v, want CodeMismatch", other, err)
		}
	}
}
