package metrics

import (
	"bytes"
	"math"
	"testing"

	"github.com/spatiotext/latest/internal/persist"
)

// codec is what every state-bearing statistic here implements.
type codec interface {
	SaveState(*persist.Enc)
	LoadState(*persist.Dec) error
}

func image(c codec) []byte {
	var e persist.Enc
	c.SaveState(&e)
	return e.Data()
}

// TestStateRoundTrip: each statistic restores into a fresh receiver that
// re-saves the same bytes and reads the same value; a cut image is
// refused.
func TestStateRoundTrip(t *testing.T) {
	mm := &MinMax{}
	ew := NewEWMA(0.2)
	sa := NewSlidingAverage(5)
	for _, v := range []float64{3, -1, 7.5, 2, 0.25, 9, 4} {
		mm.Observe(v)
		ew.Update(v)
		sa.Add(v)
	}
	for _, tc := range []struct {
		name  string
		full  codec
		fresh func() codec
		read  func(codec) float64
	}{
		{"minmax", mm, func() codec { return &MinMax{} }, func(c codec) float64 { return c.(*MinMax).Normalize(5) }},
		{"ewma", ew, func() codec { return NewEWMA(0.2) }, func(c codec) float64 { return c.(*EWMA).Value() }},
		{"sliding", sa, func() codec { return NewSlidingAverage(5) }, func(c codec) float64 { return c.(*SlidingAverage).Mean() }},
	} {
		img := image(tc.full)
		r := tc.fresh()
		if err := r.LoadState(persist.NewDec(img)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(image(r), img) {
			t.Errorf("%s: re-saved image differs", tc.name)
		}
		if a, b := tc.read(tc.full), tc.read(r); a != b {
			t.Errorf("%s: reads %v, restored %v", tc.name, a, b)
		}
		for n := 0; n < len(img); n++ {
			if err := tc.fresh().LoadState(persist.NewDec(img[:n])); err == nil {
				t.Fatalf("%s: image cut at %d of %d bytes was accepted", tc.name, n, len(img))
			}
		}
	}

	if err := NewSlidingAverage(4).LoadState(persist.NewDec(image(sa))); persist.CodeOf(err) != persist.CodeMismatch {
		t.Errorf("sliding average of another capacity: %v, want CodeMismatch", err)
	}
	var bad persist.Enc
	bad.F64s(make([]float64, 5))
	bad.Int(5) // next == capacity
	bad.Int(1)
	bad.F64(0)
	if err := NewSlidingAverage(5).LoadState(persist.NewDec(bad.Data())); persist.CodeOf(err) != persist.CodeMalformed {
		t.Errorf("cursor past the end: %v, want CodeMalformed", err)
	}
}

// TestLoadStateRefusesNonFinite: no statistic restores a NaN or an
// infinity, which no finite observation leaves behind.
func TestLoadStateRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var mm persist.Enc
		mm.F64(bad)
		mm.F64(1)
		mm.Bool(true)
		var ew persist.Enc
		ew.F64(bad)
		ew.Bool(true)
		var sa persist.Enc
		sa.F64s([]float64{1, bad})
		sa.Int(0)
		sa.Int(2)
		sa.F64(1)
		for name, tc := range map[string]struct {
			img []byte
			c   codec
		}{
			"minmax":  {mm.Data(), &MinMax{}},
			"ewma":    {ew.Data(), NewEWMA(0.2)},
			"sliding": {sa.Data(), NewSlidingAverage(2)},
		} {
			if err := tc.c.LoadState(persist.NewDec(tc.img)); persist.CodeOf(err) != persist.CodeMalformed {
				t.Errorf("%s holding %v: %v, want CodeMalformed", name, bad, err)
			}
		}
	}
}
