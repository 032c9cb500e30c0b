package kmv

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/spatiotext/latest/internal/persist"
)

// TestSlicedStateRoundTrip: a restored windowed synopsis re-saves the same
// bytes and estimates as the original; a cut image or another shape is
// refused.
func TestSlicedStateRoundTrip(t *testing.T) {
	s := NewSliced(16, 4)
	for i := 0; i < 300; i++ {
		s.Add(fmt.Sprintf("kw%d", i%97))
		if i%70 == 69 {
			s.Advance()
		}
	}
	var e persist.Enc
	s.SaveState(&e)
	img := e.Data()

	r := NewSliced(16, 4)
	if err := r.LoadState(persist.NewDec(img)); err != nil {
		t.Fatal(err)
	}
	var again persist.Enc
	r.SaveState(&again)
	if !bytes.Equal(again.Data(), img) {
		t.Fatal("re-saved image differs")
	}
	if a, b := s.Distinct(), r.Distinct(); a != b {
		t.Errorf("distinct %v, restored %v", a, b)
	}
	s.Add("new")
	r.Add("new")
	if a, b := s.Distinct(), r.Distinct(); a != b {
		t.Errorf("after an add: distinct %v, restored %v", a, b)
	}

	for n := 0; n < len(img); n++ {
		if err := NewSliced(16, 4).LoadState(persist.NewDec(img[:n])); err == nil {
			t.Fatalf("image cut at %d of %d bytes was accepted", n, len(img))
		}
	}
	for _, shape := range [][2]int{{8, 4}, {16, 3}} {
		err := NewSliced(shape[0], shape[1]).LoadState(persist.NewDec(img))
		if persist.CodeOf(err) != persist.CodeMismatch {
			t.Errorf("shape %v: %v, want CodeMismatch", shape, err)
		}
	}
}

// TestSynopsisLoadStateRefusesBadHeaps: a heap longer than k and a heap
// holding one hash twice are malformed.
func TestSynopsisLoadStateRefusesBadHeaps(t *testing.T) {
	var long persist.Enc
	long.Int(2)
	long.U32(3)
	for h := uint64(1); h <= 3; h++ {
		long.U64(h)
	}
	var dup persist.Enc
	dup.Int(2)
	dup.U32(2)
	dup.U64(7)
	dup.U64(7)
	for name, img := range map[string][]byte{"long": long.Data(), "duplicate": dup.Data()} {
		if err := New(2).LoadState(persist.NewDec(img)); persist.CodeOf(err) != persist.CodeMalformed {
			t.Errorf("%s heap: %v, want CodeMalformed", name, err)
		}
	}
	var cur persist.Enc
	cur.Int(2)
	cur.Int(2)
	cur.Int(2)
	if err := NewSliced(2, 2).LoadState(persist.NewDec(cur.Data())); persist.CodeOf(err) != persist.CodeMalformed {
		t.Errorf("current slice out of range: %v, want CodeMalformed", err)
	}
}
