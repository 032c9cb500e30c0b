package stream_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/spatiotext/latest/internal/check"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// TestWindowAcrossRefBoundary restores an empty window whose next sequence
// number is 2³²-100 and turns it over several times, so the 32-bit refs in
// its rings cross the 2³² boundary while old and new refs are live
// together. Every count is compared with the brute-force oracle and the
// live objects, one by one, with a plain slice.
func TestWindowAcrossRefBoundary(t *testing.T) {
	const (
		span = 400
		base = uint64(1<<32 - 100)
	)
	var e persist.Enc
	e.U64(base) // base
	e.U64(base) // inserted
	e.U64(base) // evicted
	e.U32(0)    // live objects
	w := stream.NewWindow(geo.UnitSquare, span, 64)
	if err := w.LoadState(persist.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if w.NextSeq() != base {
		t.Fatalf("NextSeq = %d after load, want %d", w.NextSeq(), base)
	}

	rng := rand.New(rand.NewSource(11))
	vocab := make([]string, 12)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("kw%02d", i)
	}
	oracle := check.NewOracle(span)
	var live []stream.Object
	for i := 0; i < 5*span*2; i++ { // two objects per ms: five turnovers
		o := stream.Object{
			ID:        base + uint64(i),
			Loc:       geo.Pt(rng.Float64(), rng.Float64()),
			Keywords:  []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}[:1+rng.Intn(2)],
			Timestamp: int64(i / 2),
		}
		w.Insert(o)
		oracle.Insert(&o)
		live = append(live, o)
		live = live[len(live)-oracle.Size():]

		if w.Size() != len(live) || w.NextSeq() != base+uint64(i)+1 {
			t.Fatalf("insert %d: size %d (want %d), NextSeq %d", i, w.Size(), len(live), w.NextSeq())
		}
		if i%23 != 0 {
			continue
		}
		var got []stream.Object
		w.Each(func(o *stream.Object) bool { got = append(got, *o); return true })
		if !reflect.DeepEqual(got, live) {
			t.Fatalf("insert %d: Each yields %d objects that differ from the %d live ones", i, len(got), len(live))
		}
		// EachBefore a sequence number in the middle of the live range.
		mid := w.NextSeq() - uint64(len(live)/2)
		n := 0
		w.EachBefore(mid, func(o *stream.Object) bool {
			if o.ID != live[n].ID {
				t.Fatalf("insert %d: EachBefore object %d is %d, want %d", i, n, o.ID, live[n].ID)
			}
			n++
			return true
		})
		if want := len(live) - len(live)/2; n != want {
			t.Fatalf("insert %d: EachBefore(%d) visits %d objects, want %d", i, mid, n, want)
		}
		r := geo.CenteredRect(geo.Pt(rng.Float64(), rng.Float64()), 0.05+rng.Float64()*0.5, 0.05+rng.Float64()*0.5)
		kws := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))], "absent"}
		for _, q := range []stream.Query{
			stream.SpatialQ(r, o.Timestamp),
			stream.KeywordQ(kws, o.Timestamp),
			stream.HybridQ(r, kws, o.Timestamp),
			stream.HybridQ(r, kws[:1], o.Timestamp),
		} {
			if got, want := w.Count(&q), oracle.CountLive(&q); got != want {
				t.Fatalf("insert %d, %v: window %d, oracle %d", i, q, got, want)
			}
		}
	}
	if w.NextSeq() <= 1<<32 {
		t.Fatalf("sequence numbers stopped at %d, short of the boundary", w.NextSeq())
	}

	// The turned-over window saves and restores to the same contents.
	var saved persist.Enc
	w.SaveState(&saved)
	back := stream.NewWindow(geo.UnitSquare, span, 64)
	if err := back.LoadState(persist.NewDec(saved.Data())); err != nil {
		t.Fatal(err)
	}
	var again persist.Enc
	back.SaveState(&again)
	if !reflect.DeepEqual(saved.Data(), again.Data()) || back.NextSeq() != w.NextSeq() {
		t.Error("window does not round-trip through SaveState/LoadState")
	}
}
