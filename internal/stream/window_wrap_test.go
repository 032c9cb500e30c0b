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

// emptyWindowAt returns a window whose next sequence number is base, as
// restored from the image of an emptied window that had seen base objects.
func emptyWindowAt(t *testing.T, span int64, base uint64) *stream.Window {
	t.Helper()
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
	return w
}

// liveObjects copies the window's contents out of Each, whose argument,
// keyword array included, is the window's scratch and valid only inside
// the callback.
// onLattice returns o as a window over world reads it back: its location
// snapped onto the world's lattice.
func onLattice(world geo.Rect, o stream.Object) stream.Object {
	lat := geo.NewLattice(world)
	o.Loc = lat.Unsnap(lat.Snap(o.Loc))
	return o
}

func liveObjects(w *stream.Window) []stream.Object {
	var out []stream.Object
	w.Each(func(o *stream.Object) bool {
		c := *o
		c.Keywords = append([]string{}, o.Keywords...)
		out = append(out, c)
		return true
	})
	return out
}

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
	w := emptyWindowAt(t, span, base)

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
		live = append(live, onLattice(geo.UnitSquare, o))
		live = live[len(live)-oracle.Size():]

		if w.Size() != len(live) || w.NextSeq() != base+uint64(i)+1 {
			t.Fatalf("insert %d: size %d (want %d), NextSeq %d", i, w.Size(), len(live), w.NextSeq())
		}
		if i%23 != 0 {
			continue
		}
		if got := liveObjects(w); !reflect.DeepEqual(got, live) {
			t.Fatalf("insert %d: Each yields %d objects that differ from the %d live ones", i, len(got), len(live))
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

// TestWindowDictionaryRecycles runs a stream whose words die and come back
// — twelve of them, "" among them, over a window of a dozen objects —
// across the 2³² ref boundary, with objects that repeat a word and, now and
// then, one that carries 300 keywords. Every count is compared with the
// brute-force oracle and the live objects, keyword for keyword, with a
// plain slice; and however many words enter the window, the dictionary
// hands out no more IDs than were ever live together.
func TestWindowDictionaryRecycles(t *testing.T) {
	const (
		span = 6
		base = uint64(1<<32 - 700)
	)
	w := emptyWindowAt(t, span, base)
	rng := rand.New(rand.NewSource(17))
	vocab := make([]string, 12)
	for i := 1; i < len(vocab); i++ { // vocab[0] stays "": a word like any other
		vocab[i] = fmt.Sprintf("kw%02d", i)
	}
	long := make([]string, 300)
	for i := range long {
		long[i] = fmt.Sprintf("long%03d", i%150) // every word twice
	}
	oracle := check.NewOracle(span)
	var live []stream.Object
	births, peak, known := 0, 0, map[string]bool{}
	for i := 0; i < 400*span*2; i++ { // two objects per ms: four hundred turnovers
		var kws []string
		switch {
		case i%997 == 500:
			kws = long
		case rng.Intn(4) == 0:
			kw := vocab[rng.Intn(len(vocab))]
			kws = []string{kw, vocab[rng.Intn(len(vocab))], kw}
		default:
			kws = []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}[:rng.Intn(3)]
		}
		o := stream.Object{
			ID:        base + uint64(i),
			Loc:       geo.Pt(rng.Float64(), rng.Float64()),
			Keywords:  append([]string{}, kws...),
			Timestamp: int64(i / 2),
		}
		w.Insert(o)
		oracle.Insert(&o)
		live = append(live, onLattice(geo.UnitSquare, o))
		live = live[len(live)-oracle.Size():]

		// Recount the live words; one that was not live a step ago is a birth.
		now := map[string]bool{}
		for _, l := range live {
			for _, kw := range l.Keywords {
				now[kw] = true
				if !known[kw] {
					known[kw] = true
					births++
				}
			}
		}
		known = now
		peak = max(peak, len(now))
		if w.Size() != len(live) || w.DistinctKeywords() != len(now) {
			t.Fatalf("insert %d: %d objects and %d words live, want %d and %d",
				i, w.Size(), w.DistinctKeywords(), len(live), len(now))
		}
		if got := liveObjects(w); !reflect.DeepEqual(got, live) {
			t.Fatalf("insert %d: Each yields\n%v\nwant\n%v", i, got, live)
		}
		r := geo.CenteredRect(geo.Pt(rng.Float64(), rng.Float64()), 0.3+rng.Float64()*0.7, 0.3+rng.Float64()*0.7)
		kq := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))], "absent", long[rng.Intn(len(long))]}
		for _, q := range []stream.Query{
			stream.SpatialQ(r, o.Timestamp),
			stream.KeywordQ(kq, o.Timestamp),
			stream.KeywordQ(kq[:1], o.Timestamp),
			stream.KeywordQ(kq[2:3], o.Timestamp),
			stream.HybridQ(r, kq, o.Timestamp),
			stream.HybridQ(r, kq[:1], o.Timestamp),
			stream.HybridQ(geo.CenteredRect(o.Loc, 0.01, 0.01), kq, o.Timestamp),
		} {
			if got, want := w.Count(&q), oracle.CountLive(&q); got != want {
				t.Fatalf("insert %d, %v: window %d, oracle %d", i, q, got, want)
			}
		}
	}
	if w.NextSeq() <= 1<<32 {
		t.Fatalf("sequence numbers stopped at %d, short of the boundary", w.NextSeq())
	}
	if births < 10*peak {
		t.Fatalf("only %d words entered the window against a peak of %d live: the stream does not exercise reuse", births, peak)
	}
	if got := w.AssignedIDs(); got > peak {
		t.Errorf("dictionary handed out %d IDs for %d births; at most %d words were ever live together", got, births, peak)
	}

	// A snapshot spells the words out, so it restores into a window whose
	// dictionary numbers them afresh, and saves back to the same bytes.
	var saved, again persist.Enc
	w.SaveState(&saved)
	back := stream.NewWindow(geo.UnitSquare, span, 64)
	if err := back.LoadState(persist.NewDec(saved.Data())); err != nil {
		t.Fatal(err)
	}
	back.SaveState(&again)
	if !reflect.DeepEqual(saved.Data(), again.Data()) || !reflect.DeepEqual(liveObjects(back), live) {
		t.Error("window does not round-trip through SaveState/LoadState")
	}
}
