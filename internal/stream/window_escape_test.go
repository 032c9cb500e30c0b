package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
)

// escapedRings counts the rings that hold a gap written out in full: their
// slots in use exceed one per ref after the front.
func escapedRings(rings []ring) int {
	n := 0
	for i := range rings {
		if q := &rings[i]; q.n > 0 && q.inUse() > q.n-1 {
			n++
		}
	}
	return n
}

// TestWindowEscapesMatchBruteForce runs a window of 80 001 live objects,
// more than a 16-bit gap spans, through three turnovers and the 2³² ref
// boundary. One cell and one word are sparse: a pair of objects two
// inserts apart lands in the cell and carries the word about once every
// 70 000 inserts, so their rings hold gaps written out in full beside
// ordinary ones, and the escape reaches the ring's head as the window
// evicts. Every count is compared with a scan of the live objects, and
// the window saves and restores, escapes included, to the same contents
// and counts.
func TestWindowEscapesMatchBruteForce(t *testing.T) {
	const (
		span = 40_000 // two objects per ms: 80 001 live
		base = uint64(1<<32 - 150_000)
	)
	restore := func(img []byte) *Window {
		t.Helper()
		w := NewWindow(geo.UnitSquare, span, 4096)
		if err := w.LoadState(persist.NewDec(img)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	var e persist.Enc
	e.U64(base) // base
	e.U64(base) // inserted
	e.U64(base) // evicted
	e.U32(0)    // live objects
	w := restore(e.Data())

	rng := rand.New(rand.NewSource(31))
	vocab := vocabN(40)
	sparse := geo.Rect{MaxX: 1.0 / 64, MaxY: 1.0 / 64} // cell 0 of the 64×64 grid
	inner := geo.Rect{MaxX: 0.01, MaxY: 0.01}          // cuts through it
	nextRare := 20_000
	var live []Object
	cellEscapes, postingEscapes := 0, 0
	for i := 0; i < 3*2*span; i++ {
		o := randomObject(rng, base+uint64(i), int64(i/2), vocab)
		for sparse.Contains(o.Loc) {
			o.Loc = geo.Pt(rng.Float64(), rng.Float64())
		}
		if i == nextRare || i == nextRare+2 {
			o.Loc = geo.Pt(rng.Float64()*0.015, rng.Float64()*0.015)
			o.Keywords = append(o.Keywords, "rare")
			if i > nextRare {
				nextRare += 66_000 + rng.Intn(8_000)
			}
		}
		w.Insert(o)
		live = append(live, o)
		for len(live) > 0 && live[0].Timestamp < o.Timestamp-span {
			live = live[1:]
		}
		if w.Size() != len(live) {
			t.Fatalf("insert %d: %d live objects, want %d", i, w.Size(), len(live))
		}
		if i%4000 != 0 && i != 3*2*span-1 {
			continue
		}
		cellEscapes = max(cellEscapes, escapedRings(w.cells))
		postingEscapes = max(postingEscapes, escapedRings(w.postings))
		check := func(w *Window, when string) {
			t.Helper()
			ts := o.Timestamp
			for _, q := range []Query{
				SpatialQ(inner, ts),
				SpatialQ(sparse, ts),
				KeywordQ([]string{"rare"}, ts),
				KeywordQ([]string{"rare", vocab[rng.Intn(len(vocab))]}, ts),
				HybridQ(inner, []string{"rare"}, ts),
				HybridQ(geo.Rect{MaxX: 0.5, MaxY: 0.5}, []string{"rare", vocab[0]}, ts),
			} {
				if got, want := w.Count(&q), bruteCount(w.lat, live, &q, ts-span); got != want {
					t.Fatalf("insert %d, %s, %v: window %d, brute force %d", i, when, q, got, want)
				}
			}
		}
		check(w, "live")
		if i%20_000 != 0 && i != 3*2*span-1 {
			continue
		}
		var img persist.Enc
		w.SaveState(&img)
		back := restore(img.Data())
		check(back, "restored")
		var again persist.Enc
		back.SaveState(&again)
		if !reflect.DeepEqual(img.Data(), again.Data()) || escapedRings(back.cells) != escapedRings(w.cells) ||
			escapedRings(back.postings) != escapedRings(w.postings) {
			t.Fatalf("insert %d: the restored window saves or escapes differently", i)
		}
	}
	if w.NextSeq() <= 1<<32 {
		t.Fatalf("sequence numbers stopped at %d, short of the boundary", w.NextSeq())
	}
	if cellEscapes == 0 || postingEscapes == 0 {
		t.Fatalf("no escape: %d cell rings and %d posting rings escaped at once", cellEscapes, postingEscapes)
	}
	recount(t, w)
}
