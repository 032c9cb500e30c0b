package stream

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
)

// steadyStream feeds a window two objects per virtual millisecond from a
// fixed pool, as the benchmark does: keywords are Zipf-drawn from a
// 5000-word vocabulary, one to three per object.
type steadyStream struct {
	pool []Object
	next int
}

func newSteadyStream(seed int64, pool int) *steadyStream {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 4, 4999)
	vocab := vocabN(5000)
	s := &steadyStream{pool: make([]Object, pool)}
	for i := range s.pool {
		kws := make([]string, 1+rng.Intn(3))
		for k := range kws {
			kws[k] = vocab[zipf.Uint64()]
		}
		s.pool[i] = Object{Loc: geo.Pt(rng.Float64(), rng.Float64()), Keywords: kws}
	}
	return s
}

func (s *steadyStream) insert(w *Window) {
	o := s.pool[s.next%len(s.pool)]
	o.ID, o.Timestamp = uint64(s.next), int64(s.next/2)
	s.next++
	w.Insert(o)
}

// TestWindowFootprintTracksLiveSize: after twenty turnovers at a steady
// 60 000 live objects the window costs at most one and a half times the
// bytes its live contents need — an arena slot, a cell ref and a ref per
// distinct keyword for each object — plus the fixed cell headers, and a
// steady-state Insert allocates nothing.
func TestWindowFootprintTracksLiveSize(t *testing.T) {
	const live, cells = 60_000, 4096
	w := NewWindow(geo.UnitSquare, live/2, cells)
	s := newSteadyStream(3, 4*live)
	for s.next < 21*live {
		s.insert(w)
	}
	// A window of span T holds timestamps [now-T, now]: T+1 of them.
	if w.Size() < live || w.Size() > live+2 {
		t.Fatalf("window holds %d objects, want %d", w.Size(), live)
	}
	refs := 0
	for _, pq := range w.postings {
		refs += pq.len()
	}
	need := w.Size()*(chunkBytes/chunkSize+4) + 4*refs
	fixed := ringHeaderBytes * cells
	if got, limit := w.MemoryBytes(), need*3/2+fixed; got > limit {
		t.Errorf("MemoryBytes = %d for %d objects and %d keyword refs: over 1.5 × %d + %d = %d",
			got, w.Size(), refs, need, fixed, limit)
	}
	t.Logf("%d objects, %.2f keywords each: %d bytes, %.1f per object (floor %.1f)",
		w.Size(), float64(refs)/float64(w.Size()), w.MemoryBytes(),
		float64(w.MemoryBytes()-fixed)/float64(w.Size()), float64(need)/float64(w.Size()))

	// Ring resizes and keywords entering the window do allocate, about
	// twenty times per thousand inserts (1.4 bytes an insert);
	// AllocsPerRun reports the truncated mean.
	if n := testing.AllocsPerRun(5000, func() { s.insert(w) }); n != 0 {
		t.Errorf("steady-state Insert allocates %v times", n)
	}

	// The accounting is incremental: recount it from the structures.
	slots := 0
	for i := range w.cells {
		slots += len(w.cells[i].buf)
	}
	for _, pq := range w.postings {
		slots += len(pq.buf)
	}
	if slots != w.slots {
		t.Errorf("accounted %d ring slots, rings hold %d", w.slots, slots)
	}
	if want := (w.Size()+int(w.base-w.origin)+chunkMask)/chunkSize + 1; len(w.chunks) > want || w.spare == nil {
		t.Errorf("%d chunks (spare %v) for %d objects, want at most %d and a spare", len(w.chunks), w.spare != nil, w.Size(), want)
	}
}

// TestWindowEvictedSlotsAreZero: an evicted arena slot, the spare chunk
// included, holds the zero Object, so it keeps no keyword slice reachable.
func TestWindowEvictedSlotsAreZero(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 100, 16)
	s := newSteadyStream(4, 1000)
	// Run until the head chunk is partly evicted while a spare waits.
	for s.next < 3*chunkSize || w.spare == nil || w.base == w.origin {
		s.insert(w)
	}
	isZero := func(o *Object) bool {
		return o.ID == 0 && o.Loc == geo.Point{} && o.Keywords == nil && o.Timestamp == 0
	}
	for i := 0; i < int(w.base-w.origin); i++ {
		if !isZero(&w.chunks[0][i]) {
			t.Fatalf("evicted slot %d of the head chunk holds %+v", i, w.chunks[0][i])
		}
	}
	for i := range w.spare {
		if !isZero(&w.spare[i]) {
			t.Fatalf("slot %d of the spare chunk holds %+v", i, w.spare[i])
		}
	}
	// Emptying the window releases every chunk but the spare.
	w.EvictBefore(1 << 40)
	if w.Size() != 0 || len(w.chunks) > 1 || w.slots != ringMin*countRings(w) {
		t.Errorf("emptied window keeps %d objects, %d chunks, %d ring slots", w.Size(), len(w.chunks), w.slots)
	}
}

// countRings counts the cell rings that have ever held a ref.
func countRings(w *Window) int {
	n := 0
	for i := range w.cells {
		if w.cells[i].buf != nil {
			n++
		}
	}
	return n
}

// TestWindowRefSpanGuard: Insert refuses to hand out a 32-bit ref that
// could alias a live one. Four billion live objects cannot be built in a
// test, so the live count is forged.
func TestWindowRefSpanGuard(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 100, 16)
	w.Insert(Object{Loc: geo.Pt(0.5, 0.5)})
	w.n = 1 << 32
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "overflow 32-bit sequence refs") {
			t.Errorf("Insert past the ref span: recovered %q", msg)
		}
	}()
	w.Insert(Object{Loc: geo.Pt(0.5, 0.5), Timestamp: 1})
}

// benchWindow is the benchmark's window: 120 000 live objects, turned over
// twice so that rings have wrapped and chunks have been recycled.
func benchWindow() (*Window, *steadyStream) {
	const live = 120_000
	w := NewWindow(geo.UnitSquare, live/2, 4096)
	s := newSteadyStream(1, 4*live)
	for s.next < 3*live {
		s.insert(w)
	}
	return w, s
}

// BenchmarkWindowInsertSteady is one insert and the eviction it causes at
// a full window; B/op is what the layout leaves to the collector.
func BenchmarkWindowInsertSteady(b *testing.B) {
	w, s := benchWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.insert(w)
	}
}

// BenchmarkWindowCount is the exact answer per query type on that window.
// The rectangle cuts through cells, so the spatial and hybrid counts walk
// cell rings in their two segments; the keywords are frequent ones, so the
// keyword count unites long posting rings.
func BenchmarkWindowCount(b *testing.B) {
	w, s := benchWindow()
	r := geo.Rect{MinX: 0.203, MinY: 0.107, MaxX: 0.611, MaxY: 0.489}
	kws := []string{"kw04", "kw09", "kw17"}
	ts := int64(s.next / 2)
	for _, bc := range []struct {
		name string
		q    Query
	}{
		{"spatial", SpatialQ(r, ts)},
		{"keyword", KeywordQ(kws, ts)},
		{"hybrid", HybridQ(r, kws, ts)},
	} {
		q := bc.q
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += w.Count(&q)
			}
			if n == 0 {
				b.Fatal("query counts nothing")
			}
		})
	}
}
