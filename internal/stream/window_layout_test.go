package stream

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// TestArenaRecordHasNoPointers: the collector has nothing to follow in an
// arena block or a high column, a record takes 16 bytes, and a block
// exactly fills the 8 KB size class.
func TestArenaRecordHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the arena would hold a pointer", path, typ.Kind())
		}
	}
	walk("rec", reflect.TypeOf(rec{}))
	walk("block", reflect.TypeOf(block{}))
	var c chunk
	walk("tsMid", reflect.TypeOf(c.tsMid).Elem())
	walk("tsTop", reflect.TypeOf(c.tsTop).Elem())
	if size := unsafe.Sizeof(rec{}); size != 16 {
		t.Errorf("an arena record takes %d bytes, want 16", size)
	}
	if blockBytes != 8<<10 {
		t.Errorf("a block takes %d bytes, want the 8 KB size class", blockBytes)
	}
}

// liveContents is what a window's structures hold for its live objects.
type liveContents struct {
	occurrences int // keyword IDs stored, repeats included
	idBytes     int // their uvarint encoding
	refs        int // posting refs
	gapSlots    int // ring slots in use, cell and posting rings alike
}

// recount checks the window's incremental accounting against what its
// structures hold, and returns what they hold for the live objects.
func recount(t *testing.T, w *Window) (live liveContents) {
	t.Helper()
	slots := 0
	for i := range w.cells {
		slots += w.cells[i].capacity()
		live.gapSlots += int(w.cells[i].inUse())
	}
	words, wordBytes := 0, 0
	for id := range w.postings {
		pq := &w.postings[id]
		slots += pq.capacity()
		live.gapSlots += int(pq.inUse())
		live.refs += pq.len()
		word := w.dict.Word(uint32(id))
		if pq.len() == 0 {
			if pq.buf != nil || word != "" {
				t.Fatalf("free ID %d keeps a %d-slot ring and the word %q", id, pq.capacity(), word)
			}
			continue
		}
		words++
		wordBytes += len(word)
		if got, ok := w.dict.ID(word); !ok || got != uint32(id) {
			t.Fatalf("word %q of ID %d resolves to %d (%v)", word, id, got, ok)
		}
	}
	if slots != w.slots {
		t.Errorf("accounted %d ring slots, rings hold %d", w.slots, slots)
	}
	if words != w.dict.Len() || len(w.postings) != w.dict.IDs() || wordBytes != w.wordBytes {
		t.Errorf("dictionary: %d posted words of %d bytes, %d rings, %d assigned IDs, %d held, accounted %d bytes",
			words, wordBytes, len(w.postings), w.dict.IDs(), w.dict.Len(), w.wordBytes)
	}
	kwBytes, highBytes := cap(w.spare.kws), columnBytes(w.spare)
	for _, c := range w.chunks {
		kwBytes += cap(c.kws)
		highBytes += columnBytes(c)
	}
	if kwBytes != w.kwBytes || highBytes != w.highBytes || columnBytes(w.spare) != 0 {
		t.Errorf("accounted %d keyword ID bytes and %d high column bytes, chunks hold %d and %d",
			w.kwBytes, w.highBytes, kwBytes, highBytes)
	}
	arena := w.view()
	for seq := w.base; seq < w.NextSeq(); seq++ {
		enc := arena.ids(uint32(seq))
		live.idBytes += len(enc)
		live.occurrences += len(appendIDs(nil, enc))
	}
	return live
}

// columnBytes is the bytes of c's high columns; c is a copy, so dropping
// them from it leaves the window's chunk as it was.
func columnBytes(c chunk) int { return c.dropHigh() }

// TestWindowFootprintTracksLiveSize: after twenty turnovers at a steady
// 60 000 live objects the window costs at most 1.16 times the encoded
// bytes its live contents need — a record per object, its end offset
// included (16 bytes), the uvarint of every keyword occurrence's ID, and 2 bytes
// for every ring slot in use, cell and posting rings alike — plus the
// fixed cell headers and the dictionary (its words, its index and a ring
// header per ID), which cost per word, not per object; and a steady-state
// Insert allocates nothing.
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
	held := recount(t, w)
	need := w.Size()*blockBytes/chunkSize + held.idBytes + 2*held.gapSlots
	if perObject := blockBytes / chunkSize; perObject != 16 {
		t.Errorf("a record and its end offset take %d bytes, want 16", perObject)
	}
	fixed := ringHeaderBytes*cells + w.dict.MemoryBytes() + w.wordBytes + ringHeaderBytes*cap(w.postings)
	if got, limit := w.MemoryBytes(), need*116/100+fixed; got > limit {
		t.Errorf("MemoryBytes = %d for %d objects, %d ID bytes and %d ring slots in use: over 1.16 × %d + %d = %d",
			got, w.Size(), held.idBytes, held.gapSlots, need, fixed, limit)
	}
	t.Logf("%d objects, %.2f keywords each in %.2f bytes, %d words, %.2f ring slots each: %d bytes, %.1f per object (floor %.1f, %.3f ×)",
		w.Size(), float64(held.occurrences)/float64(w.Size()), float64(held.idBytes)/float64(w.Size()),
		w.DistinctKeywords(), float64(held.gapSlots)/float64(w.Size()), w.MemoryBytes(),
		float64(w.MemoryBytes()-fixed)/float64(w.Size()), float64(need)/float64(w.Size()),
		float64(w.MemoryBytes()-fixed)/float64(need))

	// Ring resizes and keywords entering the window do allocate, about
	// thirty times per thousand inserts; AllocsPerRun reports the
	// truncated mean.
	if n := testing.AllocsPerRun(5000, func() { s.insert(w) }); n != 0 {
		t.Errorf("steady-state Insert allocates %v times", n)
	}
	recount(t, w)
	if want := (w.Size()+int(w.base-w.origin)+chunkMask)/chunkSize + 1; len(w.chunks) > want || w.spare.block == nil {
		t.Errorf("%d chunks (spare %v) for %d objects, want at most %d and a spare", len(w.chunks), w.spare.block != nil, w.Size(), want)
	}
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWindowMemoryBytesIsTheHeap: the window owns what it keeps, so what
// it reports is what it adds to the heap — arena, ID stores, rings and the
// dictionary with its words — within a tenth, at 60 000 live objects three
// turnovers in. The stream's pool is built before the baseline.
func TestWindowMemoryBytesIsTheHeap(t *testing.T) {
	const live = 60_000
	s := newSteadyStream(5, 4*live)
	before := heapAlloc()
	w := NewWindow(geo.UnitSquare, live/2, 4096)
	for s.next < 3*live {
		s.insert(w)
	}
	held := float64(heapAlloc() - before)
	reported := w.MemoryBytes()
	t.Logf("reports %d KB, holds %.0f KB", reported>>10, held/1024)
	if ratio := float64(reported) / held; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("MemoryBytes %d, heap grew by %.0f (ratio %.2f)", reported, held, ratio)
	}
	runtime.KeepAlive(w)
	runtime.KeepAlive(s)
}

// TestWindowEmptiedHoldsNothing: a window that has evicted everything has
// no word in its dictionary, no ring buffer and no chunk but the spare,
// whose ID store is empty.
func TestWindowEmptiedHoldsNothing(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 100, 16)
	s := newSteadyStream(4, 1000)
	// Run until the head chunk is partly evicted while a spare waits.
	for s.next < 3*chunkSize || w.spare.block == nil || w.base == w.origin {
		s.insert(w)
	}
	recount(t, w)
	w.EvictBefore(1 << 40)
	held := recount(t, w)
	if w.Size() != 0 || held != (liveContents{}) || w.DistinctKeywords() != 0 || w.wordBytes != 0 {
		t.Errorf("emptied window keeps %d objects, %+v, %d words of %d bytes",
			w.Size(), held, w.DistinctKeywords(), w.wordBytes)
	}
	if len(w.chunks) > 1 || w.spare.block == nil || len(w.spare.kws) != 0 || w.slots != 0 {
		t.Errorf("emptied window keeps %d chunks (spare %v holding %d ID bytes) and %d ring slots",
			len(w.chunks), w.spare.block != nil, len(w.spare.kws), w.slots)
	}
	// And it fills again from there.
	for i := 0; i < 2*chunkSize; i++ {
		s.insert(w)
	}
	recount(t, w)
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
// keyword count unites long posting rings, and the one-word hybrid count
// range-tests one long posting ring.
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
		{"hybrid-one-word", HybridQ(r, kws[:1], ts)},
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
