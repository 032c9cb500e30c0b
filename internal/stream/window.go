package stream

import (
	"fmt"
	"unsafe"

	"github.com/spatiotext/latest/internal/geo"
)

// The object arena is a FIFO of fixed-size chunks. 512 objects (28 KB) keep
// the partly used head and tail chunks plus the spare under 2 % of a
// 60 000-object shard while a small window still costs one chunk.
const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	chunkBytes = chunkSize * int(unsafe.Sizeof(Object{}))
)

type chunk [chunkSize]Object

// postingBytes estimates what one live keyword costs beyond its ring
// buffer: the heap-allocated ring header plus a map slot (16-byte key,
// 8-byte pointer, control byte) at the map's typical two-thirds load.
const postingBytes = ringHeaderBytes + 40

// Window is the exact store of S_T: every live object of the last T time
// units, indexed by a uniform grid and an inverted keyword index. It is the
// repository's stand-in for the paper's "actual data" path — the query
// processor whose system logs reveal true selectivity. Count answers RC-DVQ
// exactly and is used to score every estimator.
//
// Everything in it is a FIFO, so nothing is ever copied to reclaim space:
// objects sit in fixed-size chunks that are handed from the evicting head
// to the inserting tail through one spare, and each cell and keyword lists
// its objects in a ring of 32-bit truncated sequence numbers. The footprint
// follows the live size, and at a steady rate Insert allocates only when a
// ring changes size or a keyword enters the window.
//
// Window is not safe for concurrent use; the simulation driver owns it.
type Window struct {
	world geo.Rect
	span  int64 // T, in virtual ms
	grid  *geo.Grid

	// Object arena. chunks[0] holds the oldest live object and origin is
	// the sequence number of its slot 0, so sequence number seq lives at
	// offset seq-origin; base-origin < chunkSize. Evicted slots are zeroed
	// so they pin no keyword strings; a chunk evicted whole becomes the
	// spare, which the tail takes before allocating.
	chunks []*chunk
	spare  *chunk
	origin uint64
	base   uint64 // sequence number of the oldest live object
	n      int    // live objects

	cells    []ring
	postings map[string]*ring
	slots    int      // total buffer capacity of all rings
	seen     []uint64 // countKeyword's scratch bitmap, all zero between calls

	inserted uint64 // lifetime insert count
	evicted  uint64 // lifetime evict count
}

// NewWindow builds a window store over the given world rectangle keeping the
// last span milliseconds. gridCells is the oracle's internal grid resolution
// (a perfect square, e.g. 16384); it affects only speed, never correctness.
func NewWindow(world geo.Rect, span int64, gridCells int) *Window {
	if span <= 0 {
		panic(fmt.Sprintf("stream: window span must be positive, got %d", span))
	}
	g := geo.NewSquareGrid(world, gridCells)
	return &Window{
		world:    world,
		span:     span,
		grid:     g,
		cells:    make([]ring, g.NumCells()),
		postings: make(map[string]*ring),
	}
}

// World returns the spatial domain of the window.
func (w *Window) World() geo.Rect { return w.world }

// Span returns T in virtual milliseconds.
func (w *Window) Span() int64 { return w.span }

// Size returns the number of live objects currently in the window.
func (w *Window) Size() int { return w.n }

// Inserted returns the lifetime number of inserted objects.
func (w *Window) Inserted() uint64 { return w.inserted }

// DistinctKeywords returns the number of distinct keywords currently live.
func (w *Window) DistinctKeywords() int { return len(w.postings) }

// MemoryBytes returns the window's own footprint: arena chunks, ring
// buffers and headers, and the postings map. Keyword strings belong to the
// objects' producers and are not counted. O(1).
func (w *Window) MemoryBytes() int {
	chunks := len(w.chunks)
	if w.spare != nil {
		chunks++
	}
	return chunks*chunkBytes + 8*cap(w.chunks) +
		ringHeaderBytes*len(w.cells) + 4*w.slots +
		postingBytes*len(w.postings) + 8*cap(w.seen)
}

// at returns the arena slot at offset off from chunks[0][0].
func (w *Window) at(off int) *Object {
	return &w.chunks[off>>chunkShift][off&chunkMask]
}

// arenaView resolves truncated sequence numbers to arena slots. Scan loops
// take one by value so that the lookup reads no window field per object.
type arenaView struct {
	chunks []*chunk
	origin uint32
}

func (w *Window) view() arenaView { return arenaView{w.chunks, uint32(w.origin)} }

// obj returns the live object whose truncated sequence number is ref.
func (a arenaView) obj(ref uint32) *Object {
	off := ref - a.origin
	return &a.chunks[off>>chunkShift][off&chunkMask]
}

// Insert appends an object to the window and evicts everything older than
// o.Timestamp - T. Timestamps must be non-decreasing; Insert panics
// otherwise because out-of-order arrival would corrupt the queue invariant.
func (w *Window) Insert(o Object) {
	off := w.base - w.origin + uint64(w.n) // arena offset of the new slot
	if off >= 1<<32 {
		panic(fmt.Sprintf("stream: %d live objects overflow 32-bit sequence refs", w.n))
	}
	if w.n > 0 {
		if last := w.at(int(off) - 1).Timestamp; o.Timestamp < last {
			panic(fmt.Sprintf("stream: out-of-order insert (%d after %d)", o.Timestamp, last))
		}
	}
	w.append(o)
	w.inserted++
	w.EvictBefore(o.Timestamp - w.span)
}

// append stores o at the arena tail under the next sequence number and
// indexes it by cell and keyword.
func (w *Window) append(o Object) {
	off := int(w.base-w.origin) + w.n
	if off == len(w.chunks)<<chunkShift {
		c := w.spare
		if w.spare = nil; c == nil {
			c = new(chunk)
		}
		w.chunks = append(w.chunks, c)
	}
	*w.at(off) = o
	ref := uint32(w.base) + uint32(w.n)
	w.n++

	w.cells[w.grid.CellOf(o.Loc)].pushBack(ref, &w.slots)
	for i, kw := range o.Keywords {
		if repeated(o.Keywords, i) {
			continue
		}
		pq := w.postings[kw]
		if pq == nil {
			pq = &ring{}
			w.postings[kw] = pq
		}
		pq.pushBack(ref, &w.slots)
	}
}

// EvictBefore drops every object with Timestamp < cutoff. The driver also
// calls this before queries so the window reflects query time, not just the
// last insert.
func (w *Window) EvictBefore(cutoff int64) {
	for w.n > 0 {
		off := int(w.base - w.origin)
		o := &w.chunks[0][off]
		if o.Timestamp >= cutoff {
			return
		}
		ref := uint32(w.base)

		cq := &w.cells[w.grid.CellOf(o.Loc)]
		if cq.len() == 0 || cq.front() != ref {
			panic("stream: cell queue invariant violated")
		}
		cq.popFront(&w.slots)

		for i, kw := range o.Keywords {
			if repeated(o.Keywords, i) {
				continue
			}
			pq := w.postings[kw]
			if pq == nil || pq.len() == 0 || pq.front() != ref {
				panic("stream: posting queue invariant violated")
			}
			pq.popFront(&w.slots)
			if pq.len() == 0 {
				w.slots -= len(pq.buf)
				delete(w.postings, kw)
			}
		}

		*o = Object{}
		w.base++
		w.n--
		w.evicted++
		if off == chunkMask {
			w.releaseHead()
		}
	}
}

// releaseHead retires the fully evicted chunks[0], keeping it as the spare
// if there is none.
func (w *Window) releaseHead() {
	if w.spare == nil {
		w.spare = w.chunks[0]
	}
	last := copy(w.chunks, w.chunks[1:])
	w.chunks[last] = nil
	w.chunks = w.chunks[:last]
	w.origin += chunkSize
}

// Answer evicts up to the query's window boundary and then counts exactly.
// This is the "execute on actual data" step of the paper's pipeline, whose
// result lands in the system logs.
func (w *Window) Answer(q *Query) int {
	w.EvictBefore(q.Timestamp - w.span)
	return w.Count(q)
}

// Count answers the RC-DVQ exactly over the current window contents. The
// caller is responsible for having evicted up to q.Timestamp - T first
// (Answer does both steps).
func (w *Window) Count(q *Query) int {
	if !q.Valid() {
		return 0
	}
	switch q.Type() {
	case SpatialQuery:
		return w.countSpatial(q.Range, nil)
	case KeywordQuery:
		return w.countKeyword(q.Keywords, nil)
	default:
		return w.countHybrid(q)
	}
}

// countSpatial counts window objects inside r that also match kws (nil kws
// means no keyword predicate). Interior cells are counted without touching
// objects when there is no keyword predicate.
func (w *Window) countSpatial(r geo.Rect, kws []string) int {
	cr := w.grid.CellsOverlapping(r)
	total := 0
	w.grid.ForEachCell(cr, func(idx int, cell geo.Rect) bool {
		cq := &w.cells[idx]
		if cq.len() == 0 {
			return true
		}
		if kws == nil && r.ContainsRect(cell) {
			total += cq.len()
			return true
		}
		a, b := cq.segments()
		total += w.countRefs(a, r, kws) + w.countRefs(b, r, kws)
		return true
	})
	return total
}

// countRefs counts the referenced objects inside r that match kws (nil kws
// means no keyword predicate).
func (w *Window) countRefs(refs []uint32, r geo.Rect, kws []string) int {
	arena := w.view()
	n := 0
	for _, ref := range refs {
		o := arena.obj(ref)
		if r.Contains(o.Loc) && (kws == nil || o.MatchesAny(kws)) {
			n++
		}
	}
	return n
}

// countKeyword counts distinct window objects carrying any of kws, further
// filtered by r when non-nil. An object carrying several of the keywords
// sits in several posting queues and must count once: each ref marks the
// bit of its distance from base in a scratch bitmap, and only the ref that
// finds its bit clear is range-tested and counted. The walk is linear in
// the postings with no data-dependent branch but that one, and it then
// clears the words it touched. Nothing is allocated for up to eight
// distinct live keywords once the bitmap covers the window.
func (w *Window) countKeyword(kws []string, r *geo.Rect) int {
	var buf [16][]uint32
	segs := buf[:0] // both segments of each distinct live keyword's ring
	for i, kw := range kws {
		if repeated(kws, i) {
			continue
		}
		if pq := w.postings[kw]; pq != nil {
			a, b := pq.segments()
			segs = append(segs, a, b)
		}
	}
	if len(segs) <= 2 { // one queue (or none) holds no duplicates
		total := 0
		for _, seg := range segs {
			if r == nil {
				total += len(seg)
			} else {
				total += w.countRefs(seg, *r, nil)
			}
		}
		return total
	}
	if words := (w.n + 63) / 64; len(w.seen) < words {
		w.seen = make([]uint64, words+words/4)
	}
	seen, arena, base := w.seen, w.view(), uint32(w.base)
	total := 0
	for _, seg := range segs {
		for _, ref := range seg {
			d := ref - base
			word, bit := &seen[d>>6], uint64(1)<<(d&63)
			if *word&bit != 0 {
				continue
			}
			*word |= bit
			if r == nil || r.Contains(arena.obj(ref).Loc) {
				total++
			}
		}
	}
	for _, seg := range segs {
		for _, ref := range seg {
			seen[(ref-base)>>6] = 0
		}
	}
	return total
}

// countHybrid picks the cheaper side to drive the scan: keyword postings
// when they are collectively shorter than the spatial candidate set.
func (w *Window) countHybrid(q *Query) int {
	postingsLen := 0
	for i, kw := range q.Keywords {
		if repeated(q.Keywords, i) {
			continue
		}
		if pq := w.postings[kw]; pq != nil {
			postingsLen += pq.len()
		}
	}
	cr := w.grid.CellsOverlapping(q.Range)
	spatialLen := 0
	w.grid.ForEachCell(cr, func(idx int, _ geo.Rect) bool {
		spatialLen += w.cells[idx].len()
		return true
	})
	if postingsLen <= spatialLen {
		return w.countKeyword(q.Keywords, &q.Range)
	}
	return w.countSpatial(q.Range, q.Keywords)
}

// Each iterates over every live object in arrival order. Used by estimator
// pre-filling (§V-D): a freshly recommended estimator is warmed from the
// live window before it takes over.
func (w *Window) Each(fn func(o *Object) bool) {
	w.eachOldest(w.n, fn)
}

// eachOldest iterates over the count oldest live objects in arrival order.
func (w *Window) eachOldest(count int, fn func(o *Object) bool) {
	off := int(w.base - w.origin)
	for end := off + count; off < end; off++ {
		if !fn(w.at(off)) {
			return
		}
	}
}

// NextSeq returns the sequence number the next inserted object will
// receive. Together with EachBefore it lets a caller snapshot "everything
// in the window as of now" by value: record NextSeq at decision time,
// replay EachBefore(seq) later, and objects inserted in between are
// excluded no matter how long the replay is deferred. Deferred estimator
// pre-filling uses exactly this to move the window replay off the query
// path without double-inserting objects the estimator already saw live.
func (w *Window) NextSeq() uint64 { return w.base + uint64(w.n) }

// EachBefore iterates, in arrival order, over the live objects whose
// sequence number is below maxSeq (i.e. those already present when
// NextSeq returned maxSeq). Objects evicted since then are skipped
// naturally — they are no longer live. fn returning false stops early.
func (w *Window) EachBefore(maxSeq uint64, fn func(o *Object) bool) {
	if maxSeq <= w.base {
		return
	}
	w.eachOldest(int(min(maxSeq-w.base, uint64(w.n))), fn)
}

// repeated reports whether kws[i] already occurs in kws[:i]. Skipping
// repeated entries visits each distinct keyword once, in order, without
// building a deduplicated copy; keyword lists are tiny (1-5 entries), so
// the quadratic scan beats a map.
func repeated(kws []string, i int) bool {
	for _, prev := range kws[:i] {
		if prev == kws[i] {
			return true
		}
	}
	return false
}
