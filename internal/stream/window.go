package stream

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"unsafe"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/intern"
)

// The object arena is a FIFO of fixed-size chunks. 512 objects (8 KB) keep
// the partly used head and tail chunks plus the spare under 2 % of a
// 60 000-object shard while a small window still costs one chunk.
const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	blockBytes = int(unsafe.Sizeof(block{}))
	chunkBytes = int(unsafe.Sizeof(chunk{})) // block and high column pointers, ID store, bases
)

// rec is the fixed part of a live object. It holds no pointer: the window
// keeps an object's keywords as dictionary IDs beside it, so nothing the
// producer allocated stays reachable through the arena. The location is
// the object's point on the world's lattice; ID and timestamp are offsets
// from the bases of the object's chunk, and end is the byte where the
// object's keyword IDs end in the chunk's ID store (they start where the
// previous slot's end). The ID keeps its low 32 bits here, and the
// timestamp and end their low 16: a chunk of any preset's stream spans at
// most 309 ms and 1 524 bytes of keyword IDs.
type rec struct {
	loc geo.LPoint
	did uint32 // ID - chunk.id0, modulo 2⁶⁴
	dt  uint16 // Timestamp - chunk.t0
	end uint16
}

// block is the records of chunkSize consecutive arena slots. It is
// pointer-free, so the collector never scans it, and exactly fills an 8 KB
// size class.
type block struct {
	recs [chunkSize]rec
}

// chunk is a block and the keyword IDs of its objects, in arrival order
// and with repeats, so that an object reads back with the keyword list it
// was inserted with. An ID is stored as a uvarint: the dictionary hands
// out dense IDs, reusing freed ones, so most take one or two bytes. The ID
// store grows toward the size the chunk's keyword rate projects, and keeps
// its capacity when the chunk is recycled. Slot 0 sets the bases t0 and
// id0 its records are offsets from.
//
// A chunk in which some slot's field does not fit its record keeps the
// field's high bits for every slot in a pointer-free high column, from
// that slot on (the slots before it read zero), and drops its columns
// when it is recycled. A timestamp 2¹⁶ ms or more after slot 0's takes a
// 2 KB column of bits 16–47, and one 2⁴⁸ ms or more a 1 KB column of bits
// 48–63; an ID not within 2³² above slot 0's a 2 KB column of bits 32–63;
// an ID store past 64 KiB a 1 KB column of bits 16–31. So a chunk of
// arbitrary 64-bit IDs costs 4 bytes per object more, and a slow stream's
// timestamps as much.
type chunk struct {
	*block
	tsMid, idHigh  *[chunkSize]uint32 // nil while every offset fits below them
	tsTop, endHigh *[chunkSize]uint16
	kws            []byte
	t0             int64
	id0            uint64
}

// ids returns the encoded keyword IDs of the object in slot i. It calls
// nothing, so that it inlines into a hybrid count's loop, which calls it
// per ref.
func (c *chunk) ids(i int) []byte {
	start, end := 0, 0
	if h := c.endHigh; h != nil {
		end = int(h[i]) << 16
		if i > 0 {
			start = int(h[i-1]) << 16
		}
	}
	if i > 0 {
		start |= int(c.recs[i-1].end)
	}
	return c.kws[start : end|int(c.recs[i].end)]
}

// grow reallocates the ID store to hold need bytes, for the object in
// slot i whose IDs start at byte start. It doubles, and once an eighth of
// the chunk is in, grows to where the chunk's keyword rate so far projects
// the store to end, a sixteenth over. Appending to nil rounds the capacity
// up to the size class the allocation takes, so kwBytes counts what the
// heap holds.
func (c *chunk) grow(need, start, i int) {
	grown := 2 * cap(c.kws)
	if i >= chunkSize/8 {
		proj := start * chunkSize / i
		grown = proj + proj/16
	}
	buf := append([]byte(nil), make([]byte, max(need, grown))...)
	c.kws = buf[:copy(buf, c.kws)]
}

// ts returns the timestamp of the object in slot i.
func (c *chunk) ts(i int) int64 {
	dt := uint64(c.recs[i].dt) | high(c.tsMid, i)<<16 | high(c.tsTop, i)<<48
	return c.t0 + int64(dt)
}

// id returns the ID of the object in slot i.
func (c *chunk) id(i int) uint64 {
	return c.id0 + (uint64(c.recs[i].did) | high(c.idHigh, i)<<32)
}

// put stores the fixed part of o, located at lattice point loc, whose
// keyword IDs end at byte end of the ID store, in slot i, after slots 0 to
// i-1, and returns the bytes of the high columns the chunk had to allocate
// for it. o.Timestamp is at least slot 0's.
func (c *chunk) put(i int, o *Object, loc geo.LPoint, end int) (added int) {
	if i == 0 {
		c.t0, c.id0 = o.Timestamp, o.ID
	}
	dt, did := uint64(o.Timestamp)-uint64(c.t0), o.ID-c.id0
	added += setHigh(&c.tsMid, i, dt>>16)
	added += setHigh(&c.tsTop, i, dt>>48)
	added += setHigh(&c.idHigh, i, did>>32)
	added += setHigh(&c.endHigh, i, uint64(end)>>16)
	c.recs[i] = rec{loc, uint32(did), uint16(dt), uint16(end)}
	return added
}

// dropHigh drops the chunk's high columns and returns their bytes.
func (c *chunk) dropHigh() (freed int) {
	return drop(&c.tsMid) + drop(&c.tsTop) + drop(&c.idHigh) + drop(&c.endHigh)
}

// high returns the high bits of slot i's field that col holds: zero if
// the chunk has no such column.
func high[T uint16 | uint32](col *[chunkSize]T, i int) uint64 {
	if col == nil {
		return 0
	}
	return uint64(col[i])
}

// setHigh stores the bits of hi that a column of T holds in slot i of
// *col, allocating the column if they are the chunk's first that are not
// zero, and returns the bytes allocated.
func setHigh[T uint16 | uint32](col **[chunkSize]T, i int, hi uint64) (added int) {
	if *col == nil {
		if T(hi) == 0 {
			return 0
		}
		*col, added = new([chunkSize]T), int(unsafe.Sizeof(**col))
	}
	(*col)[i] = T(hi)
	return added
}

// drop sets *col to nil and returns the bytes it held.
func drop[T uint16 | uint32](col **[chunkSize]T) (freed int) {
	if *col != nil {
		*col, freed = nil, int(unsafe.Sizeof(**col))
	}
	return freed
}

// Window is the exact store of S_T: every live object of the last T time
// units, indexed by a uniform grid and an inverted keyword index. It is the
// repository's stand-in for the paper's "actual data" path — the query
// processor whose system logs reveal true selectivity. Count answers RC-DVQ
// exactly and is used to score every estimator.
//
// The window owns every byte it keeps. An object is a pointer-free record,
// its location snapped onto the world's lattice (geo.Lattice), plus its
// keywords as IDs from the window's own dictionary, which holds
// each live word once; Insert copies what it needs and retains neither the
// Object nor its keyword slice, and Each hands out a scratch copy. A word
// lives while some live object carries it — its posting ring's length is
// its reference count — and its ID is reused afterwards. IDs are derived
// data: SaveState spells the words out, so a restored window need not, and
// does not, reproduce them.
//
// Everything in it is a FIFO, so nothing is ever copied to reclaim space:
// objects sit in fixed-size chunks that are handed from the evicting head
// to the inserting tail through one spare, and each cell and keyword lists
// its objects in a ring of 16-bit gaps between sequence numbers. The
// footprint follows the live size, and at a steady rate Insert allocates only when a
// ring or a chunk's ID store grows or a keyword enters the window.
//
// Window is not safe for concurrent use; the simulation driver owns it.
type Window struct {
	world geo.Rect
	span  int64 // T, in virtual ms
	grid  *geo.Grid
	lat   *geo.Lattice // the grid's

	// Object arena. chunks[0] holds the oldest live object and origin is
	// the sequence number of its slot 0, so sequence number seq lives at
	// offset seq-origin; base-origin < chunkSize. A chunk evicted whole
	// becomes the spare, which the tail takes before allocating.
	chunks    []chunk
	spare     chunk
	highBytes int // bytes of the chunks' high columns
	origin    uint64
	base      uint64 // sequence number of the oldest live object
	n         int    // live objects

	// Keyword dictionary, and by ID the word's posting ring. A free ID has
	// the empty ring.
	dict     intern.Dict
	postings []ring

	cells []ring

	// evicting is set by the first eviction since the window was built or
	// restored. Until then every ring doubles when full; from then on
	// rings are trimmed and grow by an eighth.
	evicting bool

	slots     int // total buffer slots of all rings
	kwBytes   int // total capacity of the chunks' ID stores, the spare's included
	wordBytes int // total length of the live words

	qids  []uint32         // scratch of Count and append: keywords as IDs
	seen  []uint64         // countKeyword's scratch bitmap, all zero between calls
	batch [refBatch]uint32 // a scan's decoded refs; a local would be zeroed on every call

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
		world: world,
		span:  span,
		grid:  g,
		lat:   g.Lattice(),
		cells: make([]ring, g.NumCells()),
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
func (w *Window) DistinctKeywords() int { return w.dict.Len() }

// MemoryBytes returns the window's footprint, which is all its own: arena
// chunks with their high columns and keyword ID stores, ring buffers and
// headers, and the dictionary with the bytes of its words. O(1).
func (w *Window) MemoryBytes() int {
	blocks := len(w.chunks)
	if w.spare.block != nil {
		blocks++
	}
	return blocks*blockBytes + w.highBytes + chunkBytes*cap(w.chunks) +
		w.kwBytes + ringHeaderBytes*len(w.cells) + 2*w.slots +
		w.dict.MemoryBytes() + ringHeaderBytes*cap(w.postings) + w.wordBytes +
		4*cap(w.qids) + 8*cap(w.seen)
}

// arenaView resolves truncated sequence numbers to arena slots. Scan loops
// take one by value so that the lookup reads no window field per object.
type arenaView struct {
	chunks []chunk
	origin uint32
}

func (w *Window) view() arenaView { return arenaView{w.chunks, uint32(w.origin)} }

// rec returns the record of the live object whose truncated sequence
// number is ref.
func (a arenaView) rec(ref uint32) *rec {
	off := ref - a.origin
	return &a.chunks[off>>chunkShift].recs[off&chunkMask]
}

// ids returns that object's encoded keyword IDs.
func (a arenaView) ids(ref uint32) []byte {
	off := ref - a.origin
	return a.chunks[off>>chunkShift].ids(int(off & chunkMask))
}

// Insert appends an object to the window and evicts everything older than
// o.Timestamp - T. The window copies what it keeps: neither o nor
// o.Keywords is referenced once Insert returns. Timestamps must be
// non-decreasing; Insert panics otherwise because out-of-order arrival
// would corrupt the queue invariant.
func (w *Window) Insert(o Object) {
	off := w.base - w.origin + uint64(w.n) // arena offset of the new slot
	if off >= 1<<32 {
		panic(fmt.Sprintf("stream: %d live objects overflow 32-bit sequence refs", w.n))
	}
	if w.n > 0 {
		if last := w.TimestampAt(w.n - 1); o.Timestamp < last {
			panic(fmt.Sprintf("stream: out-of-order insert (%d after %d)", o.Timestamp, last))
		}
	}
	w.append(&o, w.lat.Snap(o.Loc))
	w.inserted++
	w.EvictBefore(o.Timestamp - w.span)
}

// append stores o, located at lattice point loc, at the arena tail under
// the next sequence number and indexes it by cell and keyword.
func (w *Window) append(o *Object, loc geo.LPoint) {
	off := int(w.base-w.origin) + w.n
	if off == len(w.chunks)<<chunkShift {
		c := w.spare
		w.spare = chunk{}
		if c.block == nil {
			c.block = new(block)
		}
		w.chunks = append(w.chunks, c)
	}
	c, slot := &w.chunks[off>>chunkShift], off&chunkMask
	ref := uint32(w.base) + uint32(w.n)
	w.n++

	w.cells[w.grid.CellOfL(loc)].pushBack(ref, &w.slots, !w.evicting)
	ids, start, had := w.qids[:0], len(c.kws), cap(c.kws)
	for _, kw := range o.Keywords {
		id := w.intern(kw)
		// A word the object repeats is stored again and posted once.
		if !containsID(ids, id) {
			w.postings[id].pushBack(ref, &w.slots, !w.evicting)
		}
		ids = append(ids, id)
		if need := len(c.kws) + uvarintLen(id); need > cap(c.kws) {
			c.grow(need, start, slot)
		}
		c.kws = binary.AppendUvarint(c.kws, uint64(id))
	}
	w.qids = ids
	w.kwBytes += cap(c.kws) - had
	w.highBytes += c.put(slot, o, loc, len(c.kws))
}

// intern returns the ID of word, entering a copy of it into the dictionary
// if no live object carries it. The caller must post the ID before it
// evicts: an ID with an empty ring is free.
func (w *Window) intern(word string) uint32 {
	if id, ok := w.dict.ID(word); ok {
		return id
	}
	id := w.dict.Add(strings.Clone(word))
	if int(id) == len(w.postings) {
		w.postings = append(w.postings, ring{})
	}
	w.wordBytes += len(word)
	return id
}

// EvictBefore drops every object with Timestamp < cutoff. The driver also
// calls this before queries so the window reflects query time, not just the
// last insert.
func (w *Window) EvictBefore(cutoff int64) {
	for w.n > 0 {
		off := int(w.base - w.origin)
		c := &w.chunks[0]
		if c.ts(off) >= cutoff {
			return
		}
		if !w.evicting {
			w.evicting = true
			w.trimRings()
		}
		ref := uint32(w.base)

		cq := &w.cells[w.grid.CellOfL(c.recs[off].loc)]
		if cq.len() == 0 || cq.front != ref {
			panic("stream: cell queue invariant violated")
		}
		cq.popFront(&w.slots)

		var scratch [16]uint32
		ids := appendIDs(scratch[:0], c.ids(off))
		for i, id := range ids {
			if containsID(ids[:i], id) {
				continue
			}
			pq := &w.postings[id]
			if pq.len() == 0 || pq.front != ref {
				panic("stream: posting queue invariant violated")
			}
			pq.popFront(&w.slots)
			if pq.len() == 0 {
				w.release(id)
			}
		}

		w.base++
		w.n--
		w.evicted++
		if off == chunkMask {
			w.releaseHead()
		}
	}
}

// trimRings trims every ring buffer to its length, and the posting
// headers to the IDs assigned, once, when the window first evicts: a
// filling window's rings and headers double.
func (w *Window) trimRings() {
	for i := range w.cells {
		w.cells[i].trim(&w.slots)
	}
	for id := range w.postings {
		w.postings[id].trim(&w.slots)
	}
	w.postings = append([]ring(nil), w.postings...)
}

// release retires the word of id, whose last carrier has been evicted: the
// dictionary forgets the word and its ring's buffer, and the ID is free.
func (w *Window) release(id uint32) {
	w.wordBytes -= len(w.dict.Word(id))
	w.dict.Release(id)
	w.slots -= w.postings[id].capacity()
	w.postings[id] = ring{}
}

// releaseHead retires the fully evicted chunks[0], keeping it, emptied and
// without high columns, as the spare if there is none.
func (w *Window) releaseHead() {
	head := w.chunks[0]
	w.highBytes -= head.dropHigh()
	if w.spare.block == nil {
		head.kws = head.kws[:0]
		w.spare = head
	} else {
		w.kwBytes -= cap(head.kws)
	}
	last := copy(w.chunks, w.chunks[1:])
	w.chunks[last] = chunk{}
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
// (Answer does both steps). The range is snapped onto the world's lattice
// as the objects were, so an object counts where it is stored: clamped
// onto the world's edge if it lies beyond it. A keyword predicate is
// resolved to dictionary IDs once; from there on the count compares
// integers.
func (w *Window) Count(q *Query) int {
	if !q.Valid() {
		return 0
	}
	r := w.lat.SnapRect(q.Range)
	if len(q.Keywords) == 0 {
		return w.countSpatial(r, nil)
	}
	ids := w.resolve(q.Keywords)
	switch {
	case len(ids) == 0: // no live object carries any of the words
		return 0
	case !q.HasRange:
		return w.countKeyword(ids, nil)
	default:
		return w.countHybrid(r, ids)
	}
}

// resolve returns the IDs of the distinct live words among kws, in the
// window's scratch. A word that is not in the dictionary is on no live
// object, so it matches nothing and is dropped.
func (w *Window) resolve(kws []string) []uint32 {
	ids := w.qids[:0]
	for _, kw := range kws {
		if id, ok := w.dict.ID(kw); ok && !containsID(ids, id) {
			ids = append(ids, id)
		}
	}
	w.qids = ids
	return ids
}

// countSpatial counts window objects inside r that also carry one of the
// words ids (nil ids means no keyword predicate). Cells r holds whole are
// counted without touching objects when there is no keyword predicate.
func (w *Window) countSpatial(r geo.LRect, ids []uint32) int {
	cr, in, cols := w.grid.SpanL(r), w.grid.WithinL(r), w.grid.Cols
	total := 0
	for row := cr.RowMin; row <= cr.RowMax; row++ {
		rowIn := ids == nil && row >= in.RowMin && row <= in.RowMax
		for col := cr.ColMin; col <= cr.ColMax; col++ {
			cq := &w.cells[row*cols+col]
			switch {
			case cq.len() == 0:
			case rowIn && col >= in.ColMin && col <= in.ColMax:
				total += cq.len()
			default:
				total += w.countRefs(cq, r, ids)
			}
		}
	}
	return total
}

// countRefs counts the objects of q inside r that carry one of the words
// ids (nil ids means no keyword predicate). A ring of more than shortRing
// refs is read in batches (see scan). A shorter one, as a cell's ring
// mostly is, is read by a cursor in the loop that tests its refs: for a
// few dozen refs the batch's setup costs more than it saves.
func (w *Window) countRefs(q *ring, r geo.LRect, ids []uint32) int {
	a, n := w.view(), 0
	switch {
	case q.n > shortRing:
		for s := q.scan(); s.left > 0; {
			for _, ref := range s.batch(&w.batch) {
				if r.Contains(a.rec(ref).loc) && (ids == nil || carriesAny(a.ids(ref), ids)) {
					n++
				}
			}
		}
	case q.n > 0:
		for c, left := q.cursor(), q.n; ; c = c.next() {
			if r.Contains(a.rec(c.ref).loc) && (ids == nil || carriesAny(a.ids(c.ref), ids)) {
				n++
			}
			if left--; left == 0 {
				break
			}
		}
	}
	return n
}

// shortRing is the longest ring countRefs reads without batches.
const shortRing = 64

// countKeyword counts distinct window objects carrying any of the words
// ids, which are distinct and live, further filtered by r when non-nil. An
// object carrying several of the words sits in several posting queues and
// must count once: each ref marks the bit of its distance from base in a
// scratch bitmap, and only the refs that find their bit clear are kept,
// then range-tested and counted, a batch at a time. The walk is linear in
// the postings with no data-dependent branch but that one and the range
// test. It then clears the bitmap's words that cover the window, which
// costs less than decoding the postings again to clear only the words
// they touched unless they are fewer than one ref per 64 live objects.
// Nothing is allocated once the bitmap covers the window.
func (w *Window) countKeyword(ids []uint32, r *geo.LRect) int {
	if len(ids) == 1 { // one queue holds no duplicates
		q := &w.postings[ids[0]]
		if r == nil {
			return q.len()
		}
		return w.countRefs(q, *r, nil)
	}
	words := (w.n + 63) / 64
	if len(w.seen) < words {
		w.seen = make([]uint64, words+words/4)
	}
	seen, arena, base := w.seen, w.view(), uint32(w.base)
	total := 0
	for _, id := range ids {
		// Each ring is read in batches whatever its length: a query walks
		// each of its words' rings once, so a batch's setup is paid per
		// word, not per cell.
		for s := w.postings[id].scan(); s.left > 0; {
			fresh := mark(s.batch(&w.batch), seen, base)
			if r == nil {
				total += len(fresh)
			} else {
				total += arena.inRange(fresh, *r)
			}
		}
	}
	clear(seen[:words])
	return total
}

// mark sets the bit of each ref's distance from base in seen and returns
// the refs that found it clear, moved to the front of refs.
func mark(refs []uint32, seen []uint64, base uint32) []uint32 {
	k := 0
	for _, ref := range refs {
		d := ref - base
		word, bit := &seen[d>>6], uint64(1)<<(d&63)
		if *word&bit == 0 {
			*word |= bit
			refs[k] = ref
			k++
		}
	}
	return refs[:k]
}

// inRange counts the refs whose objects lie inside r. Its loop does
// nothing but the record loads and their tests, so that the loads run
// ahead of one another.
func (a arenaView) inRange(refs []uint32, r geo.LRect) int {
	n := 0
	for _, ref := range refs {
		if r.Contains(a.rec(ref).loc) {
			n++
		}
	}
	return n
}

// countHybrid picks the cheaper side to drive the scan: keyword postings
// when they are collectively shorter than the spatial candidate set.
func (w *Window) countHybrid(r geo.LRect, ids []uint32) int {
	postingsLen := 0
	for _, id := range ids {
		postingsLen += w.postings[id].len()
	}
	cr, cols := w.grid.SpanL(r), w.grid.Cols
	spatialLen := 0
	for row := cr.RowMin; row <= cr.RowMax; row++ {
		for _, cq := range w.cells[row*cols+cr.ColMin : row*cols+cr.ColMax+1] {
			spatialLen += cq.len()
		}
	}
	if postingsLen <= spatialLen {
		return w.countKeyword(ids, &r)
	}
	return w.countSpatial(r, ids)
}

// Each iterates over every live object in arrival order. Used by estimator
// pre-filling (§V-D): a freshly recommended estimator is warmed from the
// live window before it takes over. The Object is a scratch copy the
// window fills for each call of fn and is valid for the duration of that
// call only: fn must copy what it keeps, o.Keywords' array included.
func (w *Window) Each(fn func(o *Object) bool) {
	var o Object
	for i := 0; i < w.n; i++ {
		w.At(i, &o)
		if !fn(&o) {
			return
		}
	}
}

// At fills o with the i-th live object in arrival order (0 is the oldest),
// in O(1): the arena is indexed, not walked. Its location is its lattice
// point (geo.Lattice.Unsnap), not the float it was inserted at, which the
// window does not keep. o.Keywords' array is reused,
// so o is the caller's scratch and must be copied to be kept. At panics
// unless 0 <= i < Size().
func (w *Window) At(i int, o *Object) {
	c, slot := w.slot(i)
	o.ID, o.Loc, o.Timestamp = c.id(slot), w.lat.Unsnap(c.recs[slot].loc), c.ts(slot)
	o.Keywords = o.Keywords[:0]
	var scratch [16]uint32
	for _, id := range appendIDs(scratch[:0], c.ids(slot)) {
		o.Keywords = append(o.Keywords, w.dict.Word(id))
	}
}

// TimestampAt returns the timestamp of the i-th live object in arrival
// order, as At would read it, without touching its keywords.
func (w *Window) TimestampAt(i int) int64 {
	c, slot := w.slot(i)
	return c.ts(slot)
}

// slot locates the i-th live object in the arena.
func (w *Window) slot(i int) (*chunk, int) {
	if uint(i) >= uint(w.n) {
		panic("stream: live index out of range")
	}
	off := int(w.base-w.origin) + i
	return &w.chunks[off>>chunkShift], off & chunkMask
}

// NextSeq returns the sequence number the next inserted object will
// receive.
func (w *Window) NextSeq() uint64 { return w.base + uint64(w.n) }

// containsID reports whether id is among ids. Keyword lists are tiny (1-5
// entries), so the scan beats a set.
func containsID(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// carriesAny reports whether an object with the encoded keyword IDs have
// carries one of want (the RC-DVQ keyword predicate: o.kw ∩ q.W ≠ ∅). It
// decodes as it goes, and stops at the first match.
func carriesAny(have []byte, want []uint32) bool {
	for i := 0; i < len(have); {
		var id uint32
		if id, i = nextID(have, i); containsID(want, id) {
			return true
		}
	}
	return false
}

// appendIDs appends the IDs encoded in enc to ids and returns the result.
func appendIDs(ids []uint32, enc []byte) []uint32 {
	for i := 0; i < len(enc); {
		var id uint32
		id, i = nextID(enc, i)
		ids = append(ids, id)
	}
	return ids
}

// nextID decodes the uvarint ID that starts at enc[i], which append wrote
// with binary.AppendUvarint, and returns it with the index after it.
func nextID(enc []byte, i int) (uint32, int) {
	id := uint32(0)
	for shift := 0; ; shift += 7 {
		b := enc[i]
		i++
		if id |= uint32(b&0x7F) << shift; b < 0x80 {
			return id, i
		}
	}
}

// uvarintLen is the length of id as a uvarint.
func uvarintLen(id uint32) int {
	return (bits.Len32(id|1) + 6) / 7
}
