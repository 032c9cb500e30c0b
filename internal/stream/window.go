package stream

import (
	"fmt"

	"github.com/spatiotext/latest/internal/geo"
)

// refQueue is a FIFO of global sequence numbers with amortised O(1)
// PushBack/PopFront. Objects arrive in timestamp order and expire in the
// same order, so every per-cell and per-keyword list in the window behaves
// as a queue, never a general set.
type refQueue struct {
	refs []uint64
	head int
}

func (q *refQueue) len() int { return len(q.refs) - q.head }

func (q *refQueue) pushBack(seq uint64) { q.refs = append(q.refs, seq) }

func (q *refQueue) front() uint64 { return q.refs[q.head] }

func (q *refQueue) popFront() uint64 {
	seq := q.refs[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.refs) {
		n := copy(q.refs, q.refs[q.head:])
		q.refs = q.refs[:n]
		q.head = 0
	}
	return seq
}

// each iterates live refs in arrival order; fn returning false stops early.
func (q *refQueue) each(fn func(seq uint64) bool) {
	for _, seq := range q.refs[q.head:] {
		if !fn(seq) {
			return
		}
	}
}

// Window is the exact store of S_T: every live object of the last T time
// units, indexed by a uniform grid and an inverted keyword index. It is the
// repository's stand-in for the paper's "actual data" path — the query
// processor whose system logs reveal true selectivity. Count answers RC-DVQ
// exactly and is used to score every estimator.
//
// Window is not safe for concurrent use; the simulation driver owns it.
type Window struct {
	world geo.Rect
	span  int64 // T, in virtual ms
	grid  *geo.Grid

	// Object arena: objs[i] has sequence number base+uint64(i)-uint64(head)
	// ... more precisely seq(objs[head+k]) = base+k. Compacted as the head
	// advances.
	objs []Object
	head int
	base uint64 // sequence number of objs[head]

	cells    []refQueue
	postings map[string]*refQueue

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
		cells:    make([]refQueue, g.NumCells()),
		postings: make(map[string]*refQueue),
	}
}

// World returns the spatial domain of the window.
func (w *Window) World() geo.Rect { return w.world }

// Span returns T in virtual milliseconds.
func (w *Window) Span() int64 { return w.span }

// Size returns the number of live objects currently in the window.
func (w *Window) Size() int { return len(w.objs) - w.head }

// Inserted returns the lifetime number of inserted objects.
func (w *Window) Inserted() uint64 { return w.inserted }

// DistinctKeywords returns the number of distinct keywords currently live.
func (w *Window) DistinctKeywords() int { return len(w.postings) }

// objBySeq returns the live object with the given sequence number.
func (w *Window) objBySeq(seq uint64) *Object {
	return &w.objs[w.head+int(seq-w.base)]
}

// Insert appends an object to the window and evicts everything older than
// o.Timestamp - T. Timestamps must be non-decreasing; Insert panics
// otherwise because out-of-order arrival would corrupt the queue invariant.
func (w *Window) Insert(o Object) {
	if n := w.Size(); n > 0 {
		if last := w.objs[len(w.objs)-1].Timestamp; o.Timestamp < last {
			panic(fmt.Sprintf("stream: out-of-order insert (%d after %d)", o.Timestamp, last))
		}
	}
	seq := w.base + uint64(w.Size())
	w.objs = append(w.objs, o)
	w.inserted++

	w.cells[w.grid.CellOf(o.Loc)].pushBack(seq)
	w.post(o.Keywords, seq)
	w.EvictBefore(o.Timestamp - w.span)
}

// post appends seq to the posting queue of each distinct keyword in kws.
func (w *Window) post(kws []string, seq uint64) {
	for i, kw := range kws {
		if repeated(kws, i) {
			continue
		}
		pq := w.postings[kw]
		if pq == nil {
			pq = &refQueue{}
			w.postings[kw] = pq
		}
		pq.pushBack(seq)
	}
}

// EvictBefore drops every object with Timestamp < cutoff. The driver also
// calls this before queries so the window reflects query time, not just the
// last insert.
func (w *Window) EvictBefore(cutoff int64) {
	for w.Size() > 0 && w.objs[w.head].Timestamp < cutoff {
		o := &w.objs[w.head]
		seq := w.base

		cq := &w.cells[w.grid.CellOf(o.Loc)]
		if cq.len() == 0 || cq.front() != seq {
			panic("stream: cell queue invariant violated")
		}
		cq.popFront()

		for i, kw := range o.Keywords {
			if repeated(o.Keywords, i) {
				continue
			}
			pq := w.postings[kw]
			if pq == nil || pq.len() == 0 || pq.front() != seq {
				panic("stream: posting queue invariant violated")
			}
			pq.popFront()
			if pq.len() == 0 {
				delete(w.postings, kw)
			}
		}

		w.head++
		w.base++
		w.evicted++
	}
	if w.head > 1024 && w.head*2 >= len(w.objs) {
		n := copy(w.objs, w.objs[w.head:])
		w.objs = w.objs[:n]
		w.head = 0
	}
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
		cq.each(func(seq uint64) bool {
			o := w.objBySeq(seq)
			if r.Contains(o.Loc) && (kws == nil || o.MatchesAny(kws)) {
				total++
			}
			return true
		})
		return true
	})
	return total
}

// countKeyword counts distinct window objects carrying any of kws, further
// filtered by r when non-nil. Posting queues hold ascending sequence
// numbers, so the union is a k-way merge over them: every distinct sequence
// number surfaces exactly once, in order, and is range-tested once. Nothing
// is allocated for up to eight distinct live keywords.
func (w *Window) countKeyword(kws []string, r *geo.Rect) int {
	var buf [8][]uint64
	lists := buf[:0]
	for i, kw := range kws {
		if repeated(kws, i) {
			continue
		}
		if pq := w.postings[kw]; pq != nil {
			lists = append(lists, pq.refs[pq.head:])
		}
	}
	total := 0
	// Invariant: every list is non-empty (live posting queues always are).
	for len(lists) > 1 {
		seq := lists[0][0]
		for _, l := range lists[1:] {
			if l[0] < seq {
				seq = l[0]
			}
		}
		for i := 0; i < len(lists); {
			if lists[i][0] == seq {
				lists[i] = lists[i][1:]
				if len(lists[i]) == 0 {
					lists[i] = lists[len(lists)-1]
					lists = lists[:len(lists)-1]
					continue
				}
			}
			i++
		}
		if r == nil || r.Contains(w.objBySeq(seq).Loc) {
			total++
		}
	}
	if len(lists) == 0 {
		return total
	}
	if r == nil {
		return total + len(lists[0])
	}
	for _, seq := range lists[0] {
		if r.Contains(w.objBySeq(seq).Loc) {
			total++
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
	for i := w.head; i < len(w.objs); i++ {
		if !fn(&w.objs[i]) {
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
func (w *Window) NextSeq() uint64 { return w.base + uint64(w.Size()) }

// EachBefore iterates, in arrival order, over the live objects whose
// sequence number is below maxSeq (i.e. those already present when
// NextSeq returned maxSeq). Objects evicted since then are skipped
// naturally — they are no longer live. fn returning false stops early.
func (w *Window) EachBefore(maxSeq uint64, fn func(o *Object) bool) {
	if maxSeq <= w.base {
		return
	}
	end := w.head + int(maxSeq-w.base)
	if end > len(w.objs) {
		end = len(w.objs)
	}
	for i := w.head; i < end; i++ {
		if !fn(&w.objs[i]) {
			return
		}
	}
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
