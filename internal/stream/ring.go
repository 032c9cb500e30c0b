package stream

import "unsafe"

// ring is a FIFO of sequence numbers truncated to 32 bits, held in a
// circular buffer. Objects arrive in timestamp order and expire in the same
// order, so every per-cell and per-keyword list in the window is a queue,
// never a general set. A buffer takes its allocation's whole size class.
// While its window fills, a full buffer doubles, so a fill or a restore
// reallocates each ring O(log n) times. The window's first eviction trims
// every buffer to its length, and from then on a full buffer grows by an
// eighth (at least four slots) and, once its length has fallen to a
// quarter of it, shrinks to half again the length. Its capacity stays
// within four times its length, and a queue whose length wanders by a
// slot reallocates at most once.
//
// A ref is uint32(seq); Window resolves it against its arena origin and
// ranks it by its distance from base, both of which are exact while the
// live sequence numbers span less than 2³² (guarded in Insert).
type ring struct {
	buf  []uint32
	head uint32 // index of the oldest ref
	n    uint32 // live refs
}

// ringMin is the smallest buffer a ring allocates, and the one it keeps
// when it drains.
const ringMin = 4

// ringHeaderBytes is the size of a ring value: slice header, head, n.
const ringHeaderBytes = int(unsafe.Sizeof(ring{}))

func (q *ring) len() int { return int(q.n) }

func (q *ring) front() uint32 { return q.buf[q.head] }

// pushBack appends ref, doubling a full buffer if double is set and
// growing it by an eighth otherwise. slots is the owner's running total of
// buffer capacity over all its rings, adjusted when this one resizes.
func (q *ring) pushBack(ref uint32, slots *int, double bool) {
	if c := len(q.buf); int(q.n) == c {
		grow := c / 8
		if double {
			grow = c
		}
		q.resize(c+max(ringMin, grow), slots)
	}
	i := q.head + q.n
	if c := uint32(len(q.buf)); i >= c {
		i -= c
	}
	q.buf[i] = ref
	q.n++
}

// popFront drops the oldest ref.
func (q *ring) popFront(slots *int) {
	q.head++
	if int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
	if c, n := len(q.buf), int(q.n); c > ringMin && n <= c/4 {
		q.resize(max(ringMin, n+n/2), slots)
	}
}

// segments returns the live refs in arrival order as at most two slices:
// the run from head to the end of the buffer, then the wrapped remainder.
func (q *ring) segments() (a, b []uint32) {
	end := q.head + q.n
	if c := uint32(len(q.buf)); end > c {
		return q.buf[q.head:], q.buf[:end-c]
	}
	return q.buf[q.head:end], nil
}

// trim shrinks the buffer to the length.
func (q *ring) trim(slots *int) {
	if c, n := len(q.buf), int(q.n); c > ringMin && n < c {
		q.resize(max(ringMin, n), slots)
	}
}

// resize moves the live refs to a buffer of at least c slots. Appending
// to nil rounds the capacity up to the size class the allocation takes,
// and the ring uses all of it.
func (q *ring) resize(c int, slots *int) {
	buf := append([]uint32(nil), make([]uint32, c)...)
	buf = buf[:cap(buf)]
	a, b := q.segments()
	copy(buf[copy(buf, a):], b)
	*slots += len(buf) - len(q.buf)
	q.buf, q.head = buf, 0
}
