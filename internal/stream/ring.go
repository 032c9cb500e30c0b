package stream

import "unsafe"

// ring is a FIFO of sequence numbers truncated to 32 bits, held in a
// power-of-two circular buffer. Objects arrive in timestamp order and
// expire in the same order, so every per-cell and per-keyword list in the
// window is a queue, never a general set. The buffer doubles when full and
// halves when a quarter full, so its capacity stays within 4× its length
// and a queue of steady length never reallocates.
//
// A ref is uint32(seq); Window resolves it against its arena origin and
// ranks it by its distance from base, both of which are exact while the
// live sequence numbers span less than 2³² (guarded in Insert).
type ring struct {
	buf  []uint32 // len is zero or a power of two
	head uint32   // index of the oldest ref
	n    uint32   // live refs
}

// ringMin is the smallest buffer a ring allocates, and the one it keeps
// when it drains.
const ringMin = 4

// ringHeaderBytes is the size of a ring value: slice header, head, n.
const ringHeaderBytes = int(unsafe.Sizeof(ring{}))

func (q *ring) len() int { return int(q.n) }

func (q *ring) front() uint32 { return q.buf[q.head] }

// pushBack appends ref. slots is the owner's running total of buffer
// capacity over all its rings, adjusted when this one resizes.
func (q *ring) pushBack(ref uint32, slots *int) {
	if int(q.n) == len(q.buf) {
		q.resize(max(ringMin, 2*len(q.buf)), slots)
	}
	q.buf[(q.head+q.n)&uint32(len(q.buf)-1)] = ref
	q.n++
}

// popFront drops the oldest ref.
func (q *ring) popFront(slots *int) {
	q.head = (q.head + 1) & uint32(len(q.buf)-1)
	q.n--
	if c := len(q.buf); c > ringMin && int(q.n) <= c/4 {
		q.resize(c/2, slots)
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

func (q *ring) resize(c int, slots *int) {
	buf := make([]uint32, c)
	a, b := q.segments()
	copy(buf[copy(buf, a):], b)
	*slots += c - len(q.buf)
	q.buf, q.head = buf, 0
}
