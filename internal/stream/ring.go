package stream

import "unsafe"

// ring is a FIFO of sequence numbers truncated to 32 bits. Objects arrive
// in timestamp order and expire in the same order, so every per-cell and
// per-keyword list in the window is a queue, never a general set, and its
// refs ascend (modulo 2³²) from front to back. The header holds the front
// and back refs; a circular buffer of 16-bit slots holds, for every ref
// after the front, its gap from the one before. A gap of 0xFFFF or more is
// written as the escape slot 0xFFFF and the ref itself in two slots, low
// half first. The live refs of one ring lie within the window's live
// sequence span, so a window of fewer than 65 536 objects never escapes,
// and a larger one only in a sparse ring. A ring of one ref uses no slot.
// A ring is only ever read front to back.
//
// A buffer takes its allocation's whole size class. While its window
// fills, a full buffer doubles, so a fill or a restore reallocates each
// ring O(log n) times. The window's first eviction trims every buffer to
// the slots in use, and from then on a full buffer grows by an eighth (at
// least ringMin slots) and, once its use has fallen to a quarter of it,
// shrinks to half again the use. Its capacity stays within four times its
// use, and a queue whose length wanders by a ref reallocates at most once.
//
// A ref is uint32(seq); Window resolves it against its arena origin and
// ranks it by its distance from base, both of which are exact while the
// live sequence numbers span less than 2³² (guarded in Insert).
type ring struct {
	buf   *uint16 // slot 0 of the buffer, nil until the ring first holds two refs
	c     uint32  // buffer slots
	head  uint32  // slot of the gap after front
	used  uint32  // slots in use
	n     uint32  // live refs
	front uint32  // oldest ref
	back  uint32  // newest ref
}

const (
	// ringMin is the smallest buffer a ring allocates, and the one it
	// keeps when it drains: 16 bytes, the smallest allocation the
	// runtime does not pack several of into one block.
	ringMin = 8
	// escape is the slot that announces a ref written out in full.
	escape = 0xFFFF
)

// ringHeaderBytes is the size of a ring value.
const ringHeaderBytes = int(unsafe.Sizeof(ring{}))

func (q *ring) len() int { return int(q.n) }

// slots returns the buffer.
func (q *ring) slots() []uint16 { return unsafe.Slice(q.buf, q.c) }

// pushBack appends ref, doubling a full buffer if double is set and
// growing it by an eighth otherwise. slots is the owner's running total of
// buffer capacity over all its rings, adjusted when this one resizes.
func (q *ring) pushBack(ref uint32, slots *int, double bool) {
	if q.n == 0 {
		q.front, q.back, q.n = ref, ref, 1
		return
	}
	gap, need := ref-q.back, uint32(1)
	if gap >= escape {
		need = 3
	}
	if c := int(q.c); q.used+need > q.c {
		grow := c / 8
		if double {
			grow = c
		}
		q.resize(c+max(ringMin, grow), slots)
	}
	buf, i := q.slots(), q.head+q.used
	if i >= q.c {
		i -= q.c
	}
	if need == 1 {
		buf[i] = uint16(gap)
	} else {
		for _, v := range [3]uint16{escape, uint16(ref), uint16(ref >> 16)} {
			buf[i] = v
			if i++; i == q.c {
				i = 0
			}
		}
	}
	q.used += need
	q.back = ref
	q.n++
}

// popFront drops the oldest ref.
func (q *ring) popFront(slots *int) {
	if q.n--; q.n > 0 {
		c := q.cursor().next()
		read := c.i - q.head // 1 or 3 slots, modulo the buffer
		if c.i < q.head {
			read += q.c
		}
		q.head, q.front, q.used = c.i, c.ref, q.used-read
	}
	if c, u := int(q.c), int(q.used); c > ringMin && u <= c/4 {
		q.resize(max(ringMin, u+u/2), slots)
	}
}

// trim shrinks the buffer to the slots in use.
func (q *ring) trim(slots *int) {
	if c, u := int(q.c), int(q.used); c > ringMin && u < c {
		q.resize(max(ringMin, u), slots)
	}
}

// resize moves the slots in use to a buffer of at least c slots.
// Appending to nil rounds the capacity up to the size class the
// allocation takes, and the ring uses all of it.
func (q *ring) resize(c int, slots *int) {
	buf := append([]uint16(nil), make([]uint16, c)...)
	buf = buf[:cap(buf)]
	old, end := q.slots(), q.head+q.used
	if end > q.c {
		copy(buf[copy(buf, old[q.head:]):], old[:end-q.c])
	} else {
		copy(buf, old[q.head:end])
	}
	*slots += len(buf) - int(q.c)
	q.buf, q.c, q.head = &buf[0], uint32(len(buf)), 0
}

// cursor reads a ring front to back, a ref at a time: ref is the ref it
// stands on and i the slot of the gap after it. It is what pops and counts
// decode with; a scan adds runs of plain gaps itself and leaves each
// escape to it. It is a value, so that a loop keeps it in registers.
type cursor struct {
	buf []uint16
	i   uint32
	ref uint32
}

// cursor returns a cursor on the front, if the ring is not empty.
func (q *ring) cursor() cursor { return cursor{q.slots(), q.head, q.front} }

// next returns the cursor on the following ref; the caller knows there is
// one. The ref after an escape is written out in the two slots that
// follow it, low half first.
func (c cursor) next() cursor {
	g, n := c.buf[c.i], uint32(len(c.buf))
	if c.i++; c.i == n {
		c.i = 0
	}
	if g == escape {
		c.ref = uint32(c.buf[c.i]) | uint32(c.buf[(c.i+1)%n])<<16
		c.i = (c.i + 2) % n
	} else {
		c.ref += uint32(g)
	}
	return c
}

// refBatch is how many refs a scan decodes at a time.
const refBatch = 512

// scan reads a ring front to back, refBatch refs at a time, so that the
// loop that tests them runs over an array and the record loads it makes
// can run ahead of one another; tested as they are decoded, each would
// wait on the decoding. c stands on the next ref to return.
type scan struct {
	c    cursor
	left uint32 // refs not yet returned
}

func (q *ring) scan() scan { return scan{q.cursor(), q.n} }

// batch decodes the next refs, at most refBatch, into dst and returns
// them; the caller calls it while refs are left. A stretch of plain gaps,
// up to an escape, the buffer's end or the batch's, decodes in a loop of
// its own; next takes the escape.
func (s *scan) batch(dst *[refBatch]uint32) []uint32 {
	n, c := min(s.left, refBatch), s.c
	dst[0] = c.ref
	for j := uint32(1); j < n; {
		run, ref := c.buf[c.i:min(len(c.buf), int(c.i+n-j))], c.ref
		out, k := dst[j:j+uint32(len(run))], 0
		for ; k < len(run) && run[k] != escape; k++ {
			ref += uint32(run[k])
			out[k] = ref
		}
		c.ref, c.i, j = ref, c.i+uint32(k), j+uint32(k)
		if k < len(run) {
			c = c.next()
			dst[j] = c.ref
			j++
		} else if int(c.i) == len(c.buf) {
			c.i = 0
		}
	}
	if s.left -= n; s.left > 0 {
		c = c.next()
	}
	s.c = c
	return dst[:n]
}
