package stream

import "unsafe"

// ring is a FIFO of sequence numbers truncated to 32 bits. Objects arrive
// in timestamp order and expire in the same order, so every per-cell and
// per-keyword list in the window is a queue, never a general set, and its
// refs ascend (modulo 2³²) from front to back. The header holds the front
// and back refs; 16-bit slots hold, for every ref after the front, its gap
// from the one before. A gap of 0xFFFF or more is written as the escape
// slot 0xFFFF and the ref itself in two slots, low half first. The live
// refs of one ring lie within the window's live sequence span, so a window
// of fewer than 65 536 objects never escapes, and a larger one only in a
// sparse ring. A ring of one ref uses no slot. A ring is only ever read
// front to back.
//
// A ring whose gaps fit in inlineSlots slots may keep them in its header,
// in the 12 bytes of c, head and used, with the gap after front in slot 0:
// it is inline, and holds no buffer. Otherwise they sit in a circular
// buffer, which takes its allocation's whole size class. An inline ring
// that overflows takes a buffer of ringMin slots, or more for an escape.
// While its window fills, a full buffer doubles, so a fill or a restore
// reallocates each ring O(log n) times. The window's first eviction trims
// every buffer to the slots in use, or into the header if they fit it,
// and from then on a full buffer grows by an eighth (at least ringMin
// slots) and, once its use has fallen to a quarter of it, shrinks to half
// again the use, into the header if that fits it. Its capacity stays
// within four times its use, a drained ring holds no buffer, and a queue
// whose length wanders by a ref reallocates at most once: a ring leaves
// the header only when its gaps overflow it, and returns only once its
// buffer is a quarter used.
//
// A ref is uint32(seq); Window resolves it against its arena origin and
// ranks it by its distance from base, both of which are exact while the
// live sequence numbers span less than 2³² (guarded in Insert).
type ring struct {
	buf   *uint16 // slot 0 of the buffer; nil while the ring is inline
	c     uint32  // buffer slots
	head  uint32  // slot of the gap after front
	used  uint32  // slots in use
	n     uint32  // live refs
	front uint32  // oldest ref
	back  uint32  // newest ref
}

const (
	// ringMin is the smallest buffer a ring allocates: 16 bytes, the
	// smallest allocation the runtime does not pack several of into one
	// block.
	ringMin = 8
	// inlineSlots is how many slots an inline ring keeps in its header.
	inlineSlots = 6
	// escape is the slot that announces a ref written out in full.
	escape = 0xFFFF
)

// ringHeaderBytes is the size of a ring value.
const ringHeaderBytes = int(unsafe.Sizeof(ring{}))

func (q *ring) len() int { return int(q.n) }

// inline returns the slots of an inline ring: the memory of c, head and
// used, which are consecutive. Only those uint32 fields are ever read as
// slots, so no slot lies where the collector expects a pointer.
func (q *ring) inline() *[inlineSlots]uint16 {
	return (*[inlineSlots]uint16)(unsafe.Pointer(&q.c))
}

// slots returns the ring's slots, the buffer or the inline ones, and the
// slot of the gap after front.
func (q *ring) slots() ([]uint16, uint32) {
	if q.buf == nil {
		return q.inline()[:], 0
	}
	return unsafe.Slice(q.buf, q.c), q.head
}

// inUse returns how many slots the gaps take. An inline ring does not
// store it: it is one slot per gap and two more per escape, counted in at
// most inlineSlots steps.
func (q *ring) inUse() uint32 {
	if q.buf != nil {
		return q.used
	}
	s, used := q.inline(), uint32(0)
	for k := uint32(1); k < q.n; k++ {
		if s[used] == escape {
			used += 2
		}
		used++
	}
	return used
}

// capacity returns the buffer's slots: none for an inline ring.
func (q *ring) capacity() int {
	if q.buf == nil {
		return 0
	}
	return int(q.c)
}

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
	used := q.inUse()
	if c := q.capacity(); used+need > uint32(max(c, inlineSlots)) {
		grow := c / 8
		if double {
			grow = c
		}
		q.resize(max(c+max(ringMin, grow), int(used+need)), slots)
	}
	buf, head := q.slots()
	i, size := head+used, uint32(len(buf))
	if i >= size {
		i -= size
	}
	if need == 1 {
		buf[i] = uint16(gap)
	} else {
		for _, v := range [3]uint16{escape, uint16(ref), uint16(ref >> 16)} {
			buf[i] = v
			if i++; i == size {
				i = 0
			}
		}
	}
	if q.buf != nil {
		q.used += need
	}
	q.back = ref
	q.n++
}

// popFront drops the oldest ref.
func (q *ring) popFront(slots *int) {
	if q.n--; q.n > 0 {
		c := q.cursor().next()
		q.front = c.ref
		if q.buf == nil {
			s := q.inline()
			copy(s[:], s[c.i:])
			return
		}
		read := c.i - q.head // 1 or 3 slots, modulo the buffer
		if c.i < q.head {
			read += q.c
		}
		q.head, q.used = c.i, q.used-read
	}
	if q.buf != nil && q.used <= q.c/4 {
		u := int(q.used)
		q.resize(u+u/2, slots)
	}
}

// trim shrinks the buffer to the slots in use, or into the header.
func (q *ring) trim(slots *int) {
	if q.buf == nil {
		return
	}
	if c, u := int(q.c), int(q.used); u <= inlineSlots || c > ringMin && u < c {
		q.resize(u, slots)
	}
}

// resize moves the slots in use into the header if c is at most
// inlineSlots, and otherwise to a buffer of at least c and ringMin slots.
// Appending to nil rounds the capacity up to the size class the
// allocation takes, and the ring uses all of it.
func (q *ring) resize(c int, slots *int) {
	old, head := q.slots()
	used := q.inUse()
	if c <= inlineSlots {
		var s [inlineSlots]uint16
		unwrap(s[:], old, head, used)
		*slots -= q.capacity()
		q.buf, *q.inline() = nil, s
		return
	}
	buf := append([]uint16(nil), make([]uint16, max(c, ringMin))...)
	buf = buf[:cap(buf)]
	unwrap(buf, old, head, used)
	*slots += len(buf) - q.capacity()
	q.buf, q.c, q.head, q.used = &buf[0], uint32(len(buf)), 0, used
}

// unwrap copies the used slots of src from head, wrapping past its end, to
// the start of dst.
func unwrap(dst, src []uint16, head, used uint32) {
	if end := head + used; end > uint32(len(src)) {
		copy(dst[copy(dst, src[head:]):], src[:end-uint32(len(src))])
	} else {
		copy(dst, src[head:end])
	}
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

// cursor returns a cursor on the front, if the ring is not empty. Inline
// and buffered rings read alike: an inline ring's slots are a buffer that
// starts at slot 0 and never wraps.
func (q *ring) cursor() cursor {
	buf, head := q.slots()
	return cursor{buf, head, q.front}
}

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
