package stream

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// ringModel is what a ring must hold: its refs in a plain slice, and the
// slots their gaps take. The ring is held against it after every
// operation.
type ringModel struct {
	q     ring
	refs  []uint32
	used  int // one slot per gap after the front, three for one of 0xFFFF or more
	slots int // the owner's running total, for this one ring
	// every is how often check reads the whole ring: every op if it is 0
	// or 1, and only every every-th op otherwise.
	every, ops int
	// wrapped is set once a check finds the slots in use running past the
	// buffer's end, and straddled counts the escapes whose three slots did.
	wrapped   bool
	straddled int
	// spilled counts the pushes that moved an inline ring's gaps to a
	// buffer, inlined the pops and trims that moved them back, and
	// inlineEscapes the escapes pushed into the header.
	spilled, inlined, inlineEscapes int
}

// gapSlots is how many slots the gap from ref a to ref b takes.
func gapSlots(a, b uint32) int {
	if b-a >= escape {
		return 3
	}
	return 1
}

// check holds the ring against the model: length, front, back, the slots
// in use, and a buffer accounted in slots, large enough and, past ringMin,
// within four times the use, or none while the header holds the slots and
// always once at most one ref is left; and, as often as the model asks,
// every ref in order as a scan reads them. A pop compares the front its cursor
// decoded, so every ref is also read one at a time. push, pop and trim check
// that a buffer they resize is a whole size class.
func (m *ringModel) check(t *testing.T, op string) {
	t.Helper()
	q := &m.q
	if q.len() != len(m.refs) {
		t.Fatalf("%s: len %d, model %d", op, q.len(), len(m.refs))
	}
	if n := len(m.refs); n > 0 && (q.front != m.refs[0] || q.back != m.refs[n-1]) {
		t.Fatalf("%s: front %d back %d, model %d and %d", op, q.front, q.back, m.refs[0], m.refs[n-1])
	}
	if m.ops++; m.every <= 1 || m.ops%m.every == 0 {
		var batch [refBatch]uint32
		read := 0
		for sc := q.scan(); sc.left > 0; {
			refs := sc.batch(&batch)
			if !slices.Equal(refs, m.refs[read:min(len(m.refs), read+len(refs))]) {
				t.Fatalf("%s: ring reads %v from ref %d, model %v", op, refs, read, m.refs[read:])
			}
			read += len(refs)
		}
		if read != len(m.refs) {
			t.Fatalf("%s: ring reads %d refs, model %d", op, read, len(m.refs))
		}
	}
	used, c := m.used, q.capacity()
	if int(q.inUse()) != used {
		t.Fatalf("%s: %d slots in use, model %d", op, q.inUse(), used)
	}
	if max(c, inlineSlots) < used || m.slots != c || (c > 0 && c < ringMin) || (len(m.refs) <= 1 && c != 0) {
		t.Fatalf("%s: capacity %d (accounted %d) for %d slots of %d refs", op, c, m.slots, used, len(m.refs))
	}
	if c > ringMin && 4*used < c {
		t.Fatalf("%s: capacity %d kept for %d slots", op, c, used)
	}
	m.wrapped = m.wrapped || c > 0 && q.head+q.used > q.c
}

// shrunk is the capacity a ring's slots move to when they are resized to
// n: none if n fits the header, a buffer of at least ringMin otherwise.
func shrunk(n int) int {
	if n <= inlineSlots {
		return 0
	}
	return sizeClass(max(ringMin, n))
}

// push appends ref to ring and model and checks that the buffer grew only
// if it had to, and then as the policy asks.
func (m *ringModel) push(t *testing.T, ref uint32, double bool) {
	t.Helper()
	before := m.q.capacity()
	m.q.pushBack(ref, &m.slots, double)
	if n := len(m.refs); n > 0 {
		g := gapSlots(m.refs[n-1], ref)
		m.used += g
		switch c := m.q.capacity(); {
		case c == 0 && g == 3:
			m.inlineEscapes++
		case c > 0 && g == 3 && (m.q.head+m.q.used-3)%m.q.c+3 > m.q.c:
			m.straddled++
		}
	}
	m.refs = append(m.refs, ref)
	m.check(t, "push")
	grow := before / 8
	if double {
		grow = before
	}
	c, used := m.q.capacity(), m.used
	if c != before && (used <= max(before, inlineSlots) || c != sizeClass(max(before+max(ringMin, grow), used))) {
		t.Fatalf("push: buffer went from %d to %d slots at %d slots in use", before, c, used)
	}
	if before == 0 && c > 0 {
		m.spilled++
	}
}

// pop drops the front of ring and model and checks that the buffer shrank
// only once its use fell to a quarter, and then to half again the use, or
// into the header if that fits it.
func (m *ringModel) pop(t *testing.T) {
	t.Helper()
	before := m.q.capacity()
	m.q.popFront(&m.slots)
	if len(m.refs) > 1 {
		m.used -= gapSlots(m.refs[0], m.refs[1])
	}
	m.refs = m.refs[1:]
	m.check(t, "pop")
	c, used := m.q.capacity(), m.used
	if c != before && (used > before/4 || c != shrunk(used+used/2)) {
		t.Fatalf("pop: buffer went from %d to %d slots at %d slots in use", before, c, used)
	}
	if before > 0 && c == 0 {
		m.inlined++
	}
}

// trim trims ring and model and checks the buffer fits the use, or the
// header holds it.
func (m *ringModel) trim(t *testing.T) {
	t.Helper()
	before := m.q.capacity()
	m.q.trim(&m.slots)
	m.check(t, "trim")
	c, used := m.q.capacity(), m.used
	if c != before && c != shrunk(used) {
		t.Fatalf("trim: buffer went from %d to %d slots at %d slots in use", before, c, used)
	}
	if before > 0 && c == 0 {
		m.inlined++
	}
}

// TestRingMatchesSliceModel fills a ring from empty, trims it, and then
// drives it and a plain slice through the same random runs of pushes and
// pops — long enough to wrap, grow and shrink many times, with refs that
// cross the 32-bit boundary and now and then a gap that escapes — comparing
// them after every operation, the whole ring every 16th. A short ring then
// hovers in a small buffer with every third gap escaping, so that escapes
// fall across the buffer's end; and last, drained, it runs between its
// header and small buffers, escapes arriving while it is inline. While
// filling, the buffer doubles only when full; the trim leaves the use;
// afterwards it grows by an eighth (at least ringMin slots) only when
// full, shrinks to half again the use, or into the header, only once the
// use has fallen to a quarter of it, and a length that wanders by one
// reallocates at most once.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var (
		m       = ringModel{every: 16}
		next    = uint32(1<<32 - 5000)
		grew    bool
		shrank  bool
		escaped int
	)
	gap := func() uint32 {
		if rng.Intn(200) == 0 {
			escaped++
			return escape + uint32(rng.Intn(1<<20))
		}
		return 1 + uint32(rng.Intn(3))
	}
	fills := 0
	for i := 0; i < 3000; i++ {
		before := m.q.capacity()
		m.push(t, next, true)
		next += gap()
		if m.q.capacity() != before {
			fills++
		}
	}
	if fills > 1+bits.Len(3000/ringMin) {
		t.Fatalf("filling to %d refs reallocated %d times", len(m.refs), fills)
	}
	m.trim(t)
	for run := 0; run < 4000; run++ {
		n := 1 + rng.Intn(40)
		if rng.Intn(50) == 0 {
			n = 200 + rng.Intn(600) // a burst: several doublings or halvings
		}
		if push := rng.Intn(2) == 0; push {
			for i := 0; i < n; i++ {
				before := m.q.capacity()
				m.push(t, next, false)
				next += gap()
				grew = grew || (before >= ringMin && m.q.capacity() > before)
			}
		} else {
			for i := 0; i < n && len(m.refs) > 0; i++ {
				before := m.q.capacity()
				m.pop(t)
				shrank = shrank || m.q.capacity() < before
			}
		}
		resizes := 0
		for i := 0; i < 4; i++ {
			before := m.q.capacity()
			m.push(t, next, false)
			next += 1 + uint32(rng.Intn(3))
			m.pop(t)
			if m.q.capacity() != before {
				resizes++
			}
		}
		if resizes > 1 {
			t.Fatalf("a length hovering at %d reallocated %d times", len(m.refs), resizes)
		}
	}
	// Hover a short ring through a small buffer, with every third gap
	// escaping, so that escapes fall across the buffer's end: at six refs,
	// too many slots for the header.
	for len(m.refs) > 5 {
		m.pop(t)
	}
	for i := 0; i < 2000; i++ {
		m.push(t, next, false)
		if next++; i%3 == 0 {
			next += escape + uint32(rng.Intn(1<<20))
			escaped++
		}
		m.pop(t)
	}
	// Drain the ring and run it through its header and small buffers,
	// between no refs and nine, with one gap in eight escaping, so that
	// escapes arrive while it is inline and gaps overflow the header.
	for len(m.refs) > 0 {
		m.pop(t)
	}
	for i := 0; i < 2000; i++ {
		want := rng.Intn(10)
		for len(m.refs) < want {
			m.push(t, next, false)
			if next++; rng.Intn(8) == 0 {
				next += escape + uint32(rng.Intn(1<<10))
				escaped++
			}
		}
		for len(m.refs) > want {
			m.pop(t)
		}
	}
	if !grew || !shrank || !m.wrapped || escaped < 100 || m.straddled == 0 || next > 1<<31 ||
		m.spilled < 100 || m.inlined < 100 || m.inlineEscapes < 100 {
		t.Fatalf("run too tame: grew %v, shrank %v, wrapped %v, %d escapes (%d across the buffer's end, %d inline), "+
			"%d spills and %d returns to the header, next ref %d",
			grew, shrank, m.wrapped, escaped, m.straddled, m.inlineEscapes, m.spilled, m.inlined, next)
	}
	t.Logf("%d escapes, %d across the buffer's end and %d inline; %d spills and %d returns to the header",
		escaped, m.straddled, m.inlineEscapes, m.spilled, m.inlined)
}

// TestSmallRingAllocatesNothing: a ring of up to seven refs keeps its
// gaps in its header, so filling it and draining it allocates nothing,
// while its window fills and after the first eviction alike.
func TestSmallRingAllocatesNothing(t *testing.T) {
	for _, double := range []bool{true, false} {
		var q ring
		slots, next := 0, uint32(1<<32-100)
		allocs := testing.AllocsPerRun(100, func() {
			for q.len() < 7 {
				q.pushBack(next, &slots, double)
				next += 1 + next%3
			}
			for q.len() > 0 {
				q.popFront(&slots)
			}
		})
		if allocs != 0 || slots != 0 || q.buf != nil {
			t.Errorf("double %v: a ring of seven refs allocated %v times and holds %d buffer slots", double, allocs, slots)
		}
	}
}

// FuzzRingOps drives a ring and a []uint32 FIFO through the same
// operations, decoded from the input two bytes at a time, and compares
// them after every one. The first byte of a pair picks the operation. A
// push is followed by a gap to the next ref: the second byte, a gap just
// under or at the escape threshold, or the four bytes after the pair as an
// arbitrary 32-bit gap (across the 2³² wrap included). A push while
// filling doubles a full buffer; the first trim switches the ring to
// evicting, as a window's first eviction does.
func FuzzRingOps(f *testing.F) {
	const push, pop, trim, far, wide = 0, 1, 2, 3, 4
	ops := func(pairs ...byte) []byte { return pairs }
	// An escape at the head: the second gap escapes, and the first pop
	// leaves it at the buffer's head.
	f.Add(uint32(100), ops(push, 1, far, 7, push, 1, pop, 0, pop, 0, push, 1))
	// An escape at the wrap: eight refs overflow the header into an 8-slot
	// buffer, four pops leave three slots in use from slot 4, and the
	// escaped ref, past 2³², takes slots 7, 0 and 1.
	f.Add(uint32(1<<32-10), ops(push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, far, 7,
		pop, 0, pop, 0, pop, 0, pop, 0, push, 1, pop, 0, pop, 0))
	// Header to buffer and back, evicting: eight refs overflow the header,
	// five pops leave two slots of the 8-slot buffer in use and return them
	// to the header, five pushes overflow it again, and the ring drains.
	f.Add(uint32(9), ops(trim, 0, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1,
		pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, push, 1, push, 1, push, 1, push, 1, push, 1,
		pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0))
	// Escapes while inline: the second gap escapes into the header beside
	// a plain one, the third escapes past its six slots, and three pops
	// drain the buffer back to the header.
	f.Add(uint32(3), ops(push, 1, far, 7, far, 7, push, 1, pop, 0, pop, 0, pop, 0, push, 1, push, 1))
	// A ring drained from a buffer, popped once more and filled again.
	f.Add(uint32(1<<32-4), ops(push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1, push, 1,
		pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0, push, 1, push, 1))
	// A drained ring, popped once more and filled again.
	f.Add(uint32(7), ops(push, 1, push, 2, pop, 0, pop, 0, pop, 0, push, 3, push, 1))
	// Gaps just under, at and over the threshold, after the switch to evicting.
	f.Add(uint32(0), ops(trim, 0, far, 2, far, 3, far, 4, push, 9, pop, 0, pop, 0))
	// Arbitrary gaps, one of them wrapping the refs past 2³².
	f.Add(uint32(5), ops(wide, 0, 0xF0, 0xFF, 0xFF, 0xFF, wide, 0, 1, 0, 1, 0, push, 1, pop, 0, pop, 0))
	f.Fuzz(func(t *testing.T, first uint32, prog []byte) {
		var m ringModel
		next, evicting := first, false
		for i := 0; i+1 < len(prog); i += 2 {
			kind, arg := prog[i]%8, prog[i+1]
			switch {
			case kind == pop || kind == 5:
				if len(m.refs) > 0 {
					m.pop(t)
				}
			case kind == trim:
				m.trim(t)
				evicting = true
			default:
				m.push(t, next, !evicting)
				switch {
				case kind == far: // near or at the escape threshold
					next += escape - 4 + uint32(arg%8)
				case kind == wide && i+5 < len(prog): // any 32 bits: the 2³² wrap included
					next += binary.LittleEndian.Uint32(prog[i+2:])
					i += 4
				default:
					next += uint32(arg)
				}
			}
		}
	})
}

// sizeClass is the capacity a buffer of n slots gets from the allocator.
func sizeClass(n int) int { return cap(append([]uint16(nil), make([]uint16, n)...)) }
