package estimator

import (
	"math"
	"sync"
)

// lists is a family of lists of slot numbers — RSH's buckets, the store's
// posting lists — kept as runs of one array instead of a slice each. An
// element is 16 bits and a run header 8 bytes, not a slice's 24; no list
// pays for rounding up to an allocation size class, and the array holds
// no pointer for the collector to scan. A store of more than 2¹⁶ slots
// needs more bits: the first element or run length that does gets the
// lists a high column (slabHi, atHi) for bits 16–31, which they keep until
// reset.
//
// A list grows at its end and shrinks from its end; its owner fills a hole
// by moving the last element into it, so the order is the owner's. A full
// list moves to the array's free tail with twice its length while its owner
// is filling, and with an eighth more room once the owner is tight. The run
// it leaves is dead. A filling owner's array doubles when its tail runs
// out; a tight owner's is cut again instead: every list, in index order,
// with an eighth more room and one, in an array with a tail of at least an
// eighth of that.
type lists struct {
	slab   []uint16
	slabHi []uint16
	at     []run    // by list
	atHi   []uint32 // bits 16–31 of each run's n, then of its c
}

// run is where a list lies in the array: its offset, length and room,
// these two with their high bits in atHi.
type run struct {
	off  uint32
	n, c uint16
}

// span returns where list i lies: offset, length and room.
func (l *lists) span(i int) (off, n, c uint32) {
	r, h := l.at[i], high(l.atHi, i)
	return r.off, uint32(r.n) | h<<16, uint32(r.c) | h&^0xFFFF
}

// setSpan records where list i lies.
func (l *lists) setSpan(i int, off, n, c uint32) {
	l.at[i] = run{off, uint16(n), uint16(c)}
	setHigh(&l.atHi, len(l.at), cap(l.at), i, n>>16|c>>16<<16)
}

// get returns list i as its elements' low halves and, if the lists have a
// high column, their high halves (else nil); join reads element k of it.
// Elements may be rewritten in place through set.
func (l *lists) get(i int) (lo, hi []uint16) {
	off, n, _ := l.span(i)
	if l.slabHi != nil {
		hi = l.slabHi[off : off+n]
	}
	return l.slab[off : off+n], hi
}

// join is element k of a list that get returned as lo and hi, or of the
// array and its high column.
func join(lo, hi []uint16, k int) uint32 {
	v := uint32(lo[k])
	if hi != nil {
		v |= uint32(hi[k]) << 16
	}
	return v
}

// set rewrites element k of list i.
func (l *lists) set(i, k int, x uint32) {
	off, _, _ := l.span(i)
	l.put(off+uint32(k), x)
}

// put writes x at index k of the array.
func (l *lists) put(k, x uint32) {
	l.slab[k] = uint16(x)
	setHigh(&l.slabHi, len(l.slab), cap(l.slab), int(k), uint16(x>>16))
}

// size returns the length of list i.
func (l *lists) size(i int) int {
	_, n, _ := l.span(i)
	return int(n)
}

// add appends an empty list.
func (l *lists) add() {
	l.at = append(l.at, run{})
	l.atHi = grow(l.atHi)
}

// push appends x to list i and returns its index there.
func (l *lists) push(i int, x uint32, tight bool) uint32 {
	off, n, c := l.span(i)
	if n == c {
		off, _, c = l.move(i, tight)
	}
	l.put(off+n, x)
	l.setSpan(i, off, n+1, c)
	return n
}

// remove drops element k of list i: the last element moves into its
// place. It returns the element that moved and the index it had, k itself
// if it was the last. An emptied list keeps its run, which a later push
// reuses, until the lists are next cut.
func (l *lists) remove(i int, k uint32) (moved, last uint32) {
	off, n, c := l.span(i)
	last = n - 1
	moved = join(l.slab, l.slabHi, int(off+last))
	l.put(off+k, moved)
	l.setSpan(i, off, last, c)
	return moved, last
}

// move relocates the full list i to the array's tail with room to grow,
// and returns its new span.
func (l *lists) move(i int, tight bool) (off, n, c uint32) {
	from, n, _ := l.span(i)
	c = narrow(max(2*n, 1), n+1)
	if tight {
		c = narrow(n+n/8+1, n+1)
	}
	end := len(l.slab)
	if end+int(c) > cap(l.slab) {
		if tight {
			l.cut(i, c)
			return l.span(i)
		}
		grown := sized(max(2*cap(l.slab), end+int(c), 64))
		l.slab = grown[:copy(grown, l.slab)]
		if l.slabHi != nil {
			l.slabHi = append(make([]uint16, 0, cap(l.slab)), l.slabHi...)
		}
	}
	l.slab = l.slab[:end+int(c)]
	copy(l.slab[end:], l.slab[from:from+n])
	if l.slabHi != nil {
		l.slabHi = l.slabHi[:len(l.slab)]
		copy(l.slabHi[end:], l.slabHi[from:from+n])
	}
	l.setSpan(i, uint32(end), n, c)
	return uint32(end), n, c
}

// cut lays every list out again, in index order, each with room to grow —
// list grow, if not -1, with room for c — leaving a fresh tail. The layout
// is staged in a pooled buffer, as draw's bitmaps are, and copied back: a
// cut allocates only when the lists have outgrown their array or no longer
// fill half of it.
func (l *lists) cut(grow int, c uint32) {
	total := 0
	for i := range l.at {
		_, n, _ := l.span(i)
		total += int(roomFor(n, i == grow, c))
	}
	need := total + total/8
	staged, stagedHi := staging(total), (*[]uint16)(nil)
	if l.slabHi != nil {
		stagedHi = staging(total)
	}
	at := uint32(0)
	for i := range l.at {
		off, n, _ := l.span(i)
		copy((*staged)[at:], l.slab[off:off+n])
		if stagedHi != nil {
			copy((*stagedHi)[at:], l.slabHi[off:off+n])
		}
		room := roomFor(n, i == grow, c)
		l.setSpan(i, at, n, room)
		at += room
	}
	if cap(l.slab) < need || cap(l.slab) > 2*need {
		l.slab = sized(need)
		if l.slabHi != nil {
			l.slabHi = make([]uint16, 0, cap(l.slab))
		}
	}
	l.slab = l.slab[:copy(l.slab[:total], *staged)]
	cutBuffers.Put(staged)
	if stagedHi != nil {
		l.slabHi = l.slabHi[:copy(l.slabHi[:total], *stagedHi)]
		cutBuffers.Put(stagedHi)
	}
}

// cutBuffers recycles the buffers cuts stage their layouts in.
var cutBuffers = sync.Pool{New: func() any { return new([]uint16) }}

// staging returns a pooled buffer of n elements.
func staging(n int) *[]uint16 {
	bp := cutBuffers.Get().(*[]uint16)
	if cap(*bp) < n {
		*bp = make([]uint16, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// reset makes l hold one list per entry of sizes, each of that length with
// elements for the owner to write, laid out as cut lays them. The lists
// start without high columns.
func (l *lists) reset(sizes []uint32) {
	*l = lists{at: make([]run, len(sizes))}
	total := uint32(0)
	for i, n := range sizes {
		c := roomFor(n, false, 0)
		l.setSpan(i, total, n, c)
		total += c
	}
	l.slab = sized(int(total + total/8))[:total]
}

// roomFor is the room a list of length n is cut with: none if it is empty,
// else an eighth more and one, or c for the list being grown.
func roomFor(n uint32, growing bool, c uint32) uint32 {
	switch {
	case growing:
		return c
	case n == 0:
		return 0
	}
	return narrow(n+n/8+1, n)
}

// narrow caps room c at the most 16 bits count, unless the list needs at
// least more: no list of a store of at most 2¹⁶−1 slots holds more than
// that, so room beyond it would only cost the runs their high column.
func narrow(c, least uint32) uint32 {
	if c > math.MaxUint16 {
		return max(math.MaxUint16, least)
	}
	return c
}

// runBytes is what a list costs beside its elements, without high bits.
const runBytes = 8

// memoryBytes is what the lists hold: the array and the run headers, and
// their high columns.
func (l *lists) memoryBytes() int {
	return 2*(cap(l.slab)+cap(l.slabHi)) + runBytes*cap(l.at) + 4*cap(l.atHi)
}

// sized returns an array of n elements, whose capacity is the whole size
// class its allocation takes: appending to nil rounds the capacity up, so
// the heap holds what cap reports.
func sized(n int) []uint16 { return append([]uint16(nil), make([]uint16, n)...) }

// high returns entry i of a high column, or the zero value — no high bits —
// if the column has not been allocated.
func high[T any](col []T, i int) T {
	if col == nil {
		var zero T
		return zero
	}
	return col[i]
}

// setHigh stores hi, the high bits of entry i of a column of length n and
// capacity c, in *col: a parallel column allocated with that length and
// capacity the first time an entry's high bits are not zero, and nil
// until then.
func setHigh[T uint16 | uint32](col *[]T, n, c, i int, hi T) {
	if *col == nil {
		if hi == 0 {
			return
		}
		*col = make([]T, n, c)
	}
	(*col)[i] = hi
}

// grow appends a zero entry to a high column that has been allocated.
func grow[T any](col []T) []T {
	if col == nil {
		return nil
	}
	var zero T
	return append(col, zero)
}
