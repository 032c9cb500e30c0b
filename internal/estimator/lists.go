package estimator

import "sync"

// lists is a family of lists of slot numbers — RSH's buckets, the store's
// posting lists — kept as runs of one array instead of a slice each. A run
// header is 12 bytes, not a slice's 24, no list pays for rounding up to an
// allocation size class, and the array holds no pointer for the collector
// to scan.
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
	slab []uint32
	at   []run // by list
}

// run is where a list lies in the array: its offset, length and room.
type run struct{ off, n, c uint32 }

// runBytes is what a list costs beside its elements.
const runBytes = 12

// get returns list i; its elements may be rewritten in place.
func (l *lists) get(i int) []uint32 {
	r := l.at[i]
	return l.slab[r.off : r.off+r.n]
}

// size returns the length of list i.
func (l *lists) size(i int) int { return int(l.at[i].n) }

// add appends an empty list.
func (l *lists) add() { l.at = append(l.at, run{}) }

// push appends x to list i.
func (l *lists) push(i int, x uint32, tight bool) {
	r := &l.at[i]
	if r.n == r.c {
		l.move(i, tight)
	}
	l.slab[r.off+r.n] = x
	r.n++
}

// pop drops the last element of list i. An emptied list keeps its run,
// which a later push reuses, until the lists are next cut.
func (l *lists) pop(i int) { l.at[i].n-- }

// move relocates the full list i to the array's tail with room to grow.
func (l *lists) move(i int, tight bool) {
	r := &l.at[i]
	c := max(2*r.n, 1)
	if tight {
		c = r.n + r.n/8 + 1
	}
	off := len(l.slab)
	if off+int(c) > cap(l.slab) {
		if tight {
			l.cut(i, c)
			return
		}
		grown := sized(max(2*cap(l.slab), off+int(c), 64))
		l.slab = grown[:copy(grown, l.slab)]
	}
	l.slab = l.slab[:off+int(c)]
	copy(l.slab[off:], l.slab[r.off:r.off+r.n])
	r.off, r.c = uint32(off), c
}

// cut lays every list out again, in index order, each with room to grow —
// list grow, if not -1, with room for c — leaving a fresh tail. The layout
// is staged in a pooled buffer, as draw's bitmaps are, and copied back: a
// cut allocates only when the lists have outgrown their array or no longer
// fill half of it.
func (l *lists) cut(grow int, c uint32) {
	total := 0
	for i, r := range l.at {
		total += int(roomFor(r.n, i == grow, c))
	}
	need := total + total/8
	bp := cutBuffers.Get().(*[]uint32)
	if cap(*bp) < total {
		*bp = make([]uint32, total)
	}
	staged := (*bp)[:total]
	off := uint32(0)
	for i := range l.at {
		r := &l.at[i]
		copy(staged[off:], l.slab[r.off:r.off+r.n])
		r.off, r.c = off, roomFor(r.n, i == grow, c)
		off += r.c
	}
	if cap(l.slab) < need || cap(l.slab) > 2*need {
		l.slab = sized(need)
	}
	l.slab = l.slab[:copy(l.slab[:total], staged)]
	cutBuffers.Put(bp)
}

// cutBuffers recycles the buffers cuts stage their layouts in.
var cutBuffers = sync.Pool{New: func() any { return new([]uint32) }}

// reset makes l hold one list per entry of sizes, each of that length with
// elements for the owner to write, laid out as cut lays them.
func (l *lists) reset(sizes []uint32) {
	l.at = make([]run, len(sizes))
	total := uint32(0)
	for i, n := range sizes {
		l.at[i] = run{total, n, roomFor(n, false, 0)}
		total += l.at[i].c
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
	return n + n/8 + 1
}

// memoryBytes is what the lists hold: the array and the run headers.
func (l *lists) memoryBytes() int { return 4*cap(l.slab) + runBytes*cap(l.at) }

// sized returns an array of n elements, whose capacity is the whole size
// class its allocation takes: appending to nil rounds the capacity up, so
// the heap holds what cap reports.
func sized(n int) []uint32 { return append([]uint32(nil), make([]uint32, n)...) }
