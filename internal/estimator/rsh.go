package estimator

import (
	"fmt"
	"math/rand"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// defaultRSHGridCells matches the paper's RSH configuration: the reservoir
// is indexed by a 4096-cell grid.
const defaultRSHGridCells = 4096

// ReservoirHashmap is the RSH estimator (Figure 1(b)): the same windowed
// Algorithm R reservoir as RSL, but every retained sample is also threaded
// into a 2-D grid bucket. Spatial and hybrid queries then touch only the
// buckets overlapping the query range instead of scanning the whole list —
// the iteration-overhead reduction the paper credits hybrid structures with.
// Pure keyword queries have no range to prune by; they stream through the
// slot keys and reject on the keyword signature, so they cost a 32-byte
// read per slot plus an exact compare on the few slots whose signature
// hits, not a string scan of the whole reservoir.
//
// The reservoir is a slot-map: samples live in flat parallel arrays (keys
// for every scan's filtering, slots for keyword verification and bucket
// links); each bucket stores slot indices and each slot knows its position
// in its bucket, so replacement and purge are O(1) per sample.
type ReservoirHashmap struct {
	capacity int
	src      *countedSource
	rng      *rand.Rand
	counter  *WindowCounter
	grid     *geo.Grid
	span     int64

	keys    []sampleKey
	slots   []rshSlot // parallel to keys
	buckets [][]int32
}

type rshSlot struct {
	kws  []string
	cell int32
	pos  int32 // index of this slot within buckets[cell]
}

// NewReservoirHashmap builds the RSH estimator.
func NewReservoirHashmap(p Params) *ReservoirHashmap {
	cells := nearestSquare(p.scaledInt(defaultRSHGridCells, 16))
	g := geo.NewSquareGrid(p.World, cells)
	src, rng := newCountedRand(p.Seed + 0x5248)
	return &ReservoirHashmap{
		capacity: p.scaledInt(defaultReservoirCapacity, 64),
		src:      src,
		rng:      rng,
		counter:  NewWindowCounter(p.Span, defaultHistSlices),
		grid:     g,
		span:     p.Span,
		buckets:  make([][]int32, g.NumCells()),
	}
}

// Name implements Estimator.
func (r *ReservoirHashmap) Name() string { return NameRSH }

// Capacity returns the reservoir size.
func (r *ReservoirHashmap) Capacity() int { return r.capacity }

// Len returns the number of retained samples.
func (r *ReservoirHashmap) Len() int { return len(r.keys) }

// detach unlinks slot j from its bucket.
func (r *ReservoirHashmap) detach(j int32) {
	s := &r.slots[j]
	b := r.buckets[s.cell]
	last := int32(len(b) - 1)
	moved := b[last]
	b[s.pos] = moved
	r.slots[moved].pos = s.pos
	r.buckets[s.cell] = b[:last]
}

// attach links slot j (whose location is already set) into its cell bucket.
func (r *ReservoirHashmap) attach(j int32) {
	s := &r.slots[j]
	s.cell = int32(r.grid.CellOf(r.keys[j].loc))
	r.buckets[s.cell] = append(r.buckets[s.cell], j)
	s.pos = int32(len(r.buckets[s.cell]) - 1)
}

// removeSlot purges slot j entirely, swapping the last slot into its place.
func (r *ReservoirHashmap) removeSlot(j int32) {
	r.detach(j)
	last := int32(len(r.keys) - 1)
	if j != last {
		// Move the final slot into j and fix its bucket backlink.
		r.keys[j], r.slots[j] = r.keys[last], r.slots[last]
		r.buckets[r.slots[j].cell][r.slots[j].pos] = j
	}
	r.keys, r.slots = r.keys[:last], r.slots[:last]
}

// Insert implements Estimator. The signature is hashed only for an object
// the reservoir admits.
func (r *ReservoirHashmap) Insert(o *stream.Object) {
	r.counter.Add(o.Timestamp)
	// Lazy purge: retire a few stale slots per insert so expired samples
	// never accumulate past a small fraction of the reservoir.
	r.purgeSome(o.Timestamp-r.span, 4)
	if len(r.keys) < r.capacity {
		j := int32(len(r.keys))
		r.keys = append(r.keys, newSampleKey(o.Timestamp, o.Loc, o.Keywords))
		r.slots = append(r.slots, rshSlot{kws: o.Keywords})
		r.attach(j)
		return
	}
	n := int(r.counter.Live(o.Timestamp))
	if n < r.capacity {
		n = r.capacity
	}
	if j := r.rng.Intn(n); j < r.capacity {
		jj := int32(j)
		r.detach(jj)
		r.keys[jj], r.slots[jj].kws = newSampleKey(o.Timestamp, o.Loc, o.Keywords), o.Keywords
		r.attach(jj)
	}
}

// purgeSome checks up to n random slots and removes expired ones, keeping
// the expired fraction of the reservoir small between query-time purges.
func (r *ReservoirHashmap) purgeSome(cutoff int64, n int) {
	for i := 0; i < n && len(r.keys) > 0; i++ {
		j := int32(r.rng.Intn(len(r.keys)))
		if r.keys[j].ts < cutoff {
			r.removeSlot(j)
		}
	}
}

// Estimate implements Estimator. Spatial and hybrid queries visit only the
// grid buckets overlapping the range; pure keyword queries stream through
// every slot's key. Both paths reject on the keyword signature before they
// look at a slot's keywords.
func (r *ReservoirHashmap) Estimate(q *stream.Query) float64 {
	cutoff := q.Timestamp - r.span
	qsig := keywordSignature(q.Keywords)
	matches := 0
	if q.HasRange {
		cr := r.grid.CellsOverlapping(q.Range)
		r.grid.ForEachCell(cr, func(idx int, cell geo.Rect) bool {
			b := r.buckets[idx]
			for bi := 0; bi < len(b); {
				j := b[bi]
				k := &r.keys[j]
				if k.ts < cutoff {
					r.removeSlot(j) // swaps within this bucket or shrinks it
					b = r.buckets[idx]
					continue
				}
				if qsig == 0 {
					matches += rangeFlag(q, k.loc)
				} else if sampleMayMatch(k, q, qsig) && sharesKeyword(r.slots[j].kws, q.Keywords) {
					matches++
				}
				bi++
			}
			return true
		})
	} else {
		for j := 0; j < len(r.keys); {
			k := &r.keys[j]
			if k.ts < cutoff {
				r.removeSlot(int32(j))
				continue
			}
			if qsig == 0 {
				matches += rangeFlag(q, k.loc)
			} else if sampleMayMatch(k, q, qsig) && sharesKeyword(r.slots[j].kws, q.Keywords) {
				matches++
			}
			j++
		}
	}
	live := len(r.keys)
	if live == 0 {
		return 0
	}
	w := r.counter.Live(q.Timestamp)
	return float64(matches) / float64(live) * w
}

// Observe implements Estimator; sampling estimators ignore feedback.
func (r *ReservoirHashmap) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator. Slot arrays and bucket slices are released,
// not truncated, for the reason ReservoirList.Reset gives.
func (r *ReservoirHashmap) Reset() {
	r.keys, r.slots = nil, nil
	clear(r.buckets)
	r.counter.Reset()
}

// MemoryBytes implements Estimator: 32 bytes of key and 32 of slot per
// retained sample, the bucket index and the arrival counter.
func (r *ReservoirHashmap) MemoryBytes() int {
	b := 64 + 32*cap(r.keys) + 32*cap(r.slots) + r.counter.MemoryBytes()
	for i := range r.buckets {
		b += 4 * cap(r.buckets[i])
	}
	b += 24 * len(r.buckets)
	return b
}

// String summarizes state for diagnostics.
func (r *ReservoirHashmap) String() string {
	return fmt.Sprintf("RSH{cap=%d len=%d cells=%d}", r.capacity, len(r.keys), r.grid.NumCells())
}
