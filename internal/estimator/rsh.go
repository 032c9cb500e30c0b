package estimator

import (
	"fmt"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// defaultRSHGridCells matches the paper's RSH configuration: the reservoir
// is indexed by a 4096-cell grid.
const defaultRSHGridCells = 4096

// ReservoirHashmap is the RSH estimator (Figure 1(b)): the same windowed
// Algorithm R reservoir as RSL, but every retained sample is also threaded
// into a 2-D grid bucket. Spatial and hybrid queries then touch only the
// buckets overlapping the query range instead of walking the whole list —
// the iteration-overhead reduction the paper credits hybrid structures with
// — and pure keyword queries, which have no range to prune by, read the
// store's posting lists.
//
// The reservoir is a slot-map: each bucket lists slot numbers and each slot
// knows its position in its bucket, so replacement and purge are O(1) per
// sample on the spatial side as they are O(keywords) on the textual. A
// slot's bucket is its sample's cell, which is recomputed rather than kept.
type ReservoirHashmap struct {
	reservoir
	grid    *geo.Grid
	links   []uint16 // by slot, its index within its bucket
	linksHi []uint16 // bits 16–31 of the links once one needs them
	buckets lists    // slots by cell; none while the store is empty
}

// NewReservoirHashmap builds the RSH estimator.
func NewReservoirHashmap(p Params) *ReservoirHashmap {
	cells := nearestSquare(p.scaledInt(defaultRSHGridCells, 16))
	g := geo.NewSquareGrid(p.World, cells)
	return &ReservoirHashmap{reservoir: newReservoir(p, 0x5248, p.scaledInt(defaultReservoirCapacity, 64)), grid: g}
}

// Name implements Estimator.
func (r *ReservoirHashmap) Name() string { return NameRSH }

// cellOf returns the bucket of slot j, the cell of its sample.
func (r *ReservoirHashmap) cellOf(j int32) int { return r.grid.CellOfL(r.loc[j]) }

// link returns slot j's index within its bucket.
func (r *ReservoirHashmap) link(j int32) uint32 {
	return uint32(r.links[j]) | uint32(high(r.linksHi, int(j)))<<16
}

// setLink sets slot j's index within its bucket.
func (r *ReservoirHashmap) setLink(j int32, pos uint32) {
	r.links[j] = uint16(pos)
	setHigh(&r.linksHi, len(r.links), cap(r.links), int(j), uint16(pos>>16))
}

// pushLink appends a link for a new last slot, to be set.
func (r *ReservoirHashmap) pushLink() {
	r.links, r.linksHi = append(r.links, 0), grow(r.linksHi)
}

// detach unlinks slot j from its bucket.
func (r *ReservoirHashmap) detach(j int32) {
	pos := r.link(j)
	moved, _ := r.buckets.remove(r.cellOf(j), pos)
	r.setLink(int32(moved), pos)
}

// attach links slot j (whose location is already set) at the end of its
// cell's bucket, which grows as the store's posting lists do.
func (r *ReservoirHashmap) attach(j int32) {
	r.setLink(j, r.buckets.push(r.cellOf(j), uint32(j), r.tight))
}

// removeSlot purges slot j entirely, swapping the last slot into its place.
func (r *ReservoirHashmap) removeSlot(j int32) {
	r.detach(j)
	last := int32(len(r.ts) - 1)
	if r.remove(j) {
		// The final slot moved into j: fix its bucket backlink.
		pos := r.link(last)
		r.setLink(j, pos)
		r.buckets.set(r.cellOf(j), int(pos), uint32(j))
	}
	r.links = r.links[:len(r.ts)]
	if r.linksHi != nil {
		r.linksHi = r.linksHi[:len(r.ts)]
	}
	if len(r.ts) == 0 {
		// As the store released itself. The bucket index stays until the
		// caller's releaseEmptied: Estimate's bucket walk may be what got here.
		r.links, r.linksHi = nil, nil
	}
}

// releaseEmptied drops the bucket index once a purge has emptied the store.
// Whoever calls removeSlot calls this when it has finished with the buckets.
func (r *ReservoirHashmap) releaseEmptied() {
	if len(r.ts) == 0 {
		r.buckets = lists{}
	}
}

// Insert implements Estimator.
func (r *ReservoirHashmap) Insert(o *stream.Object) {
	// Lazy purge: retire a few stale slots per insert so expired samples
	// never accumulate past a small fraction of the reservoir.
	r.purgeSome(o.Timestamp-r.span, 4)
	j := r.admit(o.Timestamp)
	if j < 0 {
		return
	}
	if int(j) < len(r.ts) {
		r.detach(j)
	} else {
		if r.buckets.at == nil {
			r.buckets.reset(make([]uint32, r.grid.NumCells()))
		}
		r.pushLink()
	}
	tightened := r.put(j, o.Timestamp, r.lat.Snap(o.Loc), o.Keywords, r.capacity)
	r.attach(j)
	if tightened {
		r.buckets.cut(-1, 0)
	}
}

// purgeSome checks up to n random slots and removes expired ones, keeping
// the expired fraction of the reservoir small between query-time purges.
func (r *ReservoirHashmap) purgeSome(cutoff int64, n int) {
	for i := 0; i < n && len(r.ts) > 0; i++ {
		j := int32(r.rng.IntN(len(r.ts)))
		if r.tsAt(j) < cutoff {
			r.removeSlot(j)
		}
	}
	r.releaseEmptied()
}

// Estimate implements Estimator. A query with a range walks the grid
// buckets overlapping it, and purges expired samples from those buckets
// only; a pure keyword query purges the whole store, as RSL does, and
// counts from the posting lists.
func (r *ReservoirHashmap) Estimate(q *stream.Query) float64 {
	cutoff := q.Timestamp - r.span
	if !q.HasRange {
		for i := r.nextExpired(0, cutoff); i >= 0; i = r.nextExpired(i, cutoff) {
			r.removeSlot(i)
		}
		r.releaseEmptied()
		matches := len(r.ts)
		if len(q.Keywords) > 0 {
			r.resolve(q.Keywords)
			matches = r.countPostings(q, geo.LRect{})
		}
		return r.estimate(matches, q.Timestamp)
	}
	if r.buckets.at == nil { // no sample, no bucket to walk
		return 0
	}
	rng := r.lat.SnapRect(q.Range)
	cr := r.grid.SpanL(rng)
	// A hybrid query is counted through the posting lists when they are
	// shorter than the buckets, which are then walked for the purge alone.
	// The keywords are resolved before that purge, which is safe: a purge
	// only frees IDs, and a freed ID has no postings and no references.
	spatial := len(q.Keywords) == 0
	viaPostings := false
	if !spatial {
		bucketed := 0
		for row := cr.RowMin; row <= cr.RowMax; row++ {
			for idx := row*r.grid.Cols + cr.ColMin; idx <= row*r.grid.Cols+cr.ColMax; idx++ {
				bucketed += r.buckets.size(idx)
			}
		}
		viaPostings = r.resolve(q.Keywords) <= bucketed
	}
	matches := 0
	for row := cr.RowMin; row <= cr.RowMax; row++ {
		for idx := row*r.grid.Cols + cr.ColMin; idx <= row*r.grid.Cols+cr.ColMax; idx++ {
			b, hi := r.buckets.get(idx)
			for bi := 0; bi < len(b); {
				j := int32(join(b, hi, bi))
				if r.tsAt(j) < cutoff {
					r.removeSlot(j) // swaps within this bucket or shrinks it
					b, hi = r.buckets.get(idx)
					continue
				}
				bi++
				switch {
				case viaPostings:
				case spatial:
					matches += inRange(rng, r.loc[j])
				case rng.Contains(r.loc[j]) && r.carriesAny(j):
					matches++
				}
			}
		}
	}
	r.releaseEmptied()
	if viaPostings {
		matches = r.countPostings(q, rng)
	}
	return r.estimate(matches, q.Timestamp)
}

// Reset implements Estimator. Store, links and the bucket index are
// released, not truncated, for the reason ReservoirList.Reset gives.
func (r *ReservoirHashmap) Reset() {
	r.sampleStore, r.links, r.linksHi, r.buckets = sampleStore{}, nil, nil, lists{}
	r.counter.Reset()
}

// MemoryBytes implements Estimator: the store, two bytes of bucket link
// per slot (four once a link needs more), the bucket index and the
// arrival counter.
func (r *ReservoirHashmap) MemoryBytes() int {
	return 64 + r.memoryBytes() + 2*(cap(r.links)+cap(r.linksHi)) + r.buckets.memoryBytes() + r.counter.MemoryBytes()
}

// String summarizes state for diagnostics.
func (r *ReservoirHashmap) String() string {
	return fmt.Sprintf("RSH{cap=%d len=%d cells=%d}", r.capacity, r.Len(), r.grid.NumCells())
}
