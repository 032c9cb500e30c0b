package estimator

import (
	"fmt"
	"math/rand/v2"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// defaultReservoirCapacity is the sampling list size at Scale=1. The paper
// uses one million objects against a 75M-object stream; this default keeps
// the same ~2% sampling ratio against this repository's synthetic streams.
const defaultReservoirCapacity = 16384

// reservoir is what RSL and RSH share: Vitter's Algorithm R over the
// sliding window, on a sampleStore. Each arrival replaces a random slot
// with probability capacity/|window arrivals|, which keeps the samples
// approximately uniform over the live window; expired samples are purged
// lazily, at query time. Estimates are the matching sample fraction scaled
// by the windowed arrival count.
type reservoir struct {
	lat      geo.Lattice // samples are snapped onto it as they are kept
	capacity int
	src      *rand.PCG
	rng      *rand.Rand
	counter  *WindowCounter
	span     int64
	sampleStore
}

// newReservoir builds a reservoir of the given capacity whose generator is
// seeded with p.Seed plus salt, which tells the samplers' streams apart.
func newReservoir(p Params, salt int64, capacity int) reservoir {
	src, rng := newRand(p.Seed + salt)
	return reservoir{
		lat:      geo.NewLattice(p.World),
		capacity: capacity,
		src:      src,
		rng:      rng,
		counter:  NewWindowCounter(p.Span, defaultHistSlices),
		span:     p.Span,
	}
}

// Capacity returns the reservoir size.
func (r *reservoir) Capacity() int { return r.capacity }

// Len returns the current number of retained samples (live or not yet
// purged).
func (r *reservoir) Len() int { return len(r.ts) }

// admit counts an arrival at ts and returns the slot its sample goes to —
// the next free one, or a drawn one whose sample it replaces — or -1 when
// the draw rejects it. Only an admitted object pays for the keyword index.
func (r *reservoir) admit(ts int64) int32 {
	r.counter.Add(ts)
	if len(r.ts) < r.capacity {
		return int32(len(r.ts))
	}
	n := int(r.counter.Live(ts))
	if n < r.capacity {
		n = r.capacity
	}
	if j := r.rng.IntN(n); j < r.capacity {
		return int32(j)
	}
	return -1
}

// purge removes every sample older than cutoff, in the plain list's
// swap-from-last walk.
func (r *reservoir) purge(cutoff int64) {
	for i := r.nextExpired(0, cutoff); i >= 0; i = r.nextExpired(i, cutoff) {
		r.remove(i)
	}
}

// estimate scales a count of matching samples to the window.
func (r *reservoir) estimate(matches int, now int64) float64 {
	live := len(r.ts)
	if live == 0 {
		return 0
	}
	return float64(matches) / float64(live) * r.counter.Live(now)
}

// Observe implements Estimator; sampling estimators ignore feedback.
func (r *reservoir) Observe(q *stream.Query, actual float64) {}

// ReservoirList is the RSL estimator: the reservoir as a plain list
// (Figure 1(b)'s list without the grid). Every estimate walks all of it for
// expired samples; a range is then counted over the dense locations and a
// keyword predicate from the store's posting lists.
type ReservoirList struct{ reservoir }

// NewReservoirList builds the RSL estimator.
func NewReservoirList(p Params) *ReservoirList {
	return &ReservoirList{newReservoir(p, 0x5271, p.scaledInt(defaultReservoirCapacity, 64))}
}

// Name implements Estimator.
func (r *ReservoirList) Name() string { return NameRSL }

// Insert implements Estimator.
func (r *ReservoirList) Insert(o *stream.Object) {
	if j := r.admit(o.Timestamp); j >= 0 {
		r.put(j, o.Timestamp, r.lat.Snap(o.Loc), o.Keywords, r.capacity)
	}
}

// Estimate implements Estimator. The walk purges expired samples in place,
// so the sample set self-cleans at query time.
func (r *ReservoirList) Estimate(q *stream.Query) float64 {
	r.purge(q.Timestamp - r.span)
	matches := len(r.ts)
	rng := r.lat.SnapRect(q.Range)
	switch {
	case len(q.Keywords) > 0:
		r.resolve(q.Keywords)
		matches = r.countPostings(q, rng)
	case q.HasRange:
		matches = countInRange(rng, r.loc)
	}
	return r.estimate(matches, q.Timestamp)
}

// countInRange counts the lattice points r contains, as inRange tests
// them, with no data-dependent branch: the range test comes out close to
// even on real queries, where a mispredicted branch costs more than the
// test.
func countInRange(r geo.LRect, ps []geo.LPoint) int {
	n, x0, y0, w, h := 0, r.MinX, r.MinY, r.MaxX-r.MinX, r.MaxY-r.MinY
	for _, p := range ps {
		n += b2i(uint64(p.X)-x0 < w) & b2i(uint64(p.Y)-y0 < h)
	}
	return n
}

// inRange is 1 if r contains p (geo.LRect.Contains), else 0.
func inRange(r geo.LRect, p geo.LPoint) int { return b2i(r.Contains(p)) }

// b2i compiles to a flag materialization, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Reset implements Estimator. The store is released, not truncated: an
// idle reservoir must not pin its arrays nor, through stale entries, the
// keyword strings of objects long evicted.
func (r *ReservoirList) Reset() {
	r.sampleStore = sampleStore{}
	r.counter.Reset()
}

// MemoryBytes implements Estimator: the store and the arrival counter.
func (r *ReservoirList) MemoryBytes() int {
	return 64 + r.memoryBytes() + r.counter.MemoryBytes()
}

// String summarizes state for diagnostics.
func (r *ReservoirList) String() string {
	return fmt.Sprintf("RSL{cap=%d len=%d}", r.capacity, r.Len())
}
