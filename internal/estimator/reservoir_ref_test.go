package estimator

import (
	"math/rand/v2"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// refRSL and refRSH are the reservoirs as they were before the keyword
// index: a list of whole samples, every estimate a scan that purges by
// swap-from-last and tests the plain RC-DVQ predicate on each survivor. The
// differential test drives them beside the real ones, which must agree to
// the bit — estimate, Len, image — because they claim to change only how
// the count is reached. They draw from the same RNG stream in the same
// order, so slot layouts coincide. A sample keeps its location as the
// float of its lattice point, and the predicate snaps the range as the
// real ones do.

// sample is a reference reservoir's retained object, with its own copy of
// the keywords.
type sample struct {
	loc geo.Point
	kws []string
	ts  int64
}

type refReservoir struct {
	lat      geo.Lattice
	capacity int
	src      *rand.PCG
	rng      *rand.Rand
	counter  *WindowCounter
	span     int64
	samples  []sample
}

func newRefReservoir(p Params, seed int64) refReservoir {
	src, rng := newRand(p.Seed + seed)
	return refReservoir{
		lat:      geo.NewLattice(p.World),
		capacity: p.scaledInt(defaultReservoirCapacity, 64),
		src:      src,
		rng:      rng,
		counter:  NewWindowCounter(p.Span, defaultHistSlices),
		span:     p.Span,
	}
}

func (r *refReservoir) Len() int { return len(r.samples) }

func (r *refReservoir) sampleOf(o *stream.Object) sample {
	return sample{loc: r.lat.Unsnap(r.lat.Snap(o.Loc)), kws: append([]string(nil), o.Keywords...), ts: o.Timestamp}
}

func (r *refReservoir) matches(s *sample, q *stream.Query) bool {
	if q.HasRange && !r.lat.SnapRect(q.Range).Contains(r.lat.Snap(s.loc)) {
		return false
	}
	return len(q.Keywords) == 0 || (&stream.Object{Keywords: s.kws}).MatchesAny(q.Keywords)
}

// save writes s as the real reservoirs write a sample.
func (r *refReservoir) save(e *persist.Enc, s sample) {
	p := r.lat.Snap(s.loc)
	e.U32(p.X)
	e.U32(p.Y)
	e.I64(s.ts)
	e.Strs(s.kws)
}

func (r *refReservoir) estimate(matches int, now int64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return float64(matches) / float64(len(r.samples)) * r.counter.Live(now)
}

func (r *refReservoir) saveHeader(e *persist.Enc) {
	saveRNG(e, r.src)
	r.counter.SaveState(e)
	e.U32(uint32(len(r.samples)))
}

type refRSL struct{ refReservoir }

func newRefRSL(p Params) *refRSL { return &refRSL{newRefReservoir(p, 0x5271)} }

func (r *refRSL) Insert(o *stream.Object) {
	r.counter.Add(o.Timestamp)
	if len(r.samples) < r.capacity {
		r.samples = append(r.samples, r.sampleOf(o))
		return
	}
	n := int(r.counter.Live(o.Timestamp))
	if n < r.capacity {
		n = r.capacity
	}
	if j := r.rng.IntN(n); j < r.capacity {
		r.samples[j] = r.sampleOf(o)
	}
}

func (r *refRSL) Estimate(q *stream.Query) float64 {
	cutoff := q.Timestamp - r.span
	matches := 0
	for i := 0; i < len(r.samples); {
		if r.samples[i].ts < cutoff {
			last := len(r.samples) - 1
			r.samples[i] = r.samples[last]
			r.samples = r.samples[:last]
			continue
		}
		if r.matches(&r.samples[i], q) {
			matches++
		}
		i++
	}
	return r.estimate(matches, q.Timestamp)
}

func (r *refRSL) Reset() {
	r.samples = nil
	r.counter.Reset()
}

func (r *refRSL) SaveState(e *persist.Enc) {
	r.saveHeader(e)
	for _, s := range r.samples {
		r.save(e, s)
	}
}

type refRSH struct {
	refReservoir
	grid    *geo.Grid
	links   []refLink
	buckets [][]int32
}

type refLink struct {
	cell int32
	pos  int32 // index of this slot within buckets[cell]
}

func newRefRSH(p Params) *refRSH {
	g := geo.NewSquareGrid(p.World, nearestSquare(p.scaledInt(defaultRSHGridCells, 16)))
	return &refRSH{refReservoir: newRefReservoir(p, 0x5248), grid: g, buckets: make([][]int32, g.NumCells())}
}

func (r *refRSH) detach(j int32) {
	l := r.links[j]
	b := r.buckets[l.cell]
	last := int32(len(b) - 1)
	moved := b[last]
	b[l.pos] = moved
	r.links[moved].pos = l.pos
	r.buckets[l.cell] = b[:last]
}

func (r *refRSH) attach(j int32) {
	cell := int32(r.grid.CellOf(r.samples[j].loc))
	r.buckets[cell] = append(r.buckets[cell], j)
	r.links[j] = refLink{cell, int32(len(r.buckets[cell]) - 1)}
}

func (r *refRSH) removeSlot(j int32) {
	r.detach(j)
	last := int32(len(r.samples) - 1)
	if j != last {
		r.samples[j], r.links[j] = r.samples[last], r.links[last]
		r.buckets[r.links[j].cell][r.links[j].pos] = j
	}
	r.samples, r.links = r.samples[:last], r.links[:last]
}

func (r *refRSH) Insert(o *stream.Object) {
	r.counter.Add(o.Timestamp)
	cutoff := o.Timestamp - r.span
	for i := 0; i < 4 && len(r.samples) > 0; i++ {
		if j := int32(r.rng.IntN(len(r.samples))); r.samples[j].ts < cutoff {
			r.removeSlot(j)
		}
	}
	if len(r.samples) < r.capacity {
		r.samples, r.links = append(r.samples, r.sampleOf(o)), append(r.links, refLink{})
		r.attach(int32(len(r.samples) - 1))
		return
	}
	n := int(r.counter.Live(o.Timestamp))
	if n < r.capacity {
		n = r.capacity
	}
	if j := r.rng.IntN(n); j < r.capacity {
		r.detach(int32(j))
		r.samples[j] = r.sampleOf(o)
		r.attach(int32(j))
	}
}

func (r *refRSH) Estimate(q *stream.Query) float64 {
	cutoff := q.Timestamp - r.span
	matches := 0
	if q.HasRange {
		r.grid.ForEachCell(r.grid.Span(q.Range), func(idx int, _ geo.Rect) bool {
			b := r.buckets[idx]
			for bi := 0; bi < len(b); {
				j := b[bi]
				if r.samples[j].ts < cutoff {
					r.removeSlot(j)
					b = r.buckets[idx]
					continue
				}
				if r.matches(&r.samples[j], q) {
					matches++
				}
				bi++
			}
			return true
		})
	} else {
		for j := 0; j < len(r.samples); {
			if r.samples[j].ts < cutoff {
				r.removeSlot(int32(j))
				continue
			}
			if r.matches(&r.samples[j], q) {
				matches++
			}
			j++
		}
	}
	return r.estimate(matches, q.Timestamp)
}

func (r *refRSH) Reset() {
	r.samples, r.links = nil, nil
	clear(r.buckets)
	r.counter.Reset()
}

func (r *refRSH) SaveState(e *persist.Enc) {
	r.saveHeader(e)
	for i, s := range r.samples {
		r.save(e, s)
		e.U32(uint32(r.links[i].pos))
	}
}
