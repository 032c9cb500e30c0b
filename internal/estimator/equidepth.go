package estimator

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// Equi-depth histogram defaults.
const (
	defaultEDColumns   = 16 // k: k×k buckets total
	defaultEDSampleCap = 8192
	defaultEDRebuild   = 4096 // inserts between boundary rebuilds
)

// NameED is the equi-depth histogram's registry name. It is not part of
// the paper's six-estimator fleet; RegisterExtras adds it for
// installations that want a skew-robust spatial estimator (§IV mentions
// non-uniform binning as a hybrid-structure variant, and the paper cites
// Muralikrishna & DeWitt's equi-depth multidimensional histograms).
const NameED = "ED"

// EquiDepth is a two-dimensional equi-depth histogram over the sliding
// window: bucket boundaries adapt so each bucket holds roughly the same
// number of points, making the per-bucket uniformity assumption far safer
// under spatial skew than the equi-width H4096. Boundaries are recomputed
// periodically from a windowed reservoir sample (the classic
// rebuild-from-sample approach); between rebuilds the sample itself
// provides the per-bucket masses, so estimates track the window even as
// boundaries age.
//
// Like H4096 it keeps purely spatial statistics: keyword predicates are
// ignored, pure keyword queries fall back to the window count.
type EquiDepth struct {
	world   geo.Rect
	span    int64
	k       int
	counter *WindowCounter
	src     *countedSource
	rng     *rand.Rand

	capacity     int
	samples      []sample
	sinceRebuild int
	rebuilds     int

	// xCuts[i] is the right edge of column i (len k, last = world MaxX);
	// yCuts[c][i] is the top edge of bucket i in column c.
	xCuts []float64
	yCuts [][]float64
	built bool
}

// NewEquiDepth builds the estimator; p.Scale multiplies the sample
// capacity and the bucket count.
func NewEquiDepth(p Params) *EquiDepth {
	k := p.scaledInt(defaultEDColumns, 4)
	src, rng := newCountedRand(p.Seed + 0x4544)
	return &EquiDepth{
		world:    p.World,
		span:     p.Span,
		k:        k,
		counter:  NewWindowCounter(p.Span, defaultHistSlices),
		src:      src,
		rng:      rng,
		capacity: p.scaledInt(defaultEDSampleCap, 64),
	}
}

// RegisterExtras adds the optional non-paper estimators to a registry.
func RegisterExtras(r *Registry) {
	r.Register(NameED, func(p Params) Estimator { return NewEquiDepth(p) })
}

// Name implements Estimator.
func (e *EquiDepth) Name() string { return NameED }

// Columns returns k (the histogram is k×k buckets).
func (e *EquiDepth) Columns() int { return e.k }

// Rebuilds reports how many boundary recomputations have run.
func (e *EquiDepth) Rebuilds() int { return e.rebuilds }

// Insert implements Estimator: windowed reservoir sampling plus periodic
// boundary rebuilds.
func (e *EquiDepth) Insert(o *stream.Object) {
	e.counter.Add(o.Timestamp)
	s := sample{loc: o.Loc, ts: o.Timestamp}
	if len(e.samples) < e.capacity {
		e.samples = append(e.samples, s)
	} else {
		n := int(e.counter.Live(o.Timestamp))
		if n < e.capacity {
			n = e.capacity
		}
		if j := e.rng.Intn(n); j < e.capacity {
			e.samples[j] = s
		}
	}
	e.sinceRebuild++
	if e.sinceRebuild >= defaultEDRebuild || !e.built {
		e.rebuild(o.Timestamp)
	}
}

// rebuild purges expired samples and recomputes equi-depth boundaries.
func (e *EquiDepth) rebuild(now int64) {
	cutoff := now - e.span
	for i := 0; i < len(e.samples); {
		if e.samples[i].ts < cutoff {
			e.samples[i] = e.samples[len(e.samples)-1]
			e.samples = e.samples[:len(e.samples)-1]
			continue
		}
		i++
	}
	e.sinceRebuild = 0
	if len(e.samples) < e.k*e.k {
		e.built = false
		return
	}
	e.rebuilds++

	// Column cuts: x-quantiles of the sample.
	xs := make([]float64, len(e.samples))
	for i := range e.samples {
		xs[i] = e.samples[i].loc.X
	}
	sort.Float64s(xs)
	e.xCuts = quantileCuts(xs, e.k, e.world.MaxX)

	// Row cuts per column: y-quantiles of the column's members.
	cols := make([][]float64, e.k)
	for i := range e.samples {
		c := e.columnOf(e.samples[i].loc.X)
		cols[c] = append(cols[c], e.samples[i].loc.Y)
	}
	e.yCuts = make([][]float64, e.k)
	for c := range cols {
		sort.Float64s(cols[c])
		if len(cols[c]) == 0 {
			// Empty column: uniform cuts.
			e.yCuts[c] = uniformCuts(e.world.MinY, e.world.MaxY, e.k)
			continue
		}
		e.yCuts[c] = quantileCuts(cols[c], e.k, e.world.MaxY)
	}
	e.built = true
}

// quantileCuts returns k right-edges splitting sorted values into k
// near-equal parts; the final edge is forced to worldMax so the buckets
// tile the domain.
func quantileCuts(sorted []float64, k int, worldMax float64) []float64 {
	cuts := make([]float64, k)
	n := len(sorted)
	for i := 0; i < k-1; i++ {
		idx := (i + 1) * n / k
		if idx >= n {
			idx = n - 1
		}
		cuts[i] = sorted[idx]
	}
	cuts[k-1] = worldMax
	// Enforce monotonicity under duplicate values.
	for i := 1; i < k; i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	return cuts
}

func uniformCuts(lo, hi float64, k int) []float64 {
	cuts := make([]float64, k)
	for i := 0; i < k; i++ {
		cuts[i] = lo + (hi-lo)*float64(i+1)/float64(k)
	}
	return cuts
}

// columnOf locates x's column by binary search over the cuts.
func (e *EquiDepth) columnOf(x float64) int {
	c := sort.SearchFloat64s(e.xCuts, x)
	if c >= e.k {
		c = e.k - 1
	}
	return c
}

// bucketRect returns bucket (c, r)'s rectangle.
func (e *EquiDepth) bucketRect(c, r int) geo.Rect {
	minX := e.world.MinX
	if c > 0 {
		minX = e.xCuts[c-1]
	}
	minY := e.world.MinY
	if r > 0 {
		minY = e.yCuts[c][r-1]
	}
	return geo.Rect{MinX: minX, MinY: minY, MaxX: e.xCuts[c], MaxY: e.yCuts[c][r]}
}

// Estimate implements Estimator. The sample provides per-bucket masses;
// boundaries provide the partial-overlap interpolation.
func (e *EquiDepth) Estimate(q *stream.Query) float64 {
	w := e.counter.Live(q.Timestamp)
	if !q.HasRange {
		// No spatial statistics apply: honest fallback, exactly like H4096.
		return w
	}
	if !e.built || len(e.samples) == 0 {
		// Boundaries unavailable: fall back to a full uniform assumption —
		// the range's share of the world's area.
		return w * q.Range.Intersect(e.world).Area() / e.world.Area()
	}
	cutoff := q.Timestamp - e.span
	// Per-bucket live sample counts.
	bucketCount := make([]float64, e.k*e.k)
	live := 0.0
	for i := range e.samples {
		if e.samples[i].ts < cutoff {
			continue
		}
		live++
		c := e.columnOf(e.samples[i].loc.X)
		r := sort.SearchFloat64s(e.yCuts[c], e.samples[i].loc.Y)
		if r >= e.k {
			r = e.k - 1
		}
		bucketCount[c*e.k+r]++
	}
	if live == 0 {
		return 0
	}
	frac := 0.0
	for c := 0; c < e.k; c++ {
		colRect := geo.Rect{MinX: e.world.MinX, MinY: e.world.MinY, MaxX: e.xCuts[c], MaxY: e.world.MaxY}
		if c > 0 {
			colRect.MinX = e.xCuts[c-1]
		}
		if !colRect.Intersects(q.Range) {
			continue
		}
		for r := 0; r < e.k; r++ {
			n := bucketCount[c*e.k+r]
			if n == 0 {
				continue
			}
			b := e.bucketRect(c, r)
			if q.Range.ContainsRect(b) {
				frac += n
			} else if b.Intersects(q.Range) {
				frac += n * q.Range.OverlapFraction(b)
			}
		}
	}
	return frac / live * w
}

// Observe implements Estimator; no feedback learning.
func (e *EquiDepth) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator; the sample array is released, not truncated.
func (e *EquiDepth) Reset() {
	e.samples = nil
	e.counter.Reset()
	e.built = false
	e.sinceRebuild = 0
}

// MemoryBytes implements Estimator.
func (e *EquiDepth) MemoryBytes() int {
	return 64 + 32*cap(e.samples) + 8*e.k*(e.k+1) + e.counter.MemoryBytes()
}

// String summarizes state for diagnostics.
func (e *EquiDepth) String() string {
	return fmt.Sprintf("ED{k=%d samples=%d rebuilds=%d}", e.k, len(e.samples), e.rebuilds)
}
