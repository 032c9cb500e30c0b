package estimator

import (
	"math/bits"
	"math/rand/v2"
	"sync"

	"github.com/spatiotext/latest/internal/stream"
)

// Sampler is an estimator whose summary comes from a uniform sample of the
// live window: RSL and RSH keep the sample, SPN fits its model to it and
// drops it. Streaming N objects through Algorithm R only approximates that
// sample, at the price of about k·(1+ln(N/k)) admissions; the window's
// arena holds the exact population, so a sampler can instead draw its
// sample from it outright.
type Sampler interface {
	Estimator
	// Draw wipes the sampler and refills it from w: the arrival counter
	// from the live timestamps, the summary from k distinct live objects
	// chosen with the sampler's own RNG (every one of them when the window
	// holds no more than k). It returns how many objects it drew.
	Draw(w *stream.Window) int
}

// Fitter is an estimator whose model is fitted from the window, not kept
// up by its inserts: SPN, whose Draw is its fit. Whoever owns the window
// hands a due Fitter to Fill before asking it for an estimate.
type Fitter interface {
	// FitDue reports whether the model must be fitted before its next
	// estimate: it never was, or enough inserts have come since it was.
	FitDue() bool
}

// Fill seeds a freshly wiped estimator, or fits a due Fitter, from the
// window store and reports whether it drew and how many objects it read: a
// Sampler draws its sample, FFN, whose Insert does nothing, reads nothing,
// and anything else has every live object replayed into it in arrival
// order.
func Fill(e Estimator, w *stream.Window) (drawn bool, objects int) {
	switch e := e.(type) {
	case Sampler:
		return true, e.Draw(w)
	case *FFN:
		return false, 0
	}
	w.Each(func(o *stream.Object) bool {
		e.Insert(o)
		return true
	})
	return false, w.Size()
}

// drawTarget is what draw needs of a sampler beside its sample size,
// counter and generator: room for the m samples it is about to keep, a way
// to keep one, and a hook that runs once the sample is complete.
type drawTarget interface {
	Reset()
	reserve(m int)
	keep(o *stream.Object)
	kept(now int64)
}

// bitmapPool recycles draw's index bitmaps across samplers and shards.
var bitmapPool = sync.Pool{New: func() any { return new([]uint64) }}

// draw is the one Draw the samplers share. The k indices are Floyd's
// algorithm: for j from N−k to N−1, pick t uniformly in [0, j] and take it,
// or j itself if t is taken already. That is exactly k bounded draws and a
// uniform k-subset; the bitmap then hands the chosen objects over in
// arrival order, which reads the arena front to back.
func draw(s drawTarget, k int, counter *WindowCounter, rng *rand.Rand, w *stream.Window) int {
	s.Reset()
	n := w.Size()
	counter.addSorted(n, w.TimestampAt)
	if n == 0 {
		return 0
	}
	s.reserve(min(k, n))
	var o stream.Object
	if n <= k {
		for i := 0; i < n; i++ {
			w.At(i, &o)
			s.keep(&o)
		}
		s.kept(w.TimestampAt(n - 1))
		return n
	}
	bp := bitmapPool.Get().(*[]uint64)
	words := (n + 63) / 64
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	chosen := (*bp)[:words]
	clear(chosen)
	for j := n - k; j < n; j++ {
		t := rng.IntN(j + 1)
		if chosen[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		chosen[t>>6] |= 1 << (t & 63)
	}
	for wi, word := range chosen {
		for ; word != 0; word &= word - 1 {
			w.At(wi<<6|bits.TrailingZeros64(word), &o)
			s.keep(&o)
		}
	}
	bitmapPool.Put(bp)
	s.kept(w.TimestampAt(n - 1))
	return k
}

// Draw implements Sampler.
func (r *ReservoirList) Draw(w *stream.Window) int { return draw(r, r.capacity, r.counter, r.rng, w) }

// Draw implements Sampler.
func (r *ReservoirHashmap) Draw(w *stream.Window) int {
	return draw(r, r.capacity, r.counter, r.rng, w)
}

func (r *reservoir) keep(o *stream.Object) { r.add(o.Timestamp, r.lat.Snap(o.Loc), o.Keywords) }

// kept posts the drawn sample: a full reservoir is tight.
func (r *reservoir) kept(int64) { r.postAll(len(r.ts) == r.capacity) }

func (r *ReservoirHashmap) reserve(m int) {
	r.sampleStore.reserve(m)
	r.links = make([]uint16, 0, m)
}

// keep stores a drawn sample; kept posts and buckets them all.
func (r *ReservoirHashmap) keep(o *stream.Object) {
	r.reservoir.keep(o)
	r.pushLink()
}

// kept builds the bucket index of a drawn sample in two passes, numbering
// each slot within its cell and then cutting every bucket to its size at
// once, instead of growing thousands of buckets one slot at a time.
func (r *ReservoirHashmap) kept(now int64) {
	r.reservoir.kept(now)
	sizes := make([]uint32, r.grid.NumCells())
	for j := range int32(len(r.links)) {
		cell := r.cellOf(j)
		r.setLink(j, sizes[cell])
		sizes[cell]++
	}
	r.buckets.reset(sizes)
	for j := range int32(len(r.links)) {
		r.buckets.set(r.cellOf(j), int(r.link(j)), uint32(j))
	}
}
