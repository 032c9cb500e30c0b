package estimator

import (
	"fmt"
	"math/rand/v2"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/kmv"
	"github.com/spatiotext/latest/internal/spn"
	"github.com/spatiotext/latest/internal/stream"
)

// SPN estimator defaults.
const (
	defaultSPNComponents = 8
	defaultSPNBins       = 32
	defaultSPNKwBuckets  = 64
	defaultSPNSampleCap  = 4096 // objects a fit draws
	defaultSPNRetrain    = 4096 // inserts between fits
)

// SPNEstimator is the data-driven sum-product network baseline: a model of
// the window fitted to a uniform sample of it, answering queries as model
// probability × windowed arrival count. The periodic full refit is the
// paper's core criticism of data-driven models on streams ("very high
// computational intensity to update the model with high-velocity data")
// and dominates this estimator's maintenance cost.
//
// SPN keeps a model, not a sample. Insert only counts. A fit is due once
// retrainEvery inserts have come since the last one, or while the model
// has never been fitted (FitDue); Draw is the fit: it draws the sample from
// the window, fits the network to it and drops it. Whoever owns the window
// draws a due SPN before asking it for an estimate (core.Config.Refill),
// so only an estimate that needs a fit causes one, and the fit is not part
// of the estimate's latency. An SPN nobody draws keeps its last model and
// answers 0 before its first.
type SPNEstimator struct {
	world   geo.Rect
	net     *spn.Network
	counter *WindowCounter
	k       int // objects a fit draws
	src     *rand.PCG
	rng     *rand.Rand

	inserts      int // since the last fit
	retrainEvery int
	retrains     int
}

// NewSPN builds the estimator; p.Scale multiplies the component count and
// the fit's sample size.
func NewSPN(p Params) *SPNEstimator {
	src, rng := newRand(p.Seed + 0x53504E)
	return &SPNEstimator{
		world: p.World,
		net: spn.New(spn.Config{
			Components: p.scaledInt(defaultSPNComponents, 2),
			XBins:      p.scaledInt(defaultSPNBins, 8),
			YBins:      p.scaledInt(defaultSPNBins, 8),
			KwBuckets:  defaultSPNKwBuckets,
			Seed:       p.Seed + 0x53504E,
		}),
		counter:      NewWindowCounter(p.Span, defaultHistSlices),
		k:            p.scaledInt(defaultSPNSampleCap, 64),
		src:          src,
		rng:          rng,
		retrainEvery: defaultSPNRetrain,
	}
}

// Name implements Estimator.
func (s *SPNEstimator) Name() string { return NameSPN }

// Retrains returns how many fits have run, a cost the ablation benchmarks
// report.
func (s *SPNEstimator) Retrains() int { return s.retrains }

// Insert implements Estimator: it counts the arrival.
func (s *SPNEstimator) Insert(o *stream.Object) {
	s.counter.Add(o.Timestamp)
	s.inserts++
}

// FitDue implements Fitter.
func (s *SPNEstimator) FitDue() bool { return !s.net.Trained() || s.inserts >= s.retrainEvery }

// Draw implements Sampler, and is SPN's one fit: the counter recounted from
// w, k objects drawn from it, the network fitted to them and the training
// set dropped.
func (s *SPNEstimator) Draw(w *stream.Window) int {
	return draw(&spnFit{SPNEstimator: s}, s.k, s.counter, s.rng, w)
}

// spnFit is the training set of one fit, which a draw builds.
type spnFit struct {
	*SPNEstimator
	train []spn.Sample
	kwb   []int // the samples' keyword buckets, in one array
}

func (f *spnFit) reserve(m int) { f.train = make([]spn.Sample, 0, m) }

// keep adds a drawn object to the training set: its point normalised to the
// world, and each keyword's hash bucket.
func (f *spnFit) keep(o *stream.Object) {
	x := spn.Sample{
		X: (o.Loc.X - f.world.MinX) / f.world.Width(),
		Y: (o.Loc.Y - f.world.MinY) / f.world.Height(),
	}
	if n := len(f.kwb); len(o.Keywords) > 0 {
		for _, kw := range o.Keywords {
			f.kwb = append(f.kwb, int(kmv.Hash64(kw)%defaultSPNKwBuckets))
		}
		x.KwB = f.kwb[n:len(f.kwb):len(f.kwb)]
	}
	f.train = append(f.train, x)
}

// kept fits the network to the training set.
func (f *spnFit) kept(int64) {
	f.net.Train(f.train)
	f.retrains++
}

func (s *SPNEstimator) kwBuckets(kws []string) []int {
	if len(kws) == 0 {
		return nil
	}
	out := make([]int, len(kws))
	for i, kw := range kws {
		out[i] = int(kmv.Hash64(kw) % defaultSPNKwBuckets)
	}
	return out
}

// Estimate implements Estimator.
func (s *SPNEstimator) Estimate(q *stream.Query) float64 {
	if !s.net.Trained() {
		return 0
	}
	rq := spn.RangeQuery{KwB: s.kwBuckets(q.Keywords)}
	if q.HasRange {
		rq.HasRange = true
		rq.XLo = (q.Range.MinX - s.world.MinX) / s.world.Width()
		rq.XHi = (q.Range.MaxX - s.world.MinX) / s.world.Width()
		rq.YLo = (q.Range.MinY - s.world.MinY) / s.world.Height()
		rq.YHi = (q.Range.MaxY - s.world.MinY) / s.world.Height()
	}
	return s.net.Prob(rq) * s.counter.Live(q.Timestamp)
}

// Observe implements Estimator; SPN learns from the data, not from
// feedback.
func (s *SPNEstimator) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator. The generator is not reset.
func (s *SPNEstimator) Reset() {
	s.counter.Reset()
	s.net.Train(nil)
	s.inserts = 0
}

// MemoryBytes implements Estimator: the network, the arrival counter and
// the header.
func (s *SPNEstimator) MemoryBytes() int {
	return 64 + s.counter.MemoryBytes() + s.net.MemoryBytes()
}

// String summarizes state for diagnostics.
func (s *SPNEstimator) String() string {
	return fmt.Sprintf("SPN{retrains=%d %v}", s.retrains, s.net)
}
