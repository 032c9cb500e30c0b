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
	defaultSPNSampleCap  = 4096
	defaultSPNRetrain    = 4096 // inserts between full retrains
)

// SPNEstimator is the data-driven sum-product network baseline: it keeps a
// windowed reservoir of raw objects and periodically retrains an SPN over
// it, answering queries as model probability × windowed arrival count. The
// periodic full retrain is the paper's core criticism of data-driven models
// on streams ("very high computational intensity to update the model with
// high-velocity data") and dominates this estimator's maintenance cost.
//
// A due retrain purges the reservoir and builds its training set, but fits
// the model at once only if an estimate has run since the previous retrain.
// Otherwise the set waits in pending for the next Estimate or SaveState,
// and a newer retrain replaces it unread, so a stretch with no queries (the
// fill before pre-training, a pre-fill's replay) fits one model, not one
// per retrain. Training is a pure function of the set, so answers and
// images are unchanged; the read check keeps the fit out of the estimate
// latency of an estimator that is being queried, which the switch learns
// from unless a latency model replaces the wall clock.
type SPNEstimator struct {
	world   geo.Rect
	span    int64
	net     *spn.Network
	counter *WindowCounter
	src     *rand.PCG
	rng     *rand.Rand

	capacity     int
	samples      []sample
	sinceRetrain int
	retrainEvery int
	retrains     int

	pending []spn.Sample // training set of the last retrain; valid when stale
	stale   bool         // the model has not been fitted to pending yet
	read    bool         // an estimate has run since the last retrain
}

// NewSPN builds the estimator; p.Scale multiplies the component count and
// sample capacity.
func NewSPN(p Params) *SPNEstimator {
	src, rng := newRand(p.Seed + 0x53504E)
	return &SPNEstimator{
		world: p.World,
		span:  p.Span,
		net: spn.New(spn.Config{
			Components: p.scaledInt(defaultSPNComponents, 2),
			XBins:      p.scaledInt(defaultSPNBins, 8),
			YBins:      p.scaledInt(defaultSPNBins, 8),
			KwBuckets:  defaultSPNKwBuckets,
			Seed:       p.Seed + 0x53504E,
		}),
		counter:      NewWindowCounter(p.Span, defaultHistSlices),
		src:          src,
		rng:          rng,
		capacity:     p.scaledInt(defaultSPNSampleCap, 64),
		retrainEvery: defaultSPNRetrain,
	}
}

// Name implements Estimator.
func (s *SPNEstimator) Name() string { return NameSPN }

// Retrains returns how many full model rebuilds have come due, a cost the
// ablation benchmarks report.
func (s *SPNEstimator) Retrains() int { return s.retrains }

// Insert implements Estimator: windowed reservoir sampling plus periodic
// retraining.
func (s *SPNEstimator) Insert(o *stream.Object) {
	s.counter.Add(o.Timestamp)
	if len(s.samples) < s.capacity {
		s.samples = append(s.samples, admitted(o))
	} else {
		n := int(s.counter.Live(o.Timestamp))
		if n < s.capacity {
			n = s.capacity
		}
		if j := s.rng.IntN(n); j < s.capacity {
			s.samples[j] = admitted(o)
		}
	}
	s.sinceRetrain++
	if s.sinceRetrain >= s.retrainEvery {
		s.retrain(o.Timestamp)
		if s.read {
			s.fit()
		}
		s.read = false
	}
}

// admitted is o as a retained sample, with its own copy of the keywords:
// the caller's slice is not kept. Only an admitted object pays for it.
func admitted(o *stream.Object) sample {
	return sample{loc: o.Loc, kws: append([]string(nil), o.Keywords...), ts: o.Timestamp}
}

// retrain purges expired samples and makes the survivors the training set
// the model is next fitted to.
func (s *SPNEstimator) retrain(now int64) {
	cutoff := now - s.span
	for i := 0; i < len(s.samples); {
		if s.samples[i].ts < cutoff {
			s.samples[i] = s.samples[len(s.samples)-1]
			s.samples = s.samples[:len(s.samples)-1]
			continue
		}
		i++
	}
	train := make([]spn.Sample, len(s.samples))
	for i := range s.samples {
		train[i] = spn.Sample{
			X:   (s.samples[i].loc.X - s.world.MinX) / s.world.Width(),
			Y:   (s.samples[i].loc.Y - s.world.MinY) / s.world.Height(),
			KwB: s.kwBuckets(s.samples[i].kws),
		}
	}
	s.pending, s.stale = train, true
	s.sinceRetrain = 0
	s.retrains++
}

// fit trains the model on the pending set, if one is waiting.
func (s *SPNEstimator) fit() {
	if s.stale {
		s.net.Train(s.pending)
		s.pending, s.stale = nil, false
	}
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
	s.read = true
	s.fit()
	if !s.net.Trained() {
		// Before the first retrain the model is a uniform prior; force an
		// early train if we already have samples so pre-training queries
		// get real answers.
		if len(s.samples) == 0 {
			return 0
		}
		s.retrain(q.Timestamp)
		s.fit()
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

// Observe implements Estimator; the SPN is data-driven and ignores query
// feedback.
func (s *SPNEstimator) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator. The sample array is released, not truncated,
// so an idle estimator pins neither it nor the keywords of stale samples.
func (s *SPNEstimator) Reset() {
	s.samples = nil
	s.counter.Reset()
	s.net.Train(nil)
	s.sinceRetrain = 0
	s.pending, s.stale, s.read = nil, false, false
}

// MemoryBytes implements Estimator.
func (s *SPNEstimator) MemoryBytes() int {
	return s.net.MemoryBytes() + 48*cap(s.samples) + s.counter.MemoryBytes()
}

// String summarizes state for diagnostics.
func (s *SPNEstimator) String() string {
	return fmt.Sprintf("SPN{samples=%d retrains=%d %v}", len(s.samples), s.retrains, s.net)
}
