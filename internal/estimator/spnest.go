package estimator

import (
	"fmt"

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
// The reservoir is the one RSL and RSH sample with, under SPN's own seed
// and capacity.
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
	reservoir
	world geo.Rect
	net   *spn.Network

	sinceRetrain int
	retrainEvery int
	retrains     int

	pending      []spn.Sample // training set of the last retrain; valid when stale
	pendingBytes int          // what pending holds, its keyword buckets included
	stale        bool         // the model has not been fitted to pending yet
	read         bool         // an estimate has run since the last retrain
}

// NewSPN builds the estimator; p.Scale multiplies the component count and
// sample capacity.
func NewSPN(p Params) *SPNEstimator {
	return &SPNEstimator{
		reservoir: newReservoir(p, 0x53504E, p.scaledInt(defaultSPNSampleCap, 64)),
		world:     p.World,
		net: spn.New(spn.Config{
			Components: p.scaledInt(defaultSPNComponents, 2),
			XBins:      p.scaledInt(defaultSPNBins, 8),
			YBins:      p.scaledInt(defaultSPNBins, 8),
			KwBuckets:  defaultSPNKwBuckets,
			Seed:       p.Seed + 0x53504E,
		}),
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
	if j := s.admit(o.Timestamp); j >= 0 {
		s.put(j, o.Timestamp, s.lat.Snap(o.Loc), o.Keywords, s.capacity)
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

// retrain purges expired samples and makes the survivors the training set
// the model is next fitted to: each point where its lattice point stands,
// normalised to the world, and each keyword's bucket, from the hash its
// dictionary entry carries. The buckets share one array.
func (s *SPNEstimator) retrain(now int64) {
	s.purge(now - s.span)
	var buf [3]ref
	words := 0
	for j := range int32(len(s.ts)) {
		words += len(s.refsOf(j, &buf))
	}
	train, kwb := make([]spn.Sample, len(s.ts)), make([]int, words)
	for j := range train {
		p := s.lat.Unsnap(s.loc[j])
		train[j] = spn.Sample{
			X: (p.X - s.world.MinX) / s.world.Width(),
			Y: (p.Y - s.world.MinY) / s.world.Height(),
		}
		refs := s.refsOf(int32(j), &buf)
		if len(refs) == 0 {
			continue
		}
		b := kwb[:len(refs):len(refs)]
		for i, r := range refs {
			b[i] = int(s.dict.Hash(r.id) % defaultSPNKwBuckets)
		}
		train[j].KwB, kwb = b, kwb[len(refs):]
	}
	s.pending, s.stale = train, true
	s.pendingBytes = spnSampleBytes*cap(train) + 8*words
	s.sinceRetrain = 0
	s.retrains++
}

// spnSampleBytes is what a training sample costs in its array.
const spnSampleBytes = 40

// fit trains the model on the pending set, if one is waiting.
func (s *SPNEstimator) fit() {
	if s.stale {
		s.net.Train(s.pending)
		s.pending, s.pendingBytes, s.stale = nil, 0, false
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
		if len(s.ts) == 0 {
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

// Reset implements Estimator. The store is released, not truncated, for
// the reason ReservoirList.Reset gives.
func (s *SPNEstimator) Reset() {
	s.sampleStore = sampleStore{}
	s.counter.Reset()
	s.net.Train(nil)
	s.sinceRetrain = 0
	s.pending, s.pendingBytes, s.stale, s.read = nil, 0, false, false
}

// MemoryBytes implements Estimator: the store, the arrival counter, the
// network and a training set that waits to be fitted.
func (s *SPNEstimator) MemoryBytes() int {
	return 64 + s.memoryBytes() + s.counter.MemoryBytes() + s.net.MemoryBytes() + s.pendingBytes
}

// String summarizes state for diagnostics.
func (s *SPNEstimator) String() string {
	return fmt.Sprintf("SPN{samples=%d retrains=%d %v}", s.Len(), s.retrains, s.net)
}
