package core

import (
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/stream"
)

// checkedSPN is SPN with its estimates counted, and those that found a fit
// due.
type checkedSPN struct {
	*estimator.SPNEstimator
	estimates, dueAtEstimate int
}

func (s *checkedSPN) Estimate(q *stream.Query) float64 {
	s.estimates++
	if s.FitDue() {
		s.dueAtEstimate++
	}
	return s.SPNEstimator.Estimate(q)
}

// refitModule builds a module over H4096, the default, and a checked SPN,
// pre-training on 1 000 queries of 20 objects each: about five fits' worth
// of inserts.
func refitModule(t *testing.T) (*driver, *checkedSPN, *time.Duration) {
	t.Helper()
	var spn *checkedSPN
	reg := estimator.NewRegistry()
	reg.Register(estimator.NameH4096, func(p estimator.Params) estimator.Estimator { return estimator.NewHistogram(p) })
	reg.Register(estimator.NameSPN, func(p estimator.Params) estimator.Estimator {
		spn = &checkedSPN{SPNEstimator: estimator.NewSPN(p)}
		return spn
	})
	cfg := testConfig()
	cfg.Registry, cfg.Default, cfg.PretrainQueries = reg, estimator.NameH4096, 1000
	slowest := new(time.Duration)
	cfg.LatencyOf = func(name string, _ *stream.Query, measured time.Duration) time.Duration {
		if name == estimator.NameSPN {
			*slowest = max(*slowest, measured)
		}
		return time.Millisecond
	}
	return newDriver(t, cfg), spn, slowest
}

// TestDueFitRunsBeforeTheTimedEstimate: a due SPN reaches Refill before its
// Estimate, and outside the latency the module measures for it. Through
// pre-training no estimate finds a fit due, every fit goes through Refill,
// and a fit slowed to 50 ms never shows in a measured latency.
func TestDueFitRunsBeforeTheTimedEstimate(t *testing.T) {
	const slowFit = 50 * time.Millisecond
	d, spn, slowest := refitModule(t)
	refill, fills := d.m.cfg.Refill, 0
	d.m.cfg.Refill = func(e estimator.Estimator) {
		if e == estimator.Estimator(spn) {
			fills++
			time.Sleep(slowFit)
		}
		refill(e)
	}
	d.feed(3000)
	for d.m.Phase() != PhaseIncremental {
		d.runQuery(d.spatialQ())
	}
	if spn.estimates != 1000 || spn.dueAtEstimate != 0 {
		t.Fatalf("%d of %d estimates found a fit due", spn.dueAtEstimate, spn.estimates)
	}
	if fills < 5 || spn.Retrains() != fills {
		t.Fatalf("%d fills through Refill, %d fits; want the warm-up's and a refit every %d inserts", fills, spn.Retrains(), 4096)
	}
	if *slowest >= slowFit {
		t.Errorf("an SPN estimate measured %v: the fit was timed with it", *slowest)
	}
}

// TestRefillLessSPNAnswersZero: without a Refill nothing fits SPN, which
// then answers 0 however many objects it has counted.
func TestRefillLessSPNAnswersZero(t *testing.T) {
	d, spn, _ := refitModule(t)
	d.m.cfg.Refill = nil
	d.feed(3000)
	for range 300 {
		d.runQuery(d.spatialQ())
	}
	q := stream.SpatialQ(d.w.World(), d.ts)
	if got := spn.SPNEstimator.Estimate(&q); got != 0 || spn.Retrains() != 0 || spn.dueAtEstimate != 300 {
		t.Errorf("no Refill: estimate %v after %d fits, %d of 300 estimates due; want 0, 0 and 300", got, spn.Retrains(), spn.dueAtEstimate)
	}
}
