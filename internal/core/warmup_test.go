package core

import (
	"testing"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/stream"
)

// spySampler is RSL with its inserts and draws counted.
type spySampler struct {
	*estimator.ReservoirList
	inserts, draws int
}

func (s *spySampler) Insert(o *stream.Object) { s.inserts++; s.ReservoirList.Insert(o) }

func (s *spySampler) Draw(w *stream.Window) int { s.draws++; return s.ReservoirList.Draw(w) }

// spyHistogram is H4096 with its inserts counted: a summary that is not a
// sampler.
type spyHistogram struct {
	*estimator.Histogram
	inserts int
}

func (s *spyHistogram) Insert(o *stream.Object) { s.inserts++; s.Histogram.Insert(o) }

// spyModule builds a module over one spy sampler and one spy histogram.
func spyModule(t *testing.T, refill bool) (*driver, *spySampler, *spyHistogram) {
	t.Helper()
	var rs *spySampler
	var hs *spyHistogram
	reg := estimator.NewRegistry()
	reg.Register("spyRSL", func(p estimator.Params) estimator.Estimator {
		rs = &spySampler{ReservoirList: estimator.NewReservoirList(p)}
		return rs
	})
	reg.Register("spyH", func(p estimator.Params) estimator.Estimator {
		hs = &spyHistogram{Histogram: estimator.NewHistogram(p)}
		return hs
	})
	cfg := testConfig()
	cfg.Registry, cfg.Default, cfg.PretrainQueries = reg, "spyH", 20
	cfg.LatencyOf = nil
	d := newDriver(t, cfg)
	if !refill {
		// Rebuilt without newDriver's Refill; the factories rebind the spies.
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.m = m
	}
	return d, rs, hs
}

// TestWarmupDoesNotStreamIntoSamplers: with a Refill, warm-up streams into
// every summary but the samplers, and the first query draws each sampler
// once before pre-training streams into it; without a Refill, warm-up
// streams into the samplers too.
func TestWarmupDoesNotStreamIntoSamplers(t *testing.T) {
	d, rs, hs := spyModule(t, true)
	d.feed(3000)
	if rs.inserts != 0 || rs.draws != 0 || rs.Len() != 0 {
		t.Fatalf("warm-up: sampler saw %d inserts and %d draws, holds %d samples; want none", rs.inserts, rs.draws, rs.Len())
	}
	if hs.inserts != 3000 {
		t.Fatalf("warm-up: histogram saw %d inserts, want 3000", hs.inserts)
	}
	d.runQuery(d.spatialQ()) // feeds 20 more, then the first Estimate draws
	if rs.inserts != 0 || rs.draws != 1 || rs.Len() != min(rs.Capacity(), d.w.Size()) {
		t.Fatalf("first query: sampler saw %d inserts and %d draws, holds %d; want 0, 1 and %d",
			rs.inserts, rs.draws, rs.Len(), min(rs.Capacity(), d.w.Size()))
	}
	d.runQuery(d.spatialQ())
	if rs.inserts != 20 || rs.draws != 1 {
		t.Fatalf("pre-training: sampler saw %d inserts and %d draws, want 20 and 1", rs.inserts, rs.draws)
	}

	d, rs, _ = spyModule(t, false)
	d.feed(3000)
	d.runQuery(d.spatialQ())
	if rs.inserts != 3020 || rs.draws != 0 {
		t.Fatalf("no Refill: sampler saw %d inserts and %d draws, want 3020 and 0", rs.inserts, rs.draws)
	}
}
