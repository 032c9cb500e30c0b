package core

import (
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// TestOpportunityTieGoesToFleetOrder: when two alternatives won equally
// many queries of the recent window, the opportunity switch targets the
// first of them in fleet order — in every fresh module, so a seeded run
// repeats instead of following map iteration order.
func TestOpportunityTieGoesToFleetOrder(t *testing.T) {
	cfg := Config{
		World:           geo.UnitSquare,
		Span:            10_000,
		Estimators:      []string{estimator.NameH4096, estimator.NameRSL, estimator.NameRSH},
		Default:         estimator.NameRSH,
		AccWindow:       16,
		PretrainQueries: 10,
		Seed:            1,
	}
	q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)
	for run := 0; run < 64; run++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.phase = PhaseIncremental
		// The active RSH is measured and accurate; neither alternative
		// clears the accuracy gate, so this query adds no winner of its own.
		for i := 0; i < 20; i++ {
			m.brain.observe(0, q.Type(), 0.1, time.Microsecond)
			m.brain.observe(1, q.Type(), 0.1, time.Microsecond)
			m.brain.observe(2, q.Type(), 0.95, time.Microsecond)
		}
		// Seven of the window's eight gaps are past the margin already, and
		// H4096 and RSL won three of them each.
		if len(m.oppBest) != 8 {
			t.Fatalf("opportunity window %d, the test stages 8", len(m.oppBest))
		}
		for i := 1; i < len(m.oppBest); i++ {
			m.oppGap.Add(1)
		}
		copy(m.oppBest, []int{-1, 0, 1, 0, 1, 0, 1, -1})
		if !m.opportunity(&q) {
			t.Fatalf("run %d: no opportunity switch", run)
		}
		if got := m.ActiveName(); got != estimator.NameH4096 {
			t.Fatalf("run %d: switched to %s on a tie, want %s, the first in fleet order", run, got, estimator.NameH4096)
		}
	}
}

// TestIncrementalCycleAllocs pins what one incremental Estimate+Observe
// cycle allocates once the module is steady: the profile scores that
// learn's label and the opportunity check read come from the brain's
// scratch, not from three fresh slices per call.
func TestIncrementalCycleAllocs(t *testing.T) {
	// Thresholds no accuracy falls below: the adaptor scores every query
	// but must not act inside the measured cycles.
	cfg := testConfig()
	cfg.Tau, cfg.Beta = 0.05, 0.9
	d := newDriver(t, cfg)
	d.feed(3000)
	for i := 0; i < cfg.PretrainQueries+200; i++ {
		d.runQuery(d.spatialQ())
	}
	if d.m.Phase() != PhaseIncremental || d.m.PrefillingName() != "" {
		t.Fatalf("phase %v, pre-filling %q after pre-training", d.m.Phase(), d.m.PrefillingName())
	}
	q := d.spatialQ()
	actual := float64(d.w.Answer(&q))
	switches := len(d.m.Switches())
	n := testing.AllocsPerRun(200, func() {
		d.m.Estimate(&q)
		d.m.Observe(actual)
	})
	if len(d.m.Switches()) != switches || d.m.PrefillingName() != "" {
		t.Fatal("the adaptor acted inside the measured cycles")
	}
	t.Logf("%.1f allocations per incremental cycle", n)
	if n > 1 {
		t.Errorf("%.1f allocations per incremental Estimate+Observe cycle, want at most 1", n)
	}
}
