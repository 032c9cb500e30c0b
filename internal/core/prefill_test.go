package core

import (
	"testing"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// TestPrefillAgingDiscardsStalledCandidate drives adapt() directly with the
// monitored accuracy parked between τ and the pre-fill threshold: the
// warming candidate must be discarded after two monitoring windows instead
// of being maintained forever.
func TestPrefillAgingDiscardsStalledCandidate(t *testing.T) {
	cfg := Config{
		World:           geo.UnitSquare,
		Span:            10_000,
		Estimators:      []string{estimator.NameH4096, estimator.NameRSH},
		Default:         estimator.NameRSH,
		AccWindow:       40,
		PretrainQueries: 10,
		Seed:            1,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fast-forward to the incremental phase and install a warming
	// candidate by hand (white-box: the aging path is hard to stage
	// through the public API because any natural accuracy trajectory
	// either recovers past the threshold or falls to a switch).
	m.phase = PhaseIncremental
	m.cooldown = 0
	refilled := 0
	m.cfg.Refill = func(e estimator.Estimator) { refilled++ }
	m.prefill = 0
	m.prefillAge = 0

	// Park the monitored accuracy in the pre-fill band: below τ/β≈0.94,
	// above τ=0.75.
	for i := 0; i < cfg.AccWindow; i++ {
		m.accWindow.Add(0.85)
	}
	q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)
	for i := 0; i <= 2*cfg.AccWindow && m.prefill >= 0; i++ {
		m.accWindow.Add(0.85) // hold the band
		m.adapt(&q)
	}
	if m.prefill >= 0 {
		t.Fatalf("stalled candidate never discarded (age cap 2×AccWindow)")
	}
	if len(m.Switches()) != 0 {
		t.Fatalf("aging must discard, not switch: %v", m.Switches())
	}
}

// TestCooldownBlocksAdaptation verifies that no decision fires during the
// post-switch cooldown even under terrible accuracy.
func TestCooldownBlocksAdaptation(t *testing.T) {
	cfg := Config{
		World:           geo.UnitSquare,
		Span:            10_000,
		Estimators:      []string{estimator.NameH4096, estimator.NameRSH},
		Default:         estimator.NameRSH,
		AccWindow:       40,
		PretrainQueries: 10,
		Seed:            1,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.phase = PhaseIncremental
	m.cooldown = 25
	for i := 0; i < cfg.AccWindow; i++ {
		m.accWindow.Add(0.0) // catastrophic
	}
	q := stream.KeywordQ([]string{"x"}, 0)
	for i := 0; i < 24; i++ {
		m.adapt(&q)
		if len(m.switches) != 0 || m.prefill >= 0 {
			t.Fatalf("decision fired during cooldown at step %d", i)
		}
	}
	if m.cooldown != 1 {
		t.Fatalf("cooldown = %d after 24 decrements", m.cooldown)
	}
}
