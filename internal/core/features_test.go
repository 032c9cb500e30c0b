package core

import (
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// newTestBrain builds a brain over three fake estimators.
func newTestBrain(alpha float64) *brain {
	cfg := Config{
		World: geo.UnitSquare, Span: 1000,
		Alpha: alpha, AlphaSet: true,
		Estimators: []string{"fast-sloppy", "slow-sharp", "balanced"},
		Default:    "balanced",
		AccWindow:  20,
	}.withDefaults()
	return newBrain([]string{"fast-sloppy", "slow-sharp", "balanced"}, cfg)
}

// seedProfile feeds n observations per estimator with fixed accuracy and
// latency so profile EWMAs converge to those values.
func seedProfile(b *brain, qt stream.QueryType, accs []float64, lats []time.Duration, n int) {
	for i := 0; i < n; i++ {
		for est := range accs {
			b.observe(est, qt, accs[est], lats[est])
		}
	}
}

func TestBrainScoresAlphaExtremes(t *testing.T) {
	qt := stream.SpatialQuery
	accs := []float64{0.3, 0.95, 0.8}
	lats := []time.Duration{time.Microsecond, 500 * time.Microsecond, 50 * time.Microsecond}

	// α=0: pure accuracy — slow-sharp wins.
	b0 := newTestBrain(0)
	seedProfile(b0, qt, accs, lats, 50)
	if got := b0.bestByProfile(qt); got != 1 {
		s, _ := b0.scores(qt)
		t.Errorf("α=0 best = %d (scores %v), want slow-sharp", got, s)
	}
	// α=1: pure latency — fast-sloppy wins (the gate is zero at α=1).
	b1 := newTestBrain(1)
	seedProfile(b1, qt, accs, lats, 50)
	if got := b1.bestByProfile(qt); got != 0 {
		s, _ := b1.scores(qt)
		t.Errorf("α=1 best = %d (scores %v), want fast-sloppy", got, s)
	}
}

func TestBrainAccuracyGate(t *testing.T) {
	// At α=0.5 the gate is τ (0.75): the fast-but-sloppy estimator (acc
	// 0.3) must never be recommended even though its latency score is
	// perfect — unless nothing else qualifies.
	qt := stream.KeywordQuery
	b := newTestBrain(0.5)
	seedProfile(b, qt,
		[]float64{0.3, 0.9, 0.85},
		[]time.Duration{time.Microsecond, 400 * time.Microsecond, 300 * time.Microsecond}, 50)
	if b.passesGate(0, qt) {
		t.Error("sloppy estimator passed the gate at α=0.5")
	}
	if !b.passesGate(1, qt) || !b.passesGate(2, qt) {
		t.Error("accurate estimators failed the gate")
	}
	if got := b.bestByProfileExcluding(qt, 1); got != 2 {
		t.Errorf("excluding slow-sharp, best = %d, want balanced", got)
	}
	// When every candidate fails the gate, the ungated best is returned
	// rather than -1 (the adaptor must always have a fallback).
	b2 := newTestBrain(0.5)
	seedProfile(b2, qt,
		[]float64{0.3, 0.2, 0.25},
		[]time.Duration{time.Microsecond, 400 * time.Microsecond, 300 * time.Microsecond}, 50)
	if got := b2.bestByProfileExcluding(qt, -1); got < 0 {
		t.Error("no fallback when all fail the gate")
	}
}

func TestBrainOpportunityTolerance(t *testing.T) {
	qt := stream.SpatialQuery
	// balanced (active, idx 2) at acc 0.95; fast-sloppy at 0.80 is much
	// faster but 0.15 less accurate — outside the α=0.5 tolerance.
	b := newTestBrain(0.5)
	seedProfile(b, qt,
		[]float64{0.80, 0.94, 0.95},
		[]time.Duration{time.Microsecond, 600 * time.Microsecond, 400 * time.Microsecond}, 50)
	got := b.bestOpportunity(qt, 2)
	if got == 0 {
		t.Error("opportunity accepted a materially less accurate candidate at α=0.5")
	}
	// slow-sharp (0.94, within tolerance) remains eligible; whether it
	// wins depends on latency, but it must be the only possible answer.
	if got != 1 && got != -1 {
		t.Errorf("bestOpportunity = %d", got)
	}
	// At α=1 the tolerance widens and the fast candidate qualifies.
	b1 := newTestBrain(1)
	seedProfile(b1, qt,
		[]float64{0.80, 0.94, 0.95},
		[]time.Duration{time.Microsecond, 600 * time.Microsecond, 400 * time.Microsecond}, 50)
	if got := b1.bestOpportunity(qt, 2); got != 0 {
		t.Errorf("α=1 bestOpportunity = %d, want fast-sloppy", got)
	}
}

// TestBrainFollowsDrift: the tree follows a change of best estimator by
// learning alone. A stump trained on 560 regime-A records predicts regime
// B after 560 regime-B records; the drift rebuild this brain once had,
// which wiped the tree when its own accuracy fell well below the label
// majority's, got there after 13.
func TestBrainFollowsDrift(t *testing.T) {
	b := newTestBrain(0)
	qt := stream.SpatialQuery
	q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)
	x := b.features(&q, 0, 0.9, time.Microsecond, 0.1)

	// Regime A: estimator 1 dominates.
	seedProfile(b, qt, []float64{0.2, 0.95, 0.5}, []time.Duration{1, 1, 1}, 50)
	for i := 0; i < 560; i++ {
		b.learn(&q, i%3, 0.9, time.Microsecond, 0.1)
	}
	if got := b.tree.Predict(x); got != 1 {
		t.Fatalf("regime A prediction = %s, want slow-sharp", b.names[got])
	}
	// Regime B: estimator 0 dominates.
	seedProfile(b, qt, []float64{0.95, 0.2, 0.5}, []time.Duration{1, 1, 1}, 200)
	for i := 0; i < 560; i++ {
		b.learn(&q, i%3, 0.9, time.Microsecond, 0.1)
	}
	if got := b.tree.Predict(x); got != 0 {
		t.Errorf("regime B prediction = %s, want fast-sloppy", b.names[got])
	}
}

// TestBrainRecommendAny: the read-out is the tree's top class when the
// profile-best estimator consults it. An untrained tree's leaf has seen no
// record, so it names no class, and recommend falls back to the profile.
func TestBrainRecommendAny(t *testing.T) {
	qt := stream.SpatialQuery
	q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)
	b := newTestBrain(0)
	if got := b.recommendAny(&q); got != -1 {
		t.Errorf("no profile: %d, want -1", got)
	}
	seedProfile(b, qt, []float64{0.2, 0.5, 0.95}, []time.Duration{1, 1, 1}, 50)
	if got := b.recommendAny(&q); got != -1 {
		t.Errorf("untrained tree: %s, want no class", b.names[got])
	}
	if got, picker := b.recommend(&q, 0); got != 2 || picker != "profile" {
		t.Errorf("untrained tree: recommend %d by %s, want balanced by profile", got, picker)
	}
	for i := 0; i < 100; i++ {
		b.learn(&q, i%3, 0.9, time.Microsecond, 0.1)
	}
	// The profile now ranks slow-sharp first; the tree has seen only
	// balanced as the label and still answers it.
	seedProfile(b, qt, []float64{0.2, 0.95, 0.5}, []time.Duration{1, 1, 1}, 200)
	if prof, got := b.bestByProfile(qt), b.recommendAny(&q); prof != 1 || got != 2 {
		t.Errorf("trained tree: %s (profile best %s), want balanced", b.names[got], b.names[prof])
	}
}

func TestBrainLearnWithoutProfileIsNoop(t *testing.T) {
	b := newTestBrain(0.5)
	q := stream.KeywordQ([]string{"x"}, 0)
	b.learn(&q, 0, 0.5, time.Millisecond, 0.5)
	if b.tree.Instances() != 0 {
		t.Error("learn absorbed a record with no label available")
	}
}
