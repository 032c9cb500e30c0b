package estimator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// Property: however the clock advances, the total rotations the slicer
// requests never exceed elapsed/sliceDur + 1, never go negative, and the
// internal boundary always ends up ahead of the last timestamp.
func TestSlicerProperties(t *testing.T) {
	f := func(seed int64, nSteps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		span := int64(rng.Intn(10_000) + 10)
		slices := rng.Intn(30) + 1
		s := NewSlicer(span, slices)
		dur := span / int64(slices)
		if dur < 1 {
			dur = 1
		}
		ts := int64(rng.Intn(1000))
		first := ts
		totalSteps := 0
		for i := 0; i < int(nSteps)+1; i++ {
			steps := s.AdvanceTo(ts)
			if steps < 0 || steps > slices {
				return false
			}
			totalSteps += steps
			// Immediately re-advancing to the same time must be free.
			if s.AdvanceTo(ts) != 0 {
				return false
			}
			ts += int64(rng.Intn(int(3*dur) + 1))
		}
		// Rotations are capped by the ring and bounded by elapsed time.
		elapsed := ts - first
		return int64(totalSteps) <= elapsed/dur+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a WindowCounter's live count equals the number of Adds whose
// timestamps fall within one slice-granularity window of the probe time.
func TestWindowCounterNeverNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := int64(rng.Intn(5000) + 100)
		w := NewWindowCounter(span, rng.Intn(20)+2)
		ts := int64(0)
		total := 0
		for i := 0; i < 500; i++ {
			ts += int64(rng.Intn(50))
			w.Add(ts)
			total++
			if live := w.Live(ts); live < 0 || live > float64(total) {
				return false
			}
		}
		// After more than a full span of silence, everything expires.
		return w.Live(ts+2*span) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSlicerExtremeTimestamps: a clock that leaps across the int64 range
// rotates between 0 and the ring length, never negative, and every
// estimator built on a slicer takes such a stream without panicking.
func TestSlicerExtremeTimestamps(t *testing.T) {
	clocks := [][]int64{
		{math.MinInt64, -1, 0, math.MaxInt64 - 5, math.MaxInt64},
		{math.MinInt64, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
		{-1 << 62, 1 << 62, math.MaxInt64},
		{math.MinInt64 + 1, -1 << 62, math.MaxInt64},
	}
	for _, clock := range clocks {
		s := NewSlicer(1000, 16)
		for _, ts := range clock {
			if steps := s.AdvanceTo(ts); steps < 0 || steps > 16 {
				t.Fatalf("clock %v: AdvanceTo(%d) = %d", clock, ts, steps)
			}
		}
		for _, e := range DefaultRegistry().BuildAll(Params{World: geo.UnitSquare, Span: 1000, Scale: 0.01, Seed: 1}) {
			for _, ts := range clock {
				o := stream.Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"kw"}, Timestamp: ts}
				e.Insert(&o)
				q := stream.HybridQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.5, 0.5), []string{"kw"}, ts)
				e.Estimate(&q)
			}
		}
	}
}
