package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRelativeErrorAndAccuracy(t *testing.T) {
	tests := []struct {
		est, actual float64
		wantErr     float64
		wantAcc     float64
	}{
		{100, 100, 0, 1},
		{50, 100, 0.5, 0.5},
		{150, 100, 0.5, 0.5},
		{300, 100, 2, 0},     // accuracy clamps at 0
		{5, 0, 5, 0},         // zero actual: floor denominator at 1
		{0, 0, 0, 1},         // both zero: perfect
		{0.5, 0.4, 0.1, 0.9}, // sub-1 actuals also floored
		{90, 100, 0.1, 0.9},
	}
	for _, tc := range tests {
		if got := RelativeError(tc.est, tc.actual); math.Abs(got-tc.wantErr) > 1e-12 {
			t.Errorf("RelativeError(%v,%v) = %v, want %v", tc.est, tc.actual, got, tc.wantErr)
		}
		if got := Accuracy(tc.est, tc.actual); math.Abs(got-tc.wantAcc) > 1e-12 {
			t.Errorf("Accuracy(%v,%v) = %v, want %v", tc.est, tc.actual, got, tc.wantAcc)
		}
	}
}

func TestAccuracyBounds(t *testing.T) {
	f := func(est, actual float64) bool {
		if math.IsNaN(est) || math.IsInf(est, 0) || math.IsNaN(actual) || math.IsInf(actual, 0) {
			return true
		}
		a := Accuracy(math.Abs(est), math.Abs(actual))
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQError(t *testing.T) {
	tests := []struct {
		est, actual, want float64
	}{
		{100, 100, 1},
		{200, 100, 2},
		{50, 100, 2},
		{0, 100, 100}, // floored est
		{0, 0, 1},
	}
	for _, tc := range tests {
		if got := QError(tc.est, tc.actual); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("QError(%v,%v) = %v, want %v", tc.est, tc.actual, got, tc.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	var m MinMax
	if got := m.Normalize(5); got != 0.5 {
		t.Errorf("unseeded Normalize = %v, want 0.5", got)
	}
	m.Observe(10)
	if got := m.Normalize(10); got != 0.5 {
		t.Errorf("degenerate-range Normalize = %v, want 0.5", got)
	}
	m.Observe(20)
	tests := []struct{ v, want float64 }{
		{10, 0}, {20, 1}, {15, 0.5}, {5, 0}, {25, 1},
	}
	for _, tc := range tests {
		if got := m.Normalize(tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Normalize(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	lo, hi, ok := m.Range()
	if !ok || lo != 10 || hi != 20 {
		t.Errorf("Range = %v,%v,%v", lo, hi, ok)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Seen() || e.Value() != 0 {
		t.Error("fresh EWMA should be unseen and zero")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Errorf("first update = %v, want 10", e.Value())
	}
	e.Update(20)
	if e.Value() != 15 {
		t.Errorf("second update = %v, want 15", e.Value())
	}
	e.Update(15)
	if e.Value() != 15 {
		t.Errorf("third update = %v, want 15", e.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("NewEWMA(0) should panic")
		}
	}()
	NewEWMA(0)
}

func TestSlidingAverage(t *testing.T) {
	s := NewSlidingAverage(3)
	if s.Mean() != 0 || s.Len() != 0 || s.Full() {
		t.Error("fresh window state wrong")
	}
	s.Add(1)
	s.Add(2)
	if got := s.Mean(); got != 1.5 {
		t.Errorf("Mean = %v", got)
	}
	s.Add(3)
	if !s.Full() || s.Mean() != 2 {
		t.Errorf("full window Mean = %v", s.Mean())
	}
	s.Add(10) // evicts 1
	if got := s.Mean(); got != 5 {
		t.Errorf("after eviction Mean = %v, want 5", got)
	}
	s.Reset()
	if s.Len() != 0 || s.Mean() != 0 {
		t.Error("Reset incomplete")
	}
	// Long stream: sum drift stays negligible.
	for i := 0; i < 100000; i++ {
		s.Add(float64(i % 7))
	}
	want := float64((99999%7 + 99998%7 + 99997%7)) / 3
	if math.Abs(s.Mean()-want) > 1e-9 {
		t.Errorf("long stream: Mean = %v, want %v", s.Mean(), want)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSlidingAverage(0) should panic")
		}
	}()
	NewSlidingAverage(0)
}

func TestLatencyTracker(t *testing.T) {
	var l LatencyTracker
	if l.Mean() != 0 || l.Percentile(0.5) != 0 || l.Count() != 0 {
		t.Error("empty tracker should report zeros")
	}
	for _, d := range []time.Duration{5, 1, 9, 3, 7} {
		l.Add(d * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Errorf("Count = %d", l.Count())
	}
	if got := l.Mean(); got != 5*time.Millisecond {
		t.Errorf("Mean = %v", got)
	}
	if got := l.Percentile(0.5); got != 5*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
	if got := l.Percentile(1.0); got != 9*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}
	if got := l.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("P0 = %v", got)
	}
	// Adding after a sort keeps stats correct.
	l.Add(11 * time.Millisecond)
	if got := l.Percentile(1.0); got != 11*time.Millisecond {
		t.Errorf("P100 after add = %v", got)
	}
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Count() != 0 {
		t.Error("fresh Welford state wrong")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", w.Mean())
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
}
