// Package metrics provides the measurement plumbing of the reproduction:
// estimation accuracy and error definitions, sliding-window averages (the
// τ-threshold monitor of §V-D), min-max feature normalizers (the α scaling
// of §V-C), exponential moving averages, running means and latency
// trackers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// RelativeError returns |est-actual| / max(actual, 1). The floor of 1 keeps
// zero-selectivity queries well-defined: estimating 5 when the truth is 0 is
// an error of 5, not infinity.
func RelativeError(est, actual float64) float64 {
	denom := math.Max(actual, 1)
	return math.Abs(est-actual) / denom
}

// Accuracy is the paper's headline measure: 1 − relative error, clamped to
// [0,1] so wildly wrong estimates saturate at zero rather than going
// negative.
func Accuracy(est, actual float64) float64 {
	a := 1 - RelativeError(est, actual)
	if a < 0 {
		return 0
	}
	return a
}

// QError is the symmetric multiplicative error max(est/actual, actual/est),
// with both sides floored at 1 to keep zero counts finite. Perfect
// estimates score 1.
func QError(est, actual float64) float64 {
	e := math.Max(est, 1)
	a := math.Max(actual, 1)
	return math.Max(e/a, a/e)
}

// MinMax is an online min-max normalizer: it tracks the observed range of a
// feature and maps values onto [0,1] (§V-C scales both accuracy and latency
// this way before applying α).
type MinMax struct {
	min, max float64
	seen     bool
}

// Observe extends the tracked range with v.
func (m *MinMax) Observe(v float64) {
	if !m.seen {
		m.min, m.max, m.seen = v, v, true
		return
	}
	if v < m.min {
		m.min = v
	}
	if v > m.max {
		m.max = v
	}
}

// Normalize maps v onto [0,1] within the observed range, clamping values
// outside it. Before any observation, or with a degenerate range, it
// returns 0.5 (no information either way).
func (m *MinMax) Normalize(v float64) float64 {
	if !m.seen || m.max <= m.min {
		return 0.5
	}
	n := (v - m.min) / (m.max - m.min)
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// Range returns the observed (min, max) and whether anything was observed.
func (m *MinMax) Range() (lo, hi float64, ok bool) { return m.min, m.max, m.seen }

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA creates an EWMA with smoothing factor alpha ∈ (0,1]; larger alpha
// weights recent samples more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha must be in (0,1], got %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds v into the average and returns the new value.
func (e *EWMA) Update(v float64) float64 {
	if !e.seen {
		e.value, e.seen = v, true
		return v
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Seen reports whether any sample has been folded in.
func (e *EWMA) Seen() bool { return e.seen }

// SlidingAverage is the mean of the most recent N samples — the paper's
// "average accuracy score over queries that arrived in the past time
// window", which the Estimator Adaptor compares against τ and β·τ.
type SlidingAverage struct {
	buf  []float64
	next int
	n    int
	sum  float64
}

// NewSlidingAverage creates a window of size capacity.
func NewSlidingAverage(capacity int) *SlidingAverage {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: sliding window capacity must be positive, got %d", capacity))
	}
	return &SlidingAverage{buf: make([]float64, capacity)}
}

// Add inserts a sample, evicting the oldest when full.
func (s *SlidingAverage) Add(v float64) {
	if s.n == len(s.buf) {
		s.sum -= s.buf[s.next]
	} else {
		s.n++
	}
	s.buf[s.next] = v
	s.sum += v
	s.next = (s.next + 1) % len(s.buf)
}

// Mean returns the window mean, or 0 when empty.
func (s *SlidingAverage) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Len returns the number of live samples.
func (s *SlidingAverage) Len() int { return s.n }

// Full reports whether the window has reached capacity.
func (s *SlidingAverage) Full() bool { return s.n == len(s.buf) }

// Reset empties the window.
func (s *SlidingAverage) Reset() {
	s.n, s.next, s.sum = 0, 0, 0
}

// LatencyTracker accumulates durations and reports summary statistics. It
// retains every sample (estimation latencies are tiny) and sorts lazily.
type LatencyTracker struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// Add records one latency sample.
func (l *LatencyTracker) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sum += d
	l.sorted = false
}

// Count returns the number of samples.
func (l *LatencyTracker) Count() int { return len(l.samples) }

// Mean returns the average latency (0 when empty).
func (l *LatencyTracker) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	return l.sum / time.Duration(len(l.samples))
}

// Percentile returns the p-quantile (p ∈ [0,1]) by nearest-rank; 0 when
// empty.
func (l *LatencyTracker) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	idx := int(math.Ceil(p*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Reset drops all samples.
func (l *LatencyTracker) Reset() {
	l.samples = l.samples[:0]
	l.sum = 0
	l.sorted = false
}

// Welford tracks a running mean without storing samples.
type Welford struct {
	n    int
	mean float64
}

// Add folds in one observation.
func (w *Welford) Add(v float64) {
	w.n++
	w.mean += (v - w.mean) / float64(w.n)
}

// Count returns the number of observations.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }
