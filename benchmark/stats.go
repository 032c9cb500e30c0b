package main

import (
	"math"
	"sort"
)

// segments is how many equal slices the measured phase is cut into. Every
// timing and rate metric is the median of its per-slice values, so one GC
// cycle or scheduler hiccup moves one slice, not the reported number.
const segments = 5

// tailMargin is how many samples must lie beyond a percentile for it to be
// worth reporting.
const tailMargin = 10

// samples holds one metric's raw observations, bucketed by segment.
type samples struct {
	seg [segments][]float64
}

func (s *samples) add(seg int, v float64) { s.seg[seg] = append(s.seg[seg], v) }

func (s *samples) n() int {
	n := 0
	for i := range s.seg {
		n += len(s.seg[i])
	}
	return n
}

func (s *samples) all() []float64 {
	out := make([]float64, 0, s.n())
	for i := range s.seg {
		out = append(out, s.seg[i]...)
	}
	return out
}

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// percentile is the nearest-rank percentile of vs (any order; 0 if empty).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return sorted[rank(p, len(sorted))]
}

// beyond is how many of n samples lie strictly above percentile p's rank.
func beyond(p float64, n int) int { return n - rank(p, n) - 1 }

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quantile reports percentile p robustly: the median of the per-segment
// percentiles when every segment leaves tailMargin samples beyond it,
// otherwise the whole run's percentile. supported is false when not even
// the whole run leaves that margin — the value is then printed with a
// warning instead of trusted.
func (s *samples) quantile(p float64) (v float64, supported bool) {
	perSeg := make([]float64, 0, segments)
	for i := range s.seg {
		if beyond(p, len(s.seg[i])) < tailMargin {
			all := s.all()
			return percentile(all, p), beyond(p, len(all)) >= tailMargin
		}
		perSeg = append(perSeg, percentile(s.seg[i], p))
	}
	return median(perSeg), true
}

// segmentRate is the median over segments of count/seconds.
func segmentRate(count [segments]int, seconds [segments]float64) float64 {
	rates := make([]float64, 0, segments)
	for i := range count {
		if seconds[i] > 0 {
			rates = append(rates, float64(count[i])/seconds[i])
		}
	}
	return median(rates)
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(vs, n=4) computes them (exclusive method), which is
// what the acceptance driver applies to a run-set.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(2), at(3)
}
