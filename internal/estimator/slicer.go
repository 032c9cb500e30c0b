package estimator

import (
	"fmt"
	"math"
	"sort"
)

// Slicer converts a stream of non-decreasing timestamps into ring-rotation
// steps: the window span is divided into a fixed number of slices and every
// estimator ring (histogram counters, tree counters, arrival counters)
// rotates in lockstep when the virtual clock crosses a slice boundary.
// Expiry granularity is therefore span/slices — the paper's estimators make
// the same approximation implicitly by batching summary refreshes.
type Slicer struct {
	dur      int64
	slices   int
	started  bool
	boundary int64 // first timestamp belonging to the *next* slice
}

// NewSlicer divides span into the given number of slices. Both must be
// positive; the slice duration is floored at 1ms.
func NewSlicer(span int64, slices int) Slicer {
	if span <= 0 || slices <= 0 {
		panic(fmt.Sprintf("estimator: slicer needs positive span/slices, got %d/%d", span, slices))
	}
	dur := span / int64(slices)
	if dur < 1 {
		dur = 1
	}
	return Slicer{dur: dur, slices: slices}
}

// Slices returns the ring length.
func (s *Slicer) Slices() int { return s.slices }

// AdvanceTo moves the slicer to timestamp ts and returns how many ring
// rotations the caller must perform, capped at the ring length (rotating a
// ring its full length clears it; further rotations are pointless). The
// first timestamp anchors the slice grid. Any int64 timestamps are
// accepted: the gap is taken unsigned, so it cannot overflow, and a
// boundary that would pass math.MaxInt64 stops there.
func (s *Slicer) AdvanceTo(ts int64) int {
	if !s.started {
		s.started = true
		s.boundary = ts + s.dur
		if s.boundary < ts {
			s.boundary = math.MaxInt64
		}
		return 0
	}
	if ts < s.boundary {
		return 0
	}
	// Both differences are exact in uint64: ts ≥ boundary, MaxInt64 ≥ boundary.
	steps := (uint64(ts)-uint64(s.boundary))/uint64(s.dur) + 1
	if room := uint64(math.MaxInt64) - uint64(s.boundary); steps > room/uint64(s.dur) {
		s.boundary = math.MaxInt64
	} else {
		s.boundary = int64(uint64(s.boundary) + steps*uint64(s.dur))
	}
	if steps > uint64(s.slices) {
		return s.slices
	}
	return int(steps)
}

// Reset forgets the anchor so the next timestamp re-anchors the grid.
func (s *Slicer) Reset() { s.started = false }

// WindowCounter tracks (approximately) how many objects arrived in the
// current window: a ring of per-slice arrival counts. Sampling estimators
// use it to scale sample fractions up to window counts — the |S_T| term —
// without help from the exact store.
type WindowCounter struct {
	slicer Slicer
	counts []float64
	cur    int
	live   float64
}

// NewWindowCounter creates a counter with the given span and slice count.
func NewWindowCounter(span int64, slices int) *WindowCounter {
	return &WindowCounter{
		slicer: NewSlicer(span, slices),
		counts: make([]float64, slices),
	}
}

// rotate applies n ring rotations.
func (w *WindowCounter) rotate(n int) {
	for i := 0; i < n; i++ {
		w.cur = (w.cur + 1) % len(w.counts)
		w.live -= w.counts[w.cur]
		w.counts[w.cur] = 0
	}
}

// Add records an arrival at timestamp ts.
func (w *WindowCounter) Add(ts int64) {
	w.rotate(w.slicer.AdvanceTo(ts))
	w.counts[w.cur]++
	w.live++
}

// addSorted records n arrivals whose timestamps, at(0) through at(n-1), are
// non-decreasing, exactly as n calls of Add would. Past the first arrival
// of a slice, the rest of the slice's arrivals are found by binary search
// and counted at once, so the cost is per slice, not per arrival.
func (w *WindowCounter) addSorted(n int, at func(i int) int64) {
	for i := 0; i < n; {
		w.Add(at(i))
		i++
		end := w.slicer.boundary
		same := sort.Search(n-i, func(j int) bool { return at(i+j) >= end })
		w.counts[w.cur] += float64(same)
		w.live += float64(same)
		i += same
	}
}

// Live returns the window arrival count as of timestamp ts.
func (w *WindowCounter) Live(ts int64) float64 {
	w.rotate(w.slicer.AdvanceTo(ts))
	return w.live
}

// Reset clears all counts.
func (w *WindowCounter) Reset() {
	w.slicer.Reset()
	for i := range w.counts {
		w.counts[i] = 0
	}
	w.cur, w.live = 0, 0
}

// MemoryBytes approximates the counter footprint.
func (w *WindowCounter) MemoryBytes() int { return 64 + 8*len(w.counts) }
