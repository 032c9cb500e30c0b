package metrics

import (
	"math"

	"github.com/spatiotext/latest/internal/persist"
)

// State codecs for the incremental statistics that survive a snapshot.
// Alpha (EWMA) and capacity (SlidingAverage) come from the constructor, so
// only the accumulated values are written; the restore side validates shape
// against the receiver. Every value a statistic accumulates from finite
// observations is finite, so a NaN or an infinity in an image is refused:
// restored, it would reach every score and record computed from it.

// finite reports whether no value is NaN or ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// SaveState serializes the normalizer.
func (m *MinMax) SaveState(e *persist.Enc) {
	e.F64(m.min)
	e.F64(m.max)
	e.Bool(m.seen)
}

// LoadState restores a saved normalizer.
func (m *MinMax) LoadState(d *persist.Dec) error {
	min := d.F64()
	max := d.F64()
	seen := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if !finite(min, max) {
		return persist.Errf(persist.CodeMalformed, "minmax", "range [%v, %v]", min, max)
	}
	m.min, m.max, m.seen = min, max, seen
	return nil
}

// SaveState serializes the average's accumulated value.
func (e *EWMA) SaveState(enc *persist.Enc) {
	enc.F64(e.value)
	enc.Bool(e.seen)
}

// LoadState restores a saved average into a receiver built with the same
// alpha.
func (e *EWMA) LoadState(d *persist.Dec) error {
	value := d.F64()
	seen := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if !finite(value) {
		return persist.Errf(persist.CodeMalformed, "ewma", "value %v", value)
	}
	e.value, e.seen = value, seen
	return nil
}

// SaveState serializes the window including the incremental sum — the sum
// is not recomputed on load because float addition is order-sensitive and a
// recomputed sum could diverge from the original by an ulp.
func (s *SlidingAverage) SaveState(e *persist.Enc) {
	e.F64s(s.buf)
	e.Int(s.next)
	e.Int(s.n)
	e.F64(s.sum)
}

// LoadState restores a window saved with the same capacity.
func (s *SlidingAverage) LoadState(d *persist.Dec) error {
	const op = "sliding average"
	buf := d.F64s()
	next := d.Int()
	n := d.Int()
	sum := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	if len(buf) != len(s.buf) {
		return persist.Errf(persist.CodeMismatch, op, "capacity %d, receiver %d", len(buf), len(s.buf))
	}
	if n < 0 || n > len(s.buf) || next < 0 || next >= len(s.buf) {
		return persist.Errf(persist.CodeMalformed, op, "n=%d next=%d cap=%d", n, next, len(s.buf))
	}
	if !finite(sum) || !finite(buf...) {
		return persist.Errf(persist.CodeMalformed, op, "non-finite value")
	}
	copy(s.buf, buf)
	s.next, s.n, s.sum = next, n, sum
	return nil
}
