package estimator

import (
	"fmt"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// defaultHistCells is the paper's H4096 configuration: a 64×64 equi-width
// grid over the world.
const defaultHistCells = 4096

// defaultHistSlices is the expiry ring length for windowed cell counters.
const defaultHistSlices = 16

// Histogram is the two-dimensional equi-width histogram estimator
// (Figure 1(a)). Each cell holds a windowed count ring; queries sum fully
// covered cells and interpolate partially covered ones by area under the
// per-cell uniformity assumption.
//
// The histogram keeps purely spatial statistics (§VI-E): it ignores keyword
// predicates entirely, which is exactly why its accuracy collapses on
// keyword-heavy workloads while staying the fastest estimator everywhere —
// the trade-off LATEST exploits when spatial queries dominate.
type Histogram struct {
	grid   *geo.Grid
	slicer Slicer
	// ring[s*cells+c] is slice s's count for cell c; live[c] caches sums.
	// Both are nil while the histogram counts nothing — from construction
	// or Reset until the first Insert — so a wiped H4096 costs its struct.
	// A nil array reads as all zeros wherever the state is observed. The
	// counts are whole, and a cell's stays below 2³² as a window's live
	// count does; images write them as float64s.
	ring []uint32
	live []uint32
	cur  int

	totalLive float64
}

// NewHistogram builds the estimator; p.Scale multiplies the cell count
// (rounded to the nearest perfect square) for the memory-budget experiment.
func NewHistogram(p Params) *Histogram {
	cells := nearestSquare(p.scaledInt(defaultHistCells, 16))
	g := geo.NewSquareGrid(p.World, cells)
	return &Histogram{grid: g, slicer: NewSlicer(p.Span, defaultHistSlices)}
}

// nearestSquare rounds n to the nearest perfect square ≥ 1.
func nearestSquare(n int) int {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	// side² ≤ n < (side+1)²: pick the closer one.
	if n-side*side > (side+1)*(side+1)-n {
		side++
	}
	return side * side
}

// Name implements Estimator.
func (h *Histogram) Name() string { return NameH4096 }

// Cells returns the configured cell count, used by tests and DESIGN docs.
func (h *Histogram) Cells() int { return h.grid.NumCells() }

func (h *Histogram) rotate(n int) {
	if h.ring == nil { // every slice is zero: only the position moves
		h.cur = (h.cur + n) % h.slicer.Slices()
		return
	}
	cells := h.grid.NumCells()
	for i := 0; i < n; i++ {
		h.cur = (h.cur + 1) % h.slicer.Slices()
		row := h.ring[h.cur*cells : (h.cur+1)*cells]
		for c, v := range row {
			if v != 0 {
				h.live[c] -= v
				h.totalLive -= float64(v)
				row[c] = 0
			}
		}
	}
}

// Insert implements Estimator.
func (h *Histogram) Insert(o *stream.Object) {
	h.rotate(h.slicer.AdvanceTo(o.Timestamp))
	if h.ring == nil {
		cells := h.grid.NumCells()
		h.ring, h.live = make([]uint32, h.slicer.Slices()*cells), make([]uint32, cells)
	}
	c := h.grid.CellOf(o.Loc)
	h.ring[h.cur*h.grid.NumCells()+c]++
	h.live[c]++
	h.totalLive++
}

// Estimate implements Estimator. Pure keyword queries fall back to the full
// window count — the histogram has no keyword statistics, so this is its
// honest (and badly overestimating) answer.
func (h *Histogram) Estimate(q *stream.Query) float64 {
	h.rotate(h.slicer.AdvanceTo(q.Timestamp))
	if !q.HasRange {
		return h.totalLive
	}
	if h.live == nil { // every cell reads zero
		return 0
	}
	cr := h.grid.CellsOverlapping(q.Range)
	est := 0.0
	h.grid.ForEachCell(cr, func(idx int, cell geo.Rect) bool {
		v := float64(h.live[idx])
		if v == 0 {
			return true
		}
		if q.Range.ContainsRect(cell) {
			est += v
		} else {
			est += v * q.Range.OverlapFraction(cell)
		}
		return true
	})
	return est
}

// Observe implements Estimator; the histogram does not learn from feedback.
func (h *Histogram) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator. The counter arrays are released, not
// zeroed, so an idle histogram pins nothing.
func (h *Histogram) Reset() {
	h.ring, h.live = nil, nil
	h.cur = 0
	h.totalLive = 0
	h.slicer.Reset()
}

// MemoryBytes implements Estimator.
func (h *Histogram) MemoryBytes() int {
	return 64 + 4*(len(h.ring)+len(h.live))
}

// String summarizes the configuration.
func (h *Histogram) String() string {
	return fmt.Sprintf("H{cells=%d live=%.0f}", h.grid.NumCells(), h.totalLive)
}
