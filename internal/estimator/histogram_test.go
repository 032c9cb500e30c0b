package estimator

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

func TestNearestSquare(t *testing.T) {
	tests := []struct{ in, want int }{
		{4096, 4096}, {4095, 4096}, {4097, 4096},
		{1, 1}, {2, 1}, {3, 4}, {16, 16}, {17, 16}, {24, 25},
		{1024, 1024}, {2048, 2025}, // 45² = 2025 vs 46² = 2116
	}
	for _, tc := range tests {
		if got := nearestSquare(tc.in); got != tc.want {
			t.Errorf("nearestSquare(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestHistogramDefaultCells(t *testing.T) {
	h := NewHistogram(testParams())
	if h.Cells() != 4096 {
		t.Errorf("Cells = %d, want 4096", h.Cells())
	}
	p := testParams()
	p.Scale = 0.25
	if got := NewHistogram(p).Cells(); got != 1024 {
		t.Errorf("scaled Cells = %d, want 1024", got)
	}
}

func TestHistogramExactOnAlignedRanges(t *testing.T) {
	h := NewHistogram(testParams())
	// 64x64 grid: cells are 1/64 wide. Insert points in known cells.
	ts := int64(0)
	for i := 0; i < 640; i++ {
		ts++
		// x in [0, 0.5): exactly the left half.
		o := stream.Object{Loc: geo.Pt(float64(i%32)/64+0.001, 0.5), Timestamp: ts}
		h.Insert(&o)
	}
	q := stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 1}, ts)
	if got := h.Estimate(&q); math.Abs(got-640) > 1e-9 {
		t.Errorf("aligned estimate = %v, want 640", got)
	}
	q2 := stream.SpatialQ(geo.Rect{MinX: 0.5, MinY: 0, MaxX: 1, MaxY: 1}, ts)
	if got := h.Estimate(&q2); got != 0 {
		t.Errorf("right half = %v, want 0", got)
	}
}

func TestHistogramPartialCellInterpolation(t *testing.T) {
	h := NewHistogram(testParams())
	// Fill one cell (cell of (0.5,0.5)) with 100 points.
	ts := int64(0)
	for i := 0; i < 100; i++ {
		ts++
		o := stream.Object{Loc: geo.Pt(0.505, 0.505), Timestamp: ts}
		h.Insert(&o)
	}
	// A query covering exactly half that cell's area estimates ~50 under
	// the uniformity assumption.
	cellW := 1.0 / 64
	cellMinX := math.Floor(0.505/cellW) * cellW
	cellMinY := math.Floor(0.505/cellW) * cellW
	q := stream.SpatialQ(geo.Rect{MinX: cellMinX, MinY: cellMinY, MaxX: cellMinX + cellW/2, MaxY: cellMinY + cellW}, ts)
	if got := h.Estimate(&q); math.Abs(got-50) > 1e-6 {
		t.Errorf("half-cell estimate = %v, want 50", got)
	}
}

func TestHistogramIgnoresKeywords(t *testing.T) {
	h := NewHistogram(testParams())
	ts := int64(0)
	for i := 0; i < 200; i++ {
		ts++
		o := stream.Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"fire"}, Timestamp: ts}
		h.Insert(&o)
	}
	// Pure keyword query falls back to the full window count.
	kq := stream.KeywordQ([]string{"nonexistent"}, ts)
	if got := h.Estimate(&kq); got != 200 {
		t.Errorf("keyword fallback = %v, want 200 (total live)", got)
	}
	// Hybrid query ignores the keyword predicate.
	hq := stream.HybridQ(geo.UnitSquare, []string{"nonexistent"}, ts)
	if got := h.Estimate(&hq); math.Abs(got-200) > 1e-9 {
		t.Errorf("hybrid estimate = %v, want 200", got)
	}
}

func TestHistogramWindowExpiry(t *testing.T) {
	p := testParams() // span 10s, 16 slices of 625ms
	h := NewHistogram(p)
	o := stream.Object{Loc: geo.Pt(0.5, 0.5), Timestamp: 0}
	h.Insert(&o)
	q := stream.SpatialQ(geo.UnitSquare, 0)
	if got := h.Estimate(&q); got != 1 {
		t.Fatalf("fresh estimate = %v", got)
	}
	// Within the window the count survives.
	q.Timestamp = 9000
	if got := h.Estimate(&q); got != 1 {
		t.Errorf("estimate at 9s = %v, want 1", got)
	}
	// Past span + slice slack it must be gone.
	q.Timestamp = 12_000
	if got := h.Estimate(&q); got != 0 {
		t.Errorf("estimate at 12s = %v, want 0", got)
	}
}

func TestHistogramAccuracyUniform(t *testing.T) {
	h := NewHistogram(testParams())
	rng := rand.New(rand.NewSource(11))
	ts := int64(0)
	const n = 50000
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			ts++
		}
		o := stream.Object{Loc: geo.Pt(rng.Float64(), rng.Float64()), Timestamp: ts}
		h.Insert(&o)
	}
	for _, frac := range []float64{0.25, 0.09, 0.01} {
		side := math.Sqrt(frac)
		q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), side, side), ts)
		got := h.Estimate(&q)
		want := frac * n
		if rel := math.Abs(got-want) / want; rel > 0.1 {
			t.Errorf("frac %v: estimate %v, want ~%v (rel %.3f)", frac, got, want, rel)
		}
	}
}

func TestHistogramResetAndString(t *testing.T) {
	h := NewHistogram(testParams())
	o := stream.Object{Loc: geo.Pt(0.5, 0.5), Timestamp: 1}
	h.Insert(&o)
	h.Reset()
	q := stream.SpatialQ(geo.UnitSquare, 1)
	if got := h.Estimate(&q); got != 0 {
		t.Errorf("post-Reset estimate = %v", got)
	}
	if h.String() == "" || h.MemoryBytes() <= 0 {
		t.Error("String/MemoryBytes broken")
	}
}

// h4096Stream is the stream testdata/h4096_float64_counters.img was taken
// on, by a histogram that kept its counters as float64s: 3 000 objects
// 5 ms apart, so that the ring has turned over.
func h4096Stream(h *Histogram) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		o := genObject(rng, uint64(i), int64(i*5))
		h.Insert(&o)
	}
}

func h4096Params() Params {
	return Params{World: geo.UnitSquare, Span: 10_000, Scale: 0.004, Seed: 1} // 16 cells
}

// TestHistogramRestoresFloat64Image: an image written when the counters
// were float64s is the image the uint32 counters write for the same
// stream, it restores, and the restored histogram answers and goes on
// exactly as one fed the stream.
func TestHistogramRestoresFloat64Image(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "h4096_float64_counters.img"))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewHistogram(h4096Params())
	h4096Stream(fed)
	var e persist.Enc
	fed.SaveState(&e)
	if !bytes.Equal(e.Data(), img) {
		t.Fatal("the same stream writes a different image")
	}
	back := NewHistogram(h4096Params())
	if err := back.LoadState(persist.NewDec(img)); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{15_000, 18_000, 30_000} {
		for _, q := range queryMix(ts) {
			q := q
			if a, b := fed.Estimate(&q), back.Estimate(&q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%v: fed %v, restored %v", q, a, b)
			}
		}
	}
	var a, b persist.Enc
	fed.SaveState(&a)
	back.SaveState(&b)
	if !bytes.Equal(a.Data(), b.Data()) {
		t.Error("restored and fed histograms write different images after the same queries")
	}
}

// TestHistogramRefusesBadCounts: a count the uint32 counters cannot hold
// — negative, fractional, too large, NaN — or a cache that disagrees with
// the slices is a malformed image, and nothing is installed.
func TestHistogramRefusesBadCounts(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "h4096_float64_counters.img"))
	if err != nil {
		t.Fatal(err)
	}
	const ring0 = 1 + 8 + 4 // slicer, then the ring's length prefix
	for _, tc := range []struct {
		name string
		at   int
		v    func(old float64) float64
	}{
		{"negative", ring0, func(float64) float64 { return -1 }},
		{"fractional", ring0, func(float64) float64 { return 0.5 }},
		{"2^32", ring0, func(float64) float64 { return 1 << 32 }},
		{"NaN", ring0, func(float64) float64 { return math.NaN() }},
		{"slices and cache disagree", ring0, func(old float64) float64 { return old + 1 }},
		{"live total", len(img) - 8, func(old float64) float64 { return old + 1 }},
	} {
		bad := bytes.Clone(img)
		old := math.Float64frombits(binary.LittleEndian.Uint64(bad[tc.at:]))
		binary.LittleEndian.PutUint64(bad[tc.at:], math.Float64bits(tc.v(old)))
		h := NewHistogram(h4096Params())
		if err := h.LoadState(persist.NewDec(bad)); persist.CodeOf(err) != persist.CodeMalformed {
			t.Errorf("%s: LoadState = %v, want a malformed-image error", tc.name, err)
		}
		if h.ring != nil || h.live != nil || h.totalLive != 0 {
			t.Errorf("%s: a refused image was installed", tc.name)
		}
	}
}
