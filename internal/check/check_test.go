package check

import (
	"math"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

func obj(id uint64, x, y float64, ts int64, kws ...string) stream.Object {
	return stream.Object{ID: id, Loc: geo.Pt(x, y), Keywords: kws, Timestamp: ts}
}

func TestOracleWindowSemantics(t *testing.T) {
	o := NewOracle(1000)
	for i, spec := range []struct {
		x, y float64
		ts   int64
		kws  []string
	}{
		{1, 1, 0, []string{"fire"}},
		{2, 2, 400, []string{"flood"}},
		{3, 3, 900, []string{"fire", "flood"}},
	} {
		ob := obj(uint64(i), spec.x, spec.y, spec.ts, spec.kws...)
		o.Insert(&ob)
	}
	if o.Size() != 3 {
		t.Fatalf("size = %d, want 3", o.Size())
	}

	all := stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 900)
	if got := o.Count(&all); got != 3 {
		t.Errorf("count all = %d, want 3", got)
	}
	// Advancing to ts=1001 evicts the ts=0 object (cutoff 1, and 0 < 1).
	late := stream.KeywordQ([]string{"fire"}, 1001)
	if got := o.Count(&late); got != 1 {
		t.Errorf("count fire after eviction = %d, want 1", got)
	}
	// Eviction is permanent: an older query timestamp cannot resurrect.
	early := stream.KeywordQ([]string{"fire"}, 500)
	if got := o.Count(&early); got != 1 {
		t.Errorf("count fire at regressed ts = %d, want 1 (no resurrection)", got)
	}
}

func TestOracleRectEdges(t *testing.T) {
	o := NewOracle(1_000_000)
	for i, p := range []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 10, Y: 10}} {
		ob := obj(uint64(i), p.X, p.Y, 0, "k")
		o.Insert(&ob)
	}
	// Min edge closed, max edge open: exactly the (0,0) and (5,5) points.
	q := stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 0)
	if got := o.Count(&q); got != 2 {
		t.Errorf("half-open count = %d, want 2", got)
	}
}

func TestOracleInvalidQueries(t *testing.T) {
	o := NewOracle(1000)
	ob := obj(1, 1, 1, 0, "fire")
	o.Insert(&ob)
	for name, q := range map[string]stream.Query{
		"no predicates": {Timestamp: 0},
		"nan rect":      stream.SpatialQ(geo.Rect{MinX: math.NaN(), MaxX: 1, MaxY: 1}, 0),
		"inf rect":      stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: math.Inf(1), MaxY: 1}, 0),
		"inverted":      stream.SpatialQ(geo.Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}, 0),
		"degenerate":    stream.SpatialQ(geo.Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 2}, 0),
	} {
		q := q
		if got := o.Count(&q); got != 0 {
			t.Errorf("%s: count = %d, want 0", name, got)
		}
	}
}

// TestDifferentialShort is the short-mode differential gate: both engine
// types and the brute-force oracle must agree on every count, estimate
// and switching decision of a phase-changing workload.
func TestDifferentialShort(t *testing.T) {
	report, err := RunDifferential(DefaultDiffConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report.Summary())
	for _, d := range report.Details {
		t.Errorf("divergence: %s", d)
	}
	if !report.Ok() {
		t.Fatalf("differential run diverged: %s", report.Summary())
	}
	if report.Switches == 0 {
		t.Error("differential run exercised no estimator switches; workload too tame to verify switching agreement")
	}
	if report.FinalWindow == 0 {
		t.Error("final window empty; run too short to exercise eviction")
	}
}

// TestDifferentialSeeds varies the seed so agreement is not an artifact of
// one lucky RNG stream.
func TestDifferentialSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single-seed differential only")
	}
	for _, seed := range []int64{2, 42} {
		cfg := DefaultDiffConfig()
		cfg.Seed = seed
		cfg.Queries = 200
		report, err := RunDifferential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Ok() {
			for _, d := range report.Details {
				t.Errorf("seed %d divergence: %s", seed, d)
			}
			t.Fatalf("seed %d: %s", seed, report.Summary())
		}
	}
}
