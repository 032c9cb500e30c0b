package check

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// metamorphic.go checks RC-DVQ identities that must hold on any data:
//
//   - R-monotonicity: enlarging the rectangle never decreases the count.
//   - W-monotonicity: adding keywords never decreases the count.
//   - T-monotonicity: lengthening the window never decreases the count.
//   - Partition: the four quadrants of R tile it exactly under
//     min-closed/max-open semantics, so their counts sum to R's count —
//     and a fortiori any disjoint sub-rectangles bound the sum.
//   - Keyword-set semantics: W is a set, so reordering or duplicating
//     keywords cannot change the count.
//
// Every count is evaluated twice — by the grid+inverted-index Window and by
// the brute-force Oracle — so the suite doubles as a store-level
// differential test on structured query families rather than workload
// samples.

// MetaConfig parameterizes the metamorphic run.
type MetaConfig struct {
	Dataset string
	Seed    int64
	Objects int
	Window  time.Duration
	Rate    float64
	// Queries is the number of base queries probed; each expands into a
	// family of derived variants.
	Queries int
	// MaxDetails caps recorded violation strings (zero = 20).
	MaxDetails int
}

// DefaultMetaConfig is the short-mode shape.
func DefaultMetaConfig() MetaConfig {
	return MetaConfig{
		Dataset: "Twitter",
		Seed:    7,
		Objects: 4000,
		Window:  8 * time.Second,
		Rate:    0.5,
		Queries: 60,
	}
}

// MetaReport accumulates metamorphic check outcomes.
type MetaReport struct {
	Checks     int
	Violations int
	Details    []string

	maxDetails int
}

// Ok reports whether every property held.
func (r *MetaReport) Ok() bool { return r.Violations == 0 }

// Summary renders a one-line verdict.
func (r *MetaReport) Summary() string {
	return fmt.Sprintf("metamorphic: %d checks, %d violations", r.Checks, r.Violations)
}

func (r *MetaReport) check(ok bool, format string, args ...any) {
	r.Checks++
	if ok {
		return
	}
	r.Violations++
	if r.maxDetails == 0 {
		r.maxDetails = 20
	}
	if len(r.Details) < r.maxDetails {
		r.Details = append(r.Details, fmt.Sprintf(format, args...))
	}
}

// metaFixture is one populated window snapshot probed by the property
// families: the indexed store and the brute-force oracle, frozen at the
// stream's final timestamp.
type metaFixture struct {
	window *stream.Window
	oracle *Oracle
	world  geo.Rect
	now    int64
	report *MetaReport
}

// count evaluates q against both stores, records their agreement as a
// check, and returns the oracle's answer.
func (f *metaFixture) count(q stream.Query) int {
	q.Timestamp = f.now
	got := f.window.Count(&q)
	want := f.oracle.CountLive(&q)
	f.report.check(got == want, "store disagreement on %v: window=%d oracle=%d", q, got, want)
	return want
}

// RunMetamorphic populates a window from the named dataset and probes the
// property families over generated base queries.
func RunMetamorphic(cfg MetaConfig) (*MetaReport, error) {
	if cfg.Objects <= 0 || cfg.Queries <= 0 {
		return nil, fmt.Errorf("check: Objects and Queries must be positive, got %d/%d", cfg.Objects, cfg.Queries)
	}
	report := &MetaReport{maxDetails: cfg.MaxDetails}
	span := cfg.Window.Milliseconds()

	// Two extra stores at double the span, fed the identical stream, give
	// the T-monotonicity comparison: same data, longer memory.
	gen := datagen.ByName(cfg.Dataset, cfg.Seed, cfg.Rate)
	world := gen.World()
	short := &metaFixture{
		window: stream.NewWindow(world, span, 4096),
		oracle: NewOracle(span),
		world:  world,
		report: report,
	}
	long := &metaFixture{
		window: stream.NewWindow(world, 2*span, 4096),
		oracle: NewOracle(2 * span),
		world:  world,
		report: report,
	}
	for i := 0; i < cfg.Objects; i++ {
		o := gen.Next()
		short.window.Insert(o)
		short.oracle.Insert(&o)
		long.window.Insert(o)
		long.oracle.Insert(&o)
	}
	now := gen.Now()
	for _, f := range []*metaFixture{short, long} {
		f.now = now
		f.window.EvictBefore(now - f.window.Span())
		f.oracle.Advance(now)
	}
	report.check(short.window.Size() == short.oracle.Size(),
		"occupancy: window=%d oracle=%d", short.window.Size(), short.oracle.Size())

	rng := gen.QueryRand()
	for i := 0; i < cfg.Queries; i++ {
		// Base ingredients: a rectangle around a data-following focal point
		// and 1-3 workload-skewed keywords.
		side := (0.01 + rng.Float64()*0.15) * math.Min(world.Width(), world.Height())
		rect := geo.CenteredRect(gen.SampleQueryPoint(), side, side)
		kws := make([]string, 0, 3)
		for len(kws) < 1+rng.Intn(3) {
			kw := gen.SampleQueryKeyword()
			if !slices.Contains(kws, kw) {
				kws = append(kws, kw)
			}
		}
		extra := gen.SampleQueryKeyword()
		for slices.Contains(kws, extra) {
			extra = gen.SampleQueryKeyword()
		}

		checkMonotonicity(short, rect, kws)
		checkPartition(short, rect, kws)
		checkKeywordSet(short, rect, kws)
		checkWindowGrowth(short, long, rect, kws)
		checkKeywordGrowth(short, rect, kws, extra)
	}
	return report, nil
}

// checkMonotonicity: enlarging R never decreases the count, for the pure
// spatial and the hybrid form; the world-spanning rectangle dominates all.
func checkMonotonicity(f *metaFixture, rect geo.Rect, kws []string) {
	worldQ := f.world
	// The world's max edges are open; data clamped to the world boundary
	// must still land inside the grown rectangle.
	worldQ.MaxX += 1e-6
	worldQ.MaxY += 1e-6
	grown := rect.Expand(rect.Width()/2 + 1e-9)

	base := f.count(stream.SpatialQ(rect, 0))
	bigger := f.count(stream.SpatialQ(grown, 0))
	all := f.count(stream.SpatialQ(worldQ, 0))
	f.report.check(base <= bigger, "R-monotonicity: |%v|=%d > |expand|=%d", rect, base, bigger)
	f.report.check(bigger <= all, "R-monotonicity: |expand|=%d > |world|=%d", bigger, all)
	f.report.check(all == f.oracle.Size(), "world query %d ≠ occupancy %d", all, f.oracle.Size())

	hBase := f.count(stream.HybridQ(rect, kws, 0))
	hGrown := f.count(stream.HybridQ(grown, kws, 0))
	hAll := f.count(stream.KeywordQ(kws, 0))
	f.report.check(hBase <= hGrown, "hybrid R-monotonicity: %d > %d", hBase, hGrown)
	f.report.check(hGrown <= hAll, "hybrid ≤ keyword-only: %d > %d", hGrown, hAll)
	f.report.check(hBase <= base, "hybrid ≤ spatial-only: %d > %d", hBase, base)
}

// checkPartition: quadrants tile R exactly (half-open rectangles), so their
// counts sum to R's count; any two of them bound the sum from below.
func checkPartition(f *metaFixture, rect geo.Rect, kws []string) {
	whole := f.count(stream.HybridQ(rect, kws, 0))
	sum := 0
	for _, quad := range rect.Quadrants() {
		if quad.Empty() {
			continue
		}
		sum += f.count(stream.HybridQ(quad, kws, 0))
	}
	f.report.check(sum == whole, "quadrant partition: Σ=%d, whole=%d for %v", sum, whole, rect)

	quads := rect.Quadrants()
	if !quads[0].Empty() && !quads[3].Empty() {
		disjoint := f.count(stream.SpatialQ(quads[0], 0)) + f.count(stream.SpatialQ(quads[3], 0))
		wholeSpatial := f.count(stream.SpatialQ(rect, 0))
		f.report.check(disjoint <= wholeSpatial,
			"disjoint union bound: %d > %d for %v", disjoint, wholeSpatial, rect)
	}
}

// checkKeywordSet: W is a set — permuting or duplicating keywords leaves
// the exact count unchanged.
func checkKeywordSet(f *metaFixture, rect geo.Rect, kws []string) {
	base := f.count(stream.KeywordQ(kws, 0))

	reversed := make([]string, len(kws))
	for i, kw := range kws {
		reversed[len(kws)-1-i] = kw
	}
	f.report.check(f.count(stream.KeywordQ(reversed, 0)) == base,
		"keyword reorder changed count for %v", kws)

	doubled := append(append([]string(nil), kws...), kws...)
	f.report.check(f.count(stream.KeywordQ(doubled, 0)) == base,
		"keyword duplication changed count for %v", kws)

	hybrid := f.count(stream.HybridQ(rect, kws, 0))
	f.report.check(f.count(stream.HybridQ(rect, doubled, 0)) == hybrid,
		"hybrid keyword duplication changed count for %v", kws)
}

// checkKeywordGrowth: adding a keyword to W never decreases the count.
func checkKeywordGrowth(f *metaFixture, rect geo.Rect, kws []string, extra string) {
	wider := append(append([]string(nil), kws...), extra)
	f.report.check(f.count(stream.KeywordQ(kws, 0)) <= f.count(stream.KeywordQ(wider, 0)),
		"W-monotonicity violated adding %q to %v", extra, kws)
	f.report.check(f.count(stream.HybridQ(rect, kws, 0)) <= f.count(stream.HybridQ(rect, wider, 0)),
		"hybrid W-monotonicity violated adding %q to %v", extra, kws)
}

// checkWindowGrowth: the same stream remembered twice as long can only
// contain more matches (T-monotonicity).
func checkWindowGrowth(short, long *metaFixture, rect geo.Rect, kws []string) {
	qs := stream.HybridQ(rect, kws, 0)
	short.report.check(short.count(qs) <= long.count(qs),
		"T-monotonicity: span %d count > span %d count for %v",
		short.window.Span(), long.window.Span(), qs)
}
