package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/check"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// small returns a RunConfig sized for tests: big enough for phases and
// switches to materialize, small enough to keep the suite fast. The switch
// is scored with the goldens' fixed per-estimator latencies, so which
// estimator it picks — and with it every shape asserted below — is the
// same on a loaded host as on an idle one.
func small() RunConfig {
	return RunConfig{Queries: 1200, PretrainQueries: 300, LatencyOf: check.DeterministicLatencyModel}
}

func TestFlatten(t *testing.T) {
	spec := workload.ByName("TwQW1")
	flat := flatten(spec)
	if len(flat.Phases) != 1 || flat.Phases[0].Until != 1 {
		t.Fatalf("flatten produced %+v", flat.Phases)
	}
	m := flat.Phases[0].Mix
	if math.Abs(m.Spatial+m.Keyword+m.Hybrid-1) > 1e-9 {
		t.Errorf("flattened mix sums to %v", m.Spatial+m.Keyword+m.Hybrid)
	}
	// TwQW1 is roughly one-third of each type overall.
	for name, v := range map[string]float64{"spatial": m.Spatial, "keyword": m.Keyword, "hybrid": m.Hybrid} {
		if v < 0.15 || v > 0.55 {
			t.Errorf("flattened %s = %v, want roughly a third", name, v)
		}
	}
	// Single-phase specs flatten to themselves.
	f2 := flatten(workload.ByName("TwQW2"))
	if f2.Phases[0].Mix.Spatial != 1 {
		t.Errorf("TwQW2 flatten = %+v", f2.Phases[0].Mix)
	}
}

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}.withDefaults()
	if c.Queries != 3000 || c.PretrainQueries != 600 || c.WindowMS != 30000 ||
		c.Rate != 2 || c.ObjectsPerQuery != 40 || c.Seed != 1 || c.Scale != 1 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestSwitchTimelineScoresEveryQuery: a query count that is not a
// multiple of 100 still fills the 100 buckets t0..t99, so the whole
// schedule is scored.
func TestSwitchTimelineScoresEveryQuery(t *testing.T) {
	cfg := small()
	cfg.Dataset, cfg.Workload = "Twitter", "TwQW1"
	cfg.Queries, cfg.PretrainQueries = 250, 100
	res := RunSwitchTimeline("fig3", cfg)
	if len(res.Points) != 100 {
		t.Fatalf("%d timeline points, want 100", len(res.Points))
	}
	for i, p := range res.Points {
		if p.T != i {
			t.Fatalf("point %d is t%d", i, p.T)
		}
	}
}

func TestSwitchTimelineTwQW6(t *testing.T) {
	cfg := small()
	cfg.Dataset, cfg.Workload = "Twitter", "TwQW6"
	res := RunSwitchTimeline("fig4", cfg)

	if len(res.Points) < 95 {
		t.Fatalf("only %d timeline points", len(res.Points))
	}
	// Paper shape: at least one switch into H4096 during the spatial phase
	// and one back to a sampling estimator afterwards.
	intoH, backToSampler := false, false
	for _, s := range res.Switches {
		if s.T < 0 || s.T > 100 {
			t.Errorf("switch outside timeline: %+v", s)
		}
		if s.To == "H4096" {
			intoH = true
		}
		if intoH && (s.To == "RSH" || s.To == "RSL") {
			backToSampler = true
		}
	}
	if !intoH || !backToSampler {
		t.Errorf("TwQW6 switch shape missing: %+v", res.Switches)
	}
	// H4096 is the lowest-latency estimator overall.
	hLat := res.MeanLatencyUS("H4096")
	for _, other := range []string{"RSL", "RSH", "AASP"} {
		if hLat >= res.MeanLatencyUS(other) {
			t.Errorf("H4096 latency %v not below %s %v", hLat, other, res.MeanLatencyUS(other))
		}
	}
	// The module's served accuracy beats the always-H4096 strawman on this
	// keyword-heavy workload.
	if res.ModuleAccuracy < res.MeanAccuracy("H4096") {
		t.Errorf("module accuracy %v below static H4096 %v", res.ModuleAccuracy, res.MeanAccuracy("H4096"))
	}
	if res.ModuleAccuracy < 0.6 {
		t.Errorf("module accuracy %v too low", res.ModuleAccuracy)
	}
	// ActiveAt is consistent with the recorded points.
	if res.ActiveAt(0) == "" || res.ActiveAt(100) == "" {
		t.Error("ActiveAt returned empty")
	}
	// Rendering and JSON round-trips work.
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("WriteTo: %v (%d bytes)", err, buf.Len())
	}
	var back TimelineResult
	data, err := json.Marshal(res)
	if err != nil || json.Unmarshal(data, &back) != nil {
		t.Errorf("JSON round-trip failed: %v", err)
	}
	if back.Experiment != "fig4" {
		t.Errorf("round-trip experiment = %q", back.Experiment)
	}
}

func TestSwitchTimelineEbird(t *testing.T) {
	cfg := small()
	cfg.Dataset, cfg.Workload = "eBird", "EbRQW1"
	res := RunSwitchTimeline("fig5", cfg)
	// Paper shape: a single switch from the RSH default to H4096, which is
	// both fastest and (near-)most accurate on the pure-spatial real
	// workload.
	if len(res.Switches) < 1 {
		t.Fatalf("no switches on EbRQW1")
	}
	if res.Switches[0].From != "RSH" || res.Switches[0].To != "H4096" {
		t.Errorf("first switch %+v, want RSH->H4096", res.Switches[0])
	}
	if res.ActiveAt(90) != "H4096" {
		t.Errorf("late active = %q, want H4096", res.ActiveAt(90))
	}
	if res.ModuleAccuracy < 0.8 {
		t.Errorf("module accuracy %v", res.ModuleAccuracy)
	}
}

func TestIndexOverheadShape(t *testing.T) {
	cfg := small()
	cfg.Queries = 600
	res := RunIndexOverhead(cfg)
	if len(res.Rows) != 11 {
		t.Fatalf("Table I has %d rows, want 11", len(res.Rows))
	}
	// On the keyword workloads (CheckIn, Twitter) the full index must cost
	// several times the sampling estimators (the paper's headline claim).
	for _, ds := range []string{"CheckIn", "Twitter"} {
		for _, est := range []string{"RSL", "RSH"} {
			row, ok := res.Row(ds, est)
			if !ok {
				t.Fatalf("missing row %s/%s", ds, est)
			}
			if row.OverheadFactor < 1.5 {
				t.Errorf("%s/%s overhead %.1fx, want >1.5x", ds, est, row.OverheadFactor)
			}
			if row.EstAccuracy < 0.6 {
				t.Errorf("%s/%s accuracy %.2f", ds, est, row.EstAccuracy)
			}
		}
		// AASP is the least accurate structural estimator on its rows.
		aasp, _ := res.Row(ds, "AASP")
		rsl, _ := res.Row(ds, "RSL")
		if aasp.EstAccuracy >= rsl.EstAccuracy {
			t.Errorf("%s: AASP %.2f not below RSL %.2f", ds, aasp.EstAccuracy, rsl.EstAccuracy)
		}
	}
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("WriteTo failed: %v", err)
	}
}

func TestAlphaChoicesShape(t *testing.T) {
	cfg := small()
	res := RunAlphaChoices(cfg)
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
	// α=0: accuracy-dominant — early/mid choices are sampling estimators.
	lo, ok := res.ChoiceFor(0)
	if !ok {
		t.Fatal("missing α=0 row")
	}
	if lo[0] != "RSH" && lo[0] != "RSL" {
		t.Errorf("α=0 t=20 choice %q, want a sampler", lo[0])
	}
	// α=1: latency-dominant — late choices are the fast estimators.
	hi, ok := res.ChoiceFor(1)
	if !ok {
		t.Fatal("missing α=1 row")
	}
	for i := 1; i < 3; i++ {
		if hi[i] != "H4096" && hi[i] != "FFN" && hi[i] != "SPN" {
			t.Errorf("α=1 choice[%d] = %q, want a low-latency estimator", i, hi[i])
		}
	}
	var buf bytes.Buffer
	res.WriteTo(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

// TestAlphaChoicesReadTheTimeline: off the 100-query grid Table II still
// runs every query, and each choice at t is the switch timeline's
// ActiveAt(t−1) for that α.
func TestAlphaChoicesReadTheTimeline(t *testing.T) {
	cfg := RunConfig{Dataset: "Twitter", Workload: "TwQW3", Queries: 250, PretrainQueries: 200,
		WindowMS: 5000, Rate: 1, Seed: 2, LatencyOf: check.DeterministicLatencyModel}
	res := RunAlphaChoices(cfg)
	if len(res.Rows) != len(alphaTableValues) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(alphaTableValues))
	}
	for _, alpha := range alphaTableValues {
		run := cfg
		run.Alpha, run.AlphaSet = alpha, true
		tl := RunSwitchTimeline("table2", run)
		got, _ := res.ChoiceFor(alpha)
		for i, at := range alphaTablePoints {
			if want := tl.ActiveAt(at - 1); got[i] != want {
				t.Errorf("α=%v t=%d: Table II reads %q, the timeline %q", alpha, at, got[i], want)
			}
		}
	}
}

func TestSpatialSweepShape(t *testing.T) {
	cfg := small()
	cfg.Queries, cfg.PretrainQueries = 500, 150
	cfg.Dataset, cfg.Workload = "Twitter", "TwQW2"
	res := RunSpatialSweep("fig9", cfg, []float64{0.01, 0.04, 0.08})
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		// H4096 dominates latency at every range size on spatial queries.
		if p.LatencyUS["H4096"] >= p.LatencyUS["RSL"] {
			t.Errorf("x=%v: H4096 %.1fµs not below RSL %.1fµs", p.X, p.LatencyUS["H4096"], p.LatencyUS["RSL"])
		}
		// Sub-cell ranges (x below the 1/64 cell side) pay interpolation
		// error; larger ranges must be sharp.
		floor := 0.75
		if p.X < 1.0/64 {
			floor = 0.55
		}
		if p.Accuracy["H4096"] < floor {
			t.Errorf("x=%v: H4096 accuracy %.2f on pure spatial", p.X, p.Accuracy["H4096"])
		}
		if p.Choice == "" {
			t.Error("missing LATEST choice")
		}
	}
}

func TestSpatialSweepConvertsKeywordWorkload(t *testing.T) {
	cfg := small()
	cfg.Queries, cfg.PretrainQueries = 400, 150
	cfg.Dataset, cfg.Workload = "Twitter", "TwQW4"
	res := RunSpatialSweep("fig10", cfg, []float64{0.04})
	// TwQW4 is keyword-only; the sweep must have attached ranges (hybrid),
	// which shows as sampling estimators having meaningful accuracy while
	// H4096 (keyword-blind) collapses.
	p := res.Points[0]
	if p.Accuracy["RSH"] < 0.5 {
		t.Errorf("RSH accuracy %.2f", p.Accuracy["RSH"])
	}
	if p.Accuracy["H4096"] > p.Accuracy["RSH"] {
		t.Errorf("H4096 %.2f should not beat RSH %.2f on hybrid queries", p.Accuracy["H4096"], p.Accuracy["RSH"])
	}
}

func TestKeywordSweepShape(t *testing.T) {
	cfg := small()
	cfg.Queries, cfg.PretrainQueries = 400, 150
	cfg.Dataset, cfg.Workload = "Twitter", "TwQW5"
	res := RunKeywordSweep("fig11", cfg, []int{1, 3, 5})
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if _, present := p.Accuracy["H4096"]; present {
			t.Error("H4096 must be excluded from Fig. 11")
		}
		// Sampling estimators stay accurate across keyword counts.
		if p.Accuracy["RSH"] < 0.7 || p.Accuracy["RSL"] < 0.7 {
			t.Errorf("x=%v sampler accuracy RSL %.2f RSH %.2f", p.X, p.Accuracy["RSL"], p.Accuracy["RSH"])
		}
		// LATEST's choice is one of the reported estimators.
		if p.Choice == "H4096" {
			t.Errorf("LATEST chose the keyword-blind estimator on a keyword workload")
		}
	}
}

func TestMemorySweepShape(t *testing.T) {
	cfg := small()
	cfg.Queries, cfg.PretrainQueries = 400, 150
	cfg.Dataset, cfg.Workload = "Twitter", "TwQW1"
	res := RunMemorySweep("fig13", cfg, []float64{0.25, 1, 4})
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Memory footprints grow with the budget for the capacity-bound
	// estimators.
	for _, name := range []string{"RSL", "RSH", "AASP"} {
		lo := res.Points[0].MemoryB[name]
		hi := res.Points[2].MemoryB[name]
		if lo <= 0 || hi <= lo {
			t.Errorf("%s memory did not grow with budget: %d -> %d", name, lo, hi)
		}
	}
	// Accuracy does not collapse at the largest budget.
	last := res.Points[2]
	if last.Accuracy["RSH"] < res.Points[0].Accuracy["RSH"]-0.1 {
		t.Errorf("RSH accuracy shrank with memory: %.2f -> %.2f",
			res.Points[0].Accuracy["RSH"], last.Accuracy["RSH"])
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("IDs = %v", ids)
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("no description for %s", id)
		}
	}
	if _, err := Run("nope", RunConfig{}); err == nil {
		t.Error("unknown id accepted")
	}
	// A registry-dispatched run honours overrides and completes.
	cfg := small()
	cfg.Queries, cfg.PretrainQueries = 300, 100
	res, err := Run("fig6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl, ok := res.(*TimelineResult)
	if !ok {
		t.Fatalf("fig6 result type %T", res)
	}
	if tl.Alpha != 0 {
		t.Errorf("fig6 α = %v, want 0", tl.Alpha)
	}
	if tl.Workload != "TwQW3" {
		t.Errorf("fig6 workload = %q", tl.Workload)
	}
}

// TestRunPassesLatencyOf: a latency model handed to Run reaches the
// module's switch, so registry-dispatched figures can be made
// deterministic the same way the direct runners are.
func TestRunPassesLatencyOf(t *testing.T) {
	calls := 0
	cfg := RunConfig{Queries: 100, PretrainQueries: 50, WindowMS: 2000, Rate: 0.5,
		LatencyOf: func(name string, q *stream.Query, d time.Duration) time.Duration {
			calls++
			return check.DeterministicLatencyModel(name, q, d)
		}}
	if _, err := Run("fig3", cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("Run dropped cfg.LatencyOf: the module never called it")
	}
}
