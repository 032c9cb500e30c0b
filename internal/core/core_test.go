package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/hoeffding"
	"github.com/spatiotext/latest/internal/stream"
)

// paperLatency models the paper's Table I millisecond-scale latencies so
// switching tests are deterministic regardless of the test machine.
func paperLatency(name string, q *stream.Query, measured time.Duration) time.Duration {
	switch name {
	case estimator.NameH4096:
		return 20 * time.Millisecond
	case estimator.NameRSL:
		return 53 * time.Millisecond
	case estimator.NameRSH:
		return 34 * time.Millisecond
	case estimator.NameAASP:
		return 111 * time.Millisecond
	case estimator.NameFFN:
		return 15 * time.Millisecond
	default:
		return 60 * time.Millisecond
	}
}

func testConfig() Config {
	return Config{
		World:           geo.UnitSquare,
		Span:            10_000,
		PretrainQueries: 300,
		AccWindow:       60,
		LatencyOf:       paperLatency,
		Seed:            1,
	}
}

// driver couples a module with the exact oracle.
type driver struct {
	m   *Module
	w   *stream.Window
	rng *rand.Rand
	ts  int64
	id  uint64
}

func newDriver(t testing.TB, cfg Config) *driver {
	t.Helper()
	w := stream.NewWindow(cfg.World, cfg.Span, 1024)
	cfg.Refill = func(e estimator.Estimator) { estimator.Fill(e, w) }
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &driver{
		m:   m,
		w:   w,
		rng: rand.New(rand.NewSource(7)),
	}
}

// feed inserts n objects (two hotspots + Zipf-ish keywords), one per ms.
func (d *driver) feed(n int) {
	for i := 0; i < n; i++ {
		d.ts++
		var p geo.Point
		if d.rng.Float64() < 0.6 {
			p = geo.UnitSquare.Clamp(geo.Pt(0.3+d.rng.NormFloat64()*0.05, 0.3+d.rng.NormFloat64()*0.05))
		} else {
			p = geo.Pt(d.rng.Float64(), d.rng.Float64())
		}
		o := stream.Object{
			ID:        d.id,
			Loc:       p,
			Keywords:  []string{fmt.Sprintf("kw%d", int(d.rng.Float64()*d.rng.Float64()*30))},
			Timestamp: d.ts,
		}
		d.id++
		d.w.Insert(o)
		d.m.Insert(&o)
	}
}

// spatialQ / keywordQ / hybridQ build queries at the current time.
func (d *driver) spatialQ() stream.Query {
	c := geo.Pt(0.25+d.rng.Float64()*0.15, 0.25+d.rng.Float64()*0.15)
	return stream.SpatialQ(geo.CenteredRect(c, 0.1, 0.1), d.ts)
}

func (d *driver) keywordQ() stream.Query {
	return stream.KeywordQ([]string{fmt.Sprintf("kw%d", d.rng.Intn(8))}, d.ts)
}

func (d *driver) hybridQ() stream.Query {
	c := geo.Pt(0.25+d.rng.Float64()*0.15, 0.25+d.rng.Float64()*0.15)
	return stream.HybridQ(geo.CenteredRect(c, 0.15, 0.15), []string{fmt.Sprintf("kw%d", d.rng.Intn(8))}, d.ts)
}

// runQuery drives one full Estimate/Observe cycle with interleaved data.
func (d *driver) runQuery(q stream.Query) float64 {
	d.feed(20)
	q.Timestamp = d.ts
	est := d.m.Estimate(&q)
	actual := float64(d.w.Answer(&q))
	d.m.Observe(actual)
	return est
}

func TestConfigDefaults(t *testing.T) {
	c := Config{World: geo.UnitSquare, Span: 1000}.withDefaults()
	if c.Alpha != 0.5 || c.Tau != 0.75 || c.Beta != 0.8 {
		t.Errorf("defaults: alpha=%v tau=%v beta=%v", c.Alpha, c.Tau, c.Beta)
	}
	if c.Default != estimator.NameRSH {
		t.Errorf("default estimator = %q", c.Default)
	}
	if len(c.Estimators) != 6 {
		t.Errorf("fleet = %v", c.Estimators)
	}
	// AlphaSet preserves an explicit zero.
	c2 := Config{World: geo.UnitSquare, Span: 1000, Alpha: 0, AlphaSet: true}.withDefaults()
	if c2.Alpha != 0 {
		t.Errorf("explicit alpha 0 overridden to %v", c2.Alpha)
	}
}

// TestTunedGraceTrainsShippedLearner: a module whose Hoeffding config sets
// only the grace period, as every `latest-lab tune` cell builds, trains the tree
// the engine ships, so it revises its root split when the signal moves
// from the query type to the estimator attribute.
func TestTunedGraceTrainsShippedLearner(t *testing.T) {
	cfg := testConfig()
	cfg.Hoeffding = hoeffding.Config{GracePeriod: 100}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree := m.brain.tree
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 7) // qtype, estimator, then five numeric features
	feed := func(n int, byEstimator bool) {
		for i := 0; i < n; i++ {
			qt, est := rng.Intn(numQueryTypes), rng.Intn(len(m.brain.names))
			x[0], x[1] = float64(qt), float64(est)
			label := qt
			if byEstimator {
				label = est
			}
			tree.Learn(x, label)
		}
	}
	feed(5000, false)
	if tree.Splits() == 0 {
		t.Fatal("no initial split")
	}
	feed(20000, true)
	if tree.Resplits() == 0 {
		t.Errorf("the tree never revised its split under drift (%d splits)", tree.Splits())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{World: geo.Rect{}, Span: 1000},
		{World: geo.UnitSquare, Span: 0},
		{World: geo.UnitSquare, Span: 1000, Alpha: 2, AlphaSet: true},
		{World: geo.UnitSquare, Span: 1000, Tau: 1.5},
		{World: geo.UnitSquare, Span: 1000, Beta: 1},
		{World: geo.UnitSquare, Span: 1000, Default: "nope"},
		{World: geo.UnitSquare, Span: 1000, Estimators: []string{estimator.NameRSH}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(testConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPhaseTransitions(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainQueries = 50
	d := newDriver(t, cfg)
	if d.m.Phase() != PhaseWarmup {
		t.Fatalf("initial phase = %v", d.m.Phase())
	}
	d.feed(2000)
	if d.m.Phase() != PhaseWarmup {
		t.Fatalf("phase after warmup data = %v", d.m.Phase())
	}
	d.runQuery(d.spatialQ())
	if d.m.Phase() != PhasePretrain {
		t.Fatalf("phase after first query = %v", d.m.Phase())
	}
	for i := 0; i < 49; i++ {
		d.runQuery(d.hybridQ())
	}
	if d.m.Phase() != PhaseIncremental {
		t.Fatalf("phase after %d queries = %v", 50, d.m.Phase())
	}
	if d.m.ActiveName() != estimator.NameRSH {
		t.Errorf("incremental starts with %q, want RSH", d.m.ActiveName())
	}
	if d.m.TrainingRecords() < 50*6 {
		t.Errorf("training records = %d, want ≥ %d", d.m.TrainingRecords(), 300)
	}
}

func TestProtocolPanics(t *testing.T) {
	d := newDriver(t, testConfig())
	d.feed(500)
	q := d.spatialQ()
	d.m.Estimate(&q)
	t.Run("double estimate", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		q2 := d.spatialQ()
		d.m.Estimate(&q2)
	})
	d.m.Observe(10)
	t.Run("observe without estimate", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		d.m.Observe(10)
	})
	t.Run("invalid query", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		bad := stream.Query{}
		d.m.Estimate(&bad)
	})
}

func TestSwitchOnWorkloadChange(t *testing.T) {
	// Default H4096 under a spatial workload is fine; when the workload
	// turns pure-keyword its accuracy collapses (it answers the whole
	// window count) and LATEST must switch to a sampling estimator.
	cfg := testConfig()
	cfg.Default = estimator.NameH4096
	cfg.Estimators = []string{estimator.NameH4096, estimator.NameRSL, estimator.NameRSH}
	cfg.PretrainQueries = 240
	var events []SwitchEvent
	cfg.OnSwitch = func(ev SwitchEvent) { events = append(events, ev) }
	d := newDriver(t, cfg)
	d.feed(3000)

	// Pre-training with a mix of all types so the tree sees every regime.
	for i := 0; i < 240; i++ {
		switch i % 3 {
		case 0:
			d.runQuery(d.spatialQ())
		case 1:
			d.runQuery(d.keywordQ())
		default:
			d.runQuery(d.hybridQ())
		}
	}
	if d.m.Phase() != PhaseIncremental {
		t.Fatalf("phase = %v", d.m.Phase())
	}
	// Spatial-only period: H4096 is accurate, no switch expected.
	for i := 0; i < 150; i++ {
		d.runQuery(d.spatialQ())
	}
	if len(events) != 0 {
		t.Fatalf("spurious switch during spatial period: %v", events)
	}
	// Keyword period: accuracy collapses, a switch must happen.
	for i := 0; i < 400 && len(events) == 0; i++ {
		d.runQuery(d.keywordQ())
	}
	if len(events) == 0 {
		t.Fatalf("no switch after keyword flood (accAvg=%v active=%s)",
			d.m.AccuracyAverage(), d.m.ActiveName())
	}
	ev := events[0]
	if ev.From != estimator.NameH4096 {
		t.Errorf("switched from %q", ev.From)
	}
	if ev.To != estimator.NameRSL && ev.To != estimator.NameRSH {
		t.Errorf("switched to %q, want a sampling estimator", ev.To)
	}
	if d.m.ActiveName() != ev.To {
		t.Errorf("ActiveName %q != event target %q", d.m.ActiveName(), ev.To)
	}
	// The switch should have been anticipated by pre-filling.
	if !ev.Prefilled {
		t.Logf("note: switch was cold (accuracy collapsed within one window)")
	}
	// After the switch, accuracy on keyword queries recovers.
	for i := 0; i < 150; i++ {
		d.runQuery(d.keywordQ())
	}
	if acc := d.m.AccuracyAverage(); acc < 0.7 {
		t.Errorf("post-switch accuracy %v", acc)
	}
	if got := d.m.Switches(); len(got) != len(events) {
		t.Errorf("Switches() = %d, events %d", len(got), len(events))
	}
	// Every switch leaves an audit record carrying the model consultation
	// and the q-error ledger.
	decs := d.m.Decisions()
	if len(decs) != len(events) {
		t.Fatalf("Decisions() = %d, want %d", len(decs), len(events))
	}
	dec := decs[0]
	if dec.From != ev.From || dec.To != ev.To || dec.QueryIndex != ev.QueryIndex {
		t.Errorf("decision %+v does not match event %+v", dec, ev)
	}
	if dec.Reason != "tau-breach" && dec.Reason != "opportunity" {
		t.Errorf("decision reason = %q", dec.Reason)
	}
	if dec.QueryType != "keyword" {
		t.Errorf("decision query type = %q, want keyword", dec.QueryType)
	}
	if dec.Recommended == "" || dec.Confidence <= 0 || len(dec.Features) == 0 {
		t.Errorf("decision missing consultation: %+v", dec)
	}
	if len(dec.QError) != 3 {
		t.Errorf("decision q-error ledger = %+v, want 3 estimators", dec.QError)
	}
	for _, qe := range dec.QError {
		if qe.Samples == 0 || qe.QError < 1 {
			t.Errorf("q-error sample %+v, want samples>0 and qerror>=1", qe)
		}
	}
	if dec.WallTime == 0 {
		t.Error("decision wall time not stamped")
	}
}

func TestPrefillAndRecovery(t *testing.T) {
	// Drive accuracy into the pre-fill band (below τ/β but above τ) and
	// back out: the candidate must be discarded without a switch.
	cfg := testConfig()
	cfg.Default = estimator.NameH4096
	cfg.Estimators = []string{estimator.NameH4096, estimator.NameRSH}
	cfg.PretrainQueries = 200
	cfg.Tau = 0.6
	cfg.Beta = 0.7 // pre-fill threshold ≈ 0.857
	d := newDriver(t, cfg)
	d.feed(3000)
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			d.runQuery(d.spatialQ())
		} else {
			d.runQuery(d.keywordQ())
		}
	}
	// Mixed traffic with enough keyword queries to dent the average below
	// τ/β without crossing τ.
	sawPrefill := false
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			d.runQuery(d.keywordQ())
		} else {
			d.runQuery(d.spatialQ())
		}
		if d.m.PrefillingName() != "" {
			sawPrefill = true
		}
		if len(d.m.Switches()) > 0 {
			t.Skip("mixture crossed τ on this seed; prefill-only band not observable")
		}
	}
	if !sawPrefill {
		t.Skip("accuracy never entered the pre-fill band on this seed")
	}
	// Recovery: pure spatial traffic lifts the average; candidate dropped.
	for i := 0; i < 200; i++ {
		d.runQuery(d.spatialQ())
	}
	if d.m.PrefillingName() != "" {
		t.Errorf("prefill candidate not discarded after recovery")
	}
	if len(d.m.Switches()) != 0 {
		t.Errorf("unexpected switch: %v", d.m.Switches())
	}
}

func TestAlphaDrivesRecommendation(t *testing.T) {
	// With α=1 (latency only) the recommendation must be the fastest
	// estimator under the synthetic latency model (FFN at 15ms, H4096 at
	// 20ms); with α=0 it must be an accuracy leader for keyword queries
	// (a sampling estimator, since H4096 tanks there).
	run := func(alpha float64) string {
		cfg := testConfig()
		cfg.Alpha = alpha
		cfg.AlphaSet = true
		cfg.PretrainQueries = 300
		d := newDriver(t, cfg)
		d.feed(3000)
		for i := 0; i < 300; i++ {
			switch i % 3 {
			case 0:
				d.runQuery(d.spatialQ())
			case 1:
				d.runQuery(d.keywordQ())
			default:
				d.runQuery(d.hybridQ())
			}
		}
		q := d.keywordQ()
		return d.m.RecommendFor(&q)
	}
	fast := run(1)
	if fast != estimator.NameFFN && fast != estimator.NameH4096 {
		t.Errorf("α=1 recommends %q, want a low-latency estimator", fast)
	}
	accurate := run(0)
	if accurate != estimator.NameRSL && accurate != estimator.NameRSH {
		t.Errorf("α=0 recommends %q for keyword queries, want RSL/RSH", accurate)
	}
}

func TestPretrainWipesInactiveEstimators(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainQueries = 100
	cfg.Estimators = []string{estimator.NameH4096, estimator.NameRSH, estimator.NameRSL}
	cfg.Default = estimator.NameRSH
	d := newDriver(t, cfg)
	d.feed(2000)
	for i := 0; i < 100; i++ {
		d.runQuery(d.spatialQ())
	}
	if d.m.Phase() != PhaseIncremental {
		t.Fatalf("phase = %v", d.m.Phase())
	}
	snap := d.m.Snapshot()
	// Memory now only counts the active estimator.
	if snap.Active != estimator.NameRSH || snap.Prefilling != "" {
		t.Errorf("snapshot: %+v", snap)
	}
	// The inactive estimators were Reset: verify via the module's internal
	// fleet by asking a wiped estimator for an estimate through a fresh
	// query routed at it — indirectly: total memory should be far below
	// the pretraining footprint (which held 3 filled structures).
	if snap.MemoryBytes <= 0 {
		t.Error("memory snapshot empty")
	}
}

func TestSnapshotProgression(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainQueries = 80
	d := newDriver(t, cfg)
	d.feed(1500)
	s := d.m.Snapshot()
	if s.Phase != PhaseWarmup || s.PretrainSeen != 0 {
		t.Errorf("warmup snapshot: %+v", s)
	}
	for i := 0; i < 80; i++ {
		d.runQuery(d.hybridQ())
	}
	s = d.m.Snapshot()
	if s.Phase != PhaseIncremental || s.PretrainSeen != 80 {
		t.Errorf("post-pretrain snapshot: %+v", s)
	}
	if s.TrainingRecords < 80 {
		t.Errorf("records = %d", s.TrainingRecords)
	}
	for i := 0; i < 30; i++ {
		d.runQuery(d.hybridQ())
	}
	s = d.m.Snapshot()
	if s.IncrementalSeen != 30 {
		t.Errorf("IncrementalSeen = %d", s.IncrementalSeen)
	}
	if s.AccuracyAvg <= 0 {
		t.Errorf("AccuracyAvg = %v", s.AccuracyAvg)
	}
}

func TestEstimatesTrackOracleOnStableWorkload(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainQueries = 150
	d := newDriver(t, cfg)
	d.feed(3000)
	for i := 0; i < 150; i++ {
		d.runQuery(d.hybridQ())
	}
	// Stable hybrid workload on RSH: accuracy should hold above τ with no
	// switches.
	for i := 0; i < 300; i++ {
		d.runQuery(d.hybridQ())
	}
	if len(d.m.Switches()) != 0 {
		t.Errorf("switches on a stable workload: %v", d.m.Switches())
	}
	if acc := d.m.AccuracyAverage(); acc < 0.7 {
		t.Errorf("stable accuracy = %v", acc)
	}
}

// TestIdleEstimatorsReleaseMemoryAfterPretraining: when pre-training
// concludes every estimator but the active one is wiped, and a wiped
// estimator holds what a freshly built one holds — Reset releases sample
// arrays instead of truncating them, so idle summaries pin neither their
// backing stores nor the keywords of long-evicted objects.
func TestIdleEstimatorsReleaseMemoryAfterPretraining(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainQueries = 60
	d := newDriver(t, cfg)
	d.feed(12000)
	grew := false
	for i := 0; d.m.Phase() != PhaseIncremental; i++ {
		if i > 2*cfg.PretrainQueries {
			t.Fatal("pre-training did not conclude")
		}
		if i == cfg.PretrainQueries/2 {
			rsl := d.m.ests[d.m.index[estimator.NameRSL]]
			grew = rsl.MemoryBytes() > d.fresh(t, estimator.NameRSL).MemoryBytes()
		}
		d.runQuery([]stream.Query{d.spatialQ(), d.keywordQ(), d.hybridQ()}[i%3])
	}
	if !grew {
		t.Fatal("RSL did not grow during pre-training: the test would prove nothing")
	}
	for i, name := range d.m.names {
		if i == d.m.active {
			continue
		}
		if got, want := d.m.ests[i].MemoryBytes(), d.fresh(t, name).MemoryBytes(); got != want {
			t.Errorf("idle %s holds %d bytes after pre-training, a fresh one %d", name, got, want)
		}
	}
}

// fresh builds the named estimator as the module built its own.
func (d *driver) fresh(t *testing.T, name string) estimator.Estimator {
	t.Helper()
	c := d.m.cfg
	e, err := c.Registry.Build(name, estimator.Params{World: c.World, Span: c.Span, Scale: c.Scale, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return e
}
