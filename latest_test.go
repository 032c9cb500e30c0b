package latest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/telemetry"
)

func testSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	base := []Option{WithPretrainQueries(150), WithAccWindow(60), WithSeed(1)}
	sys, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func feedSystem(sys *System, rng *rand.Rand, ts *int64, n int) {
	for i := 0; i < n; i++ {
		*ts++
		sys.FeedBatch([]Object{{
			ID:        uint64(*ts),
			Loc:       Pt(rng.Float64(), rng.Float64()),
			Keywords:  []string{fmt.Sprintf("kw%d", rng.Intn(20))},
			Timestamp: *ts,
		}})
	}
}

func TestSystemLifecycle(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(2))
	var ts int64
	if sys.Phase() != PhaseWarmup {
		t.Fatalf("phase = %v", sys.Phase())
	}
	feedSystem(sys, rng, &ts, 3000)
	if sys.WindowSize() == 0 {
		t.Fatal("window empty after feeding")
	}
	for i := 0; i < 150; i++ {
		feedSystem(sys, rng, &ts, 10)
		q := HybridQuery(CenteredRect(Pt(0.5, 0.5), 0.4, 0.4), []string{"kw1"}, ts)
		est, actual := sys.EstimateAndExecute(&q)
		if est < 0 {
			t.Fatalf("negative estimate %v (actual %d)", est, actual)
		}
	}
	if sys.Phase() != PhaseIncremental {
		t.Fatalf("phase after pretraining = %v", sys.Phase())
	}
	if sys.ActiveEstimator() != EstimatorRSH {
		t.Errorf("active = %q, want default RSH", sys.ActiveEstimator())
	}
	st := sys.Stats()
	// The query counters are exact; the model has learned from the run.
	if st.PretrainSeen != 150 {
		t.Errorf("pretrain seen = %d", st.PretrainSeen)
	}
	if st.TrainingRecords == 0 {
		t.Errorf("model saw no records")
	}
}

func TestSystemAccuracyOnStableWorkload(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(3))
	var ts int64
	feedSystem(sys, rng, &ts, 5000)
	// Pre-training must see varied queries — a constant query would let
	// even the workload-driven FFN memorize it perfectly and legitimately
	// win the α-weighted score.
	for i := 0; i < 150; i++ {
		feedSystem(sys, rng, &ts, 10)
		q := SpatialQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.25, 0.25), ts)
		sys.EstimateAndExecute(&q)
	}
	// Post-pretraining, estimates should track the oracle closely.
	total := 0.0
	const n = 100
	for i := 0; i < n; i++ {
		feedSystem(sys, rng, &ts, 10)
		q := SpatialQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.25, 0.25), ts)
		est, actual := sys.EstimateAndExecute(&q)
		total += metrics.Accuracy(est, float64(actual))
	}
	if avg := total / n; avg < 0.8 {
		t.Errorf("mean accuracy %.3f", avg)
	}
	// A stable workload permits at most the opportunity trigger's single
	// move to an equally-accurate faster estimator — never churn.
	if sw := sys.Switches(); len(sw) > 1 {
		t.Errorf("churn on stable workload: %v", sw)
	}
}

func TestSystemObserveActualPath(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(4))
	var ts int64
	feedSystem(sys, rng, &ts, 1000)
	q := KeywordQuery([]string{"kw0"}, ts)
	_ = sys.Estimate(&q)
	sys.ObserveActual(42) // external engine supplied the truth
	if sys.Stats().TrainingRecords == 0 {
		t.Error("external feedback produced no training records")
	}
}

func TestSystemRejectsBadConfig(t *testing.T) {
	if _, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(Rect{}, time.Second); err == nil {
		t.Error("empty world accepted")
	}
	if _, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, time.Second,
		WithDefaultEstimator("bogus")); err == nil {
		t.Error("bogus default accepted")
	}
}

// TestOptionsMatchConfig pins the functional-option surface to the
// resolved config fields it writes, including the Alpha/AlphaSet pairing
// that options exist to hide.
func TestOptionsMatchConfig(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	onSwitch := func(SwitchEvent) {}
	got := buildConfig(world, time.Minute, []Option{
		WithAlpha(0), // the literal zero the old API could not express
		WithTau(0.6), WithBeta(0.7), WithAccWindow(90),
		WithPretrainQueries(123), WithMemoryScale(2),
		WithSeed(99), WithOnSwitch(onSwitch), WithShards(3),
		nil, // nil options are tolerated
	})
	if !got.AlphaSet || got.Alpha != 0 {
		t.Errorf("WithAlpha(0): alpha=%v set=%v", got.Alpha, got.AlphaSet)
	}
	if got.World != world || got.Window != time.Minute {
		t.Errorf("world/window = %v/%v", got.World, got.Window)
	}
	if got.Tau != 0.6 || got.Beta != 0.7 || got.AccWindow != 90 ||
		got.PretrainQueries != 123 || got.MemoryScale != 2 ||
		got.Seed != 99 || got.Shards != 3 || got.OnSwitch == nil {
		t.Errorf("options lost fields: %+v", got)
	}
	// A later option overrides an earlier one.
	over := buildConfig(world, time.Minute, []Option{WithSeed(1), WithSeed(2)})
	if over.Seed != 2 {
		t.Errorf("later option did not win: seed = %d", over.Seed)
	}
}

// TestFeedBatch pins batch ingest to the same objects fed as batches of
// one on a deterministic system.
func TestFeedBatch(t *testing.T) {
	single := testSystem(t)
	batched := testSystem(t)
	rng := rand.New(rand.NewSource(6))
	objs := make([]Object, 500)
	for i := range objs {
		objs[i] = Object{
			ID:        uint64(i + 1),
			Loc:       Pt(rng.Float64(), rng.Float64()),
			Keywords:  []string{fmt.Sprintf("kw%d", rng.Intn(20))},
			Timestamp: int64(i + 1),
		}
	}
	for i := range objs {
		single.FeedBatch(objs[i : i+1])
	}
	batched.FeedBatch(append([]Object(nil), objs...))
	if single.WindowSize() != batched.WindowSize() {
		t.Fatalf("window sizes diverge: %d vs %d", single.WindowSize(), batched.WindowSize())
	}
	qs := []Query{
		SpatialQuery(CenteredRect(Pt(0.5, 0.5), 0.4, 0.4), 500),
		KeywordQuery([]string{"kw1"}, 500),
		HybridQuery(CenteredRect(Pt(0.25, 0.25), 0.3, 0.3), []string{"kw2"}, 500),
	}
	for i := range qs {
		q := qs[i]
		est, act := batched.EstimateAndExecute(&q)
		wantEst, wantAct := single.EstimateAndExecute(&qs[i])
		if est != wantEst || act != wantAct {
			t.Errorf("query %d: batch (%v, %d) vs single (%v, %d)",
				i, est, act, wantEst, wantAct)
		}
	}
}

// TestCustomEstimatorRegistration exercises the §IV extensibility claim:
// a user-defined estimator participates in the fleet.
func TestCustomEstimatorRegistration(t *testing.T) {
	reg := DefaultRegistry()
	reg.Register("Naive", func(p EstimatorParams) Estimator {
		return &naiveEstimator{}
	})
	sys := testSystem(t, WithRegistry(reg),
		WithEstimators(EstimatorH4096, EstimatorRSH, "Naive"))
	rng := rand.New(rand.NewSource(5))
	var ts int64
	feedSystem(sys, rng, &ts, 2000)
	for i := 0; i < 150; i++ {
		feedSystem(sys, rng, &ts, 5)
		q := SpatialQuery(CenteredRect(Pt(0.5, 0.5), 0.3, 0.3), ts)
		sys.EstimateAndExecute(&q)
	}
	if sys.Phase() != PhaseIncremental {
		t.Fatalf("phase = %v", sys.Phase())
	}
}

// naiveEstimator always answers zero — the worst legal estimator.
type naiveEstimator struct{ n int }

func (e *naiveEstimator) Name() string                     { return "Naive" }
func (e *naiveEstimator) Insert(o *Object)                 { e.n++ }
func (e *naiveEstimator) Estimate(q *Query) float64        { return 0 }
func (e *naiveEstimator) Observe(q *Query, actual float64) {}
func (e *naiveEstimator) Reset()                           { e.n = 0 }
func (e *naiveEstimator) MemoryBytes() int                 { return 8 }

func TestQueryConstructors(t *testing.T) {
	r := NewRect(Pt(1, 1), Pt(0, 0))
	if r != (Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}) {
		t.Errorf("NewRect = %v", r)
	}
	sq := SpatialQuery(r, 5)
	kq := KeywordQuery([]string{"a"}, 5)
	hq := HybridQuery(r, []string{"a"}, 5)
	if sq.Type() != SpatialQueryType || kq.Type() != KeywordQueryType || hq.Type() != HybridQueryType {
		t.Error("query constructors produced wrong types")
	}
}

// TestExactAnswerAtCellEdge: the exact answer counts an object sitting on
// a cell edge of the window's grid for a range ending one ulp past it. On
// [-10,10]×[-5,5], x = -1.5625 starts column 27 of 64, and a range whose
// MaxX is the next float above it must count it; a span computed from
// the arithmetic edge min + 27·step stops at column 26.
func TestExactAnswerAtCellEdge(t *testing.T) {
	sys, err := New(Rect{MinX: -10, MinY: -5, MaxX: 10, MaxY: 5}, time.Minute, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.FeedBatch([]Object{{ID: 1, Loc: Pt(-1.5625, 0), Keywords: []string{"edge"}, Timestamp: 1}})
	q := SpatialQuery(Rect{MinX: -3, MinY: -1, MaxX: math.Nextafter(-1.5625, math.Inf(1)), MaxY: 1}, 1)
	if _, actual := sys.EstimateAndExecute(&q); actual != 1 {
		t.Fatalf("actual = %d, want 1", actual)
	}
}

// TestEngineSurface pins Engine to its five calls: one feed call, the query
// path plain and traced, the telemetry view and shutdown. *DurableEngine
// adds only SnapshotNow: TelemetrySnapshot is its one view of durability.
func TestEngineSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[Engine](), []string{"EstimateAndExecute", "EstimateAndExecuteTraced", "FeedBatch", "Shutdown", "TelemetrySnapshot"}},
		{reflect.TypeFor[*DurableEngine](), []string{"EstimateAndExecute", "EstimateAndExecuteTraced", "FeedBatch", "Shutdown", "SnapshotNow", "TelemetrySnapshot"}},
	} {
		got := make([]string, tc.typ.NumMethod())
		for i := range got {
			got[i] = tc.typ.Method(i).Name
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v declares %v, want %v", tc.typ, got, tc.want)
		}
	}
}

// TestUnpairedEstimateIsDropped: a split Estimate whose Execute never comes
// does not wedge its shard. The fused query, the next split Estimate and a
// durable snapshot each drop it untrained; a late Execute still counts
// exactly but trains nothing, and a late ObserveActual does nothing.
func TestUnpairedEstimateIsDropped(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(12))
	var ts int64
	feedSystem(sys, rng, &ts, 500)
	q := SpatialQuery(Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}, ts)
	trained := func() int {
		st := sys.Stats()
		return st.PretrainSeen + st.IncrementalSeen
	}
	// noPanic runs fn and reports a panic as a test error, so one wedge
	// does not hide the next.
	noPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", what, r)
			}
		}()
		fn()
	}

	var want int
	n0 := trained()
	qa := q
	sys.Estimate(&qa)
	noPanic("EstimateAndExecute after an unpaired Estimate", func() {
		qb := q
		_, want = sys.EstimateAndExecute(&qb)
	})
	if got := trained(); got != n0+1 {
		t.Errorf("queries trained = %d, want %d: only the fused query trains", got, n0+1)
	}

	// Nothing is pending now: Execute counts exactly and trains nothing,
	// and ObserveActual does nothing.
	noPanic("Execute with nothing pending", func() {
		qc := q
		if got := sys.Execute(&qc); got != want {
			t.Errorf("Execute with nothing pending = %d, want %d", got, want)
		}
	})
	noPanic("ObserveActual with nothing pending", func() { sys.ObserveActual(float64(want)) })
	if got := trained(); got != n0+1 {
		t.Errorf("queries trained = %d after unpaired second halves, want %d", got, n0+1)
	}

	// A second split Estimate drops the first; its own pair then trains.
	noPanic("Estimate after an unpaired Estimate", func() {
		qd, qe := q, q
		sys.Estimate(&qd)
		sys.Estimate(&qe)
		if got := sys.Execute(&qe); got != want {
			t.Errorf("paired Execute = %d, want %d", got, want)
		}
	})
	if got := trained(); got != n0+2 {
		t.Errorf("queries trained = %d, want %d", got, n0+2)
	}

	// A snapshot, periodic or the final one Shutdown takes, drops it too.
	// A fresh engine, so this half stands whatever the first half found.
	fresh := testSystem(t)
	feedSystem(fresh, rng, &ts, 500)
	dur, err := NewDurable(fresh.ShardedSystem, NewMemStore(), DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qf := q
	fresh.Estimate(&qf)
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Errorf("SnapshotNow after an unpaired Estimate: %v", err)
	}
	noPanic("Estimate after a snapshot", func() {
		qg := q
		fresh.Estimate(&qg)
	})
	if err := dur.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown after an unpaired Estimate: %v", err)
	}
	if st := durOf(dur).State; st != telemetry.DurableHealthy {
		t.Errorf("durability %s after an unpaired Estimate, want healthy", st)
	}
}
