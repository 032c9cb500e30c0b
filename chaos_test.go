package latest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// chaos_test.go drives the engines with deterministic fault injection: the
// guard must contain every injected panic, the breaker must quarantine the
// faulting estimator, the fallback chain must keep every served answer
// finite, and probation must re-admit the estimator once the faults stop.

// chaosWorld is the unit square used throughout the chaos suite.
var chaosWorld = Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

// warmToIncremental feeds and queries until phase reports incremental —
// every shard of a sharded engine must individually finish pre-training,
// and a query only pre-trains the shards its range intersects.
func warmToIncremental(t *testing.T, feed func(Object), query func(*Query), phase func() Phase, rng *rand.Rand, ts *int64) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		*ts++
		feed(Object{
			ID:        uint64(*ts),
			Loc:       Pt(rng.Float64(), rng.Float64()),
			Keywords:  []string{fmt.Sprintf("kw%d", rng.Intn(20))},
			Timestamp: *ts,
		})
	}
	for i := 0; i < 2000 && phase() != PhaseIncremental; i++ {
		*ts++
		q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, *ts)
		query(&q)
	}
	if got := phase(); got != PhaseIncremental {
		t.Fatalf("engine never reached the incremental phase (still %v)", got)
	}
}

// TestChaosShardedPanicInjection is the headline resilience scenario: the
// default active estimator (RSH) panics on 100% of its Estimate calls, yet
// the sharded engine must serve 10k queries with zero escaped panics and
// only finite answers, quarantine the estimator (visible in the decision
// trace), and re-admit it once the injector is disabled.
func TestChaosShardedPanicInjection(t *testing.T) {
	inj := NewFaultInjector(7, FaultRule{
		Estimator:   EstimatorRSH,
		Op:          OpEstimate,
		Kind:        InjectPanic,
		Probability: 1,
	})
	inj.SetEnabled(false) // healthy until the fleet finishes pre-training

	sys, err := NewSharded(chaosWorld, 10*time.Second,
		WithShards(2),
		WithSeed(11),
		WithPretrainQueries(40),
		WithAccWindow(30),
		WithFaultInjector(inj),
		WithBreaker(BreakerConfig{Window: 16, Threshold: 4, Cooldown: 40, ProbeSuccesses: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(13))
	var ts int64
	warmToIncremental(t,
		func(o Object) { sys.Feed(o) },
		func(q *Query) { sys.EstimateAndExecute(q) },
		sys.Phase, rng, &ts)

	// Chaos phase: every RSH Estimate call panics. A concurrent feeder
	// hammers ingest at the same time so the quarantine machinery is
	// exercised under real lock contention (this test runs under -race in
	// the chaos CI job).
	inj.SetEnabled(true)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	feedTS := ts
	go func() {
		defer wg.Done()
		frng := rand.New(rand.NewSource(17))
		for !stop.Load() {
			feedTS++
			sys.Feed(Object{
				ID:        uint64(feedTS),
				Loc:       Pt(frng.Float64(), frng.Float64()),
				Keywords:  []string{fmt.Sprintf("kw%d", frng.Intn(20))},
				Timestamp: feedTS,
			})
		}
	}()

	const chaosQueries = 10_000
	for i := 0; i < chaosQueries; i++ {
		ts++
		q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		est, _ := sys.EstimateAndExecute(&q)
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("query %d: non-finite or negative estimate %v under injection", i, est)
		}
	}
	stop.Store(true)
	wg.Wait()
	ts = feedTS + 1

	st := sys.PerShardStats()
	rsh := findHealth(t, st.Merged.Resilience, EstimatorRSH)
	if rsh.Panics == 0 {
		t.Error("no contained panics recorded for RSH")
	}
	if rsh.Quarantines == 0 {
		t.Error("RSH was never quarantined despite 100% Estimate panics")
	}
	quarantineTraced := false
	for _, d := range st.Merged.Decisions {
		if d.Reason == "quarantine" && d.From == EstimatorRSH {
			quarantineTraced = true
			break
		}
	}
	if !quarantineTraced {
		t.Error("no quarantine decision in the merged switch trace")
	}
	for i, sh := range st.Shards {
		for _, name := range []string{EstimatorRSH} {
			h := findHealth(t, sh.Core.Resilience, name)
			if h.State == "closed" && h.Quarantines == 0 && sh.Core.IncrementalSeen > 100 {
				t.Errorf("shard %d: RSH still closed with zero trips after sustained injection", i)
			}
		}
	}

	// Recovery phase: faults stop; cooldown elapses, probes succeed, the
	// breaker re-admits RSH into the candidate pool.
	inj.SetEnabled(false)
	readmitted := false
	for i := 0; i < 4000 && !readmitted; i++ {
		ts++
		q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		est, _ := sys.EstimateAndExecute(&q)
		if math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("non-finite estimate %v during recovery", est)
		}
		if i%50 == 0 {
			readmitted = findHealth(t, sys.Stats().Resilience, EstimatorRSH).Readmissions > 0
		}
	}
	if !readmitted {
		final := findHealth(t, sys.Stats().Resilience, EstimatorRSH)
		t.Fatalf("RSH never re-admitted after injector disabled (state %q, quarantines %d)",
			final.State, final.Quarantines)
	}
}

// TestChaosDurableDegradedServing layers the two fault planes the issue's
// acceptance run demands: 100% RSH estimator panics AND 100% WAL append
// failures, live at once under -race, while 10k queries and a concurrent
// feeder hammer a DurableEngine. Serving must never notice — every answer
// finite, zero errors — while the durability state machine oscillates
// healthy→degraded (append fails) →healthy (background repair snapshot)
// and finally settles healthy once the faults stop. The transition must be
// visible where operators look: Health(), and latest_durable_state in the
// prom exposition.
func TestChaosDurableDegradedServing(t *testing.T) {
	inj := NewFaultInjector(53, FaultRule{
		Estimator:   EstimatorRSH,
		Op:          OpEstimate,
		Kind:        InjectPanic,
		Probability: 1,
	})
	inj.SetEnabled(false)
	fstore := persist.NewFaultStore(NewMemStore(),
		persist.FaultRule{Op: persist.FaultAppend}) // Count 0: every WAL write (here one per Feed) fails while enabled
	fstore.SetEnabled(false)

	eng, err := NewConcurrent(chaosWorld, 10*time.Second,
		WithSeed(59),
		WithPretrainQueries(40),
		WithAccWindow(30),
		WithFaultInjector(inj),
		WithBreaker(BreakerConfig{Window: 16, Threshold: 4, Cooldown: 40, ProbeSuccesses: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := NewDurable(eng, fstore, DurableConfig{
		WALSyncEvery: 1,
		// Fast repairs so the run exercises many full degrade→repair cycles,
		// not one long outage.
		RepairBackoff:    time.Millisecond,
		RepairBackoffMax: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Shutdown(context.Background())

	rng := rand.New(rand.NewSource(61))
	var ts int64
	warmToIncremental(t,
		func(o Object) { dur.Feed(o) },
		func(q *Query) { dur.EstimateAndExecute(q) },
		eng.Phase, rng, &ts)

	inj.SetEnabled(true)
	fstore.SetEnabled(true)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	feedTS := ts
	go func() {
		defer wg.Done()
		frng := rand.New(rand.NewSource(67))
		for !stop.Load() {
			feedTS++
			dur.Feed(Object{
				ID:        uint64(feedTS),
				Loc:       Pt(frng.Float64(), frng.Float64()),
				Keywords:  []string{fmt.Sprintf("kw%d", frng.Intn(20))},
				Timestamp: feedTS,
			})
		}
	}()

	sawDegradedProm := false
	const chaosQueries = 10_000
	for i := 0; i < chaosQueries; i++ {
		ts++
		q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		est, _ := dur.EstimateAndExecute(&q)
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("query %d: non-finite or negative estimate %v under layered injection", i, est)
		}
		// Catch the machine degraded and prove the prom exposition says so.
		// The repair loop can re-arm between the Health probe and the
		// render, so keep trying — with every append failing, degraded
		// windows recur throughout the run.
		if !sawDegradedProm && i%16 == 0 && dur.Health().State == DurableDegraded {
			var b strings.Builder
			telemetry.WriteProm(&b, dur.TelemetrySnapshot())
			sawDegradedProm = strings.Contains(b.String(), "latest_durable_state 1")
		}
	}
	stop.Store(true)
	wg.Wait()

	if !sawDegradedProm {
		t.Error("latest_durable_state never rendered 1 while degraded")
	}

	// Faults off: the background repair loop must settle the machine back
	// to healthy on its own — no manual RepairNow.
	inj.SetEnabled(false)
	fstore.SetEnabled(false)
	deadline := time.Now().Add(10 * time.Second)
	for !dur.Health().Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("engine never re-armed after faults stopped: %+v", dur.Health())
		}
		time.Sleep(time.Millisecond)
	}

	h := dur.Health()
	if h.Degradations == 0 || h.Repairs == 0 {
		t.Fatalf("no full degrade→repair cycle observed: %+v", h)
	}
	if h.DroppedAppends == 0 || h.WALErrors == 0 {
		t.Fatalf("append faults left no trace: %+v", h)
	}
	// Appends must flow again on the post-repair generation.
	before := dur.WALAppends()
	ts++
	dur.Feed(Object{ID: uint64(ts), Loc: Pt(0.5, 0.5), Keywords: []string{"kw1"}, Timestamp: ts})
	if dur.WALAppends() != before+1 {
		t.Fatalf("WAL appends did not resume after repair: %d -> %d", before, dur.WALAppends())
	}
	var b strings.Builder
	telemetry.WriteProm(&b, dur.TelemetrySnapshot())
	out := b.String()
	if !strings.Contains(out, "latest_durable_state 0") {
		t.Error("final exposition does not report latest_durable_state 0")
	}
	if !strings.Contains(out, "latest_durable_repairs_total") {
		t.Error("final exposition missing latest_durable_repairs_total")
	}
}

// findHealth pulls one estimator's health row out of a ResilienceStats.
func findHealth(t *testing.T, r ResilienceStats, name string) EstimatorHealth {
	t.Helper()
	for _, h := range r.Estimators {
		if h.Estimator == name {
			return h
		}
	}
	t.Fatalf("estimator %q missing from resilience stats %+v", name, r)
	return EstimatorHealth{}
}

// TestChaosValueAndLatencyInjection exercises the non-panic fault kinds on
// New's one-shard engine: NaN and garbage estimates must be sanitized (never
// served), and the per-call deadline must convert injected latency into a
// contained fault.
func TestChaosValueAndLatencyInjection(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind InjectKind
	}{
		{"nan", InjectNaN},
		{"garbage", InjectGarbage},
		{"latency", InjectLatency},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := NewFaultInjector(23, FaultRule{
				Estimator:   EstimatorRSH,
				Op:          OpEstimate,
				Kind:        tc.kind,
				Probability: 1,
			})
			inj.SetEnabled(false)
			sys, err := New(chaosWorld, 10*time.Second,
				WithSeed(5),
				WithPretrainQueries(40),
				WithAccWindow(30),
				WithFaultInjector(inj),
				WithBreaker(BreakerConfig{Window: 16, Threshold: 4, Cooldown: 1_000_000, Deadline: 50 * time.Millisecond}),
			)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(29))
			var ts int64
			warmToIncremental(t,
				func(o Object) { sys.Feed(o) },
				func(q *Query) { sys.EstimateAndExecute(q) },
				sys.Phase, rng, &ts)

			inj.SetEnabled(true)
			for i := 0; i < 300; i++ {
				ts++
				q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
					[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
				est, _ := sys.EstimateAndExecute(&q)
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("query %d: served un-sanitized estimate %v", i, est)
				}
			}
			h := findHealth(t, sys.Stats().Resilience, EstimatorRSH)
			if h.Faults() == 0 {
				t.Errorf("no faults recorded for RSH under %s injection", tc.name)
			}
			if h.Quarantines == 0 {
				t.Errorf("RSH not quarantined under %s injection", tc.name)
			}
		})
	}
}

// TestChaosFallbackOracle drives every estimator into quarantine at once:
// with no healthy runner-up the engine must fall back to the exact window
// oracle (or zero) and keep answering.
func TestChaosFallbackOracle(t *testing.T) {
	inj := NewFaultInjector(31, FaultRule{
		Op:          OpEstimate, // Estimator "" matches the whole fleet
		Kind:        InjectPanic,
		Probability: 1,
	})
	inj.SetEnabled(false)
	sys, err := New(chaosWorld, 10*time.Second,
		WithSeed(3),
		WithPretrainQueries(40),
		WithAccWindow(30),
		WithFaultInjector(inj),
		WithBreaker(BreakerConfig{Window: 8, Threshold: 3, Cooldown: 1_000_000}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	var ts int64
	warmToIncremental(t,
		func(o Object) { sys.Feed(o) },
		func(q *Query) { sys.EstimateAndExecute(q) },
		sys.Phase, rng, &ts)

	inj.SetEnabled(true)
	for i := 0; i < 400; i++ {
		ts++
		q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		est, actual := sys.EstimateAndExecute(&q)
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("query %d: non-finite estimate %v with whole fleet faulting", i, est)
		}
		_ = actual
	}
	st := sys.Stats()
	if st.Resilience.Quarantined() == 0 {
		t.Fatal("no estimator quarantined with the whole fleet panicking")
	}
	if st.Resilience.FallbackOracle == 0 && st.Resilience.FallbackZero == 0 && st.Resilience.FallbackRunnerUp == 0 {
		t.Errorf("no fallback answers recorded: %+v", st.Resilience)
	}
	if len(sys.QuarantinedEstimators()) == 0 {
		t.Error("QuarantinedEstimators empty with the whole fleet faulting")
	}
}

// TestQuarantineCountersSurfaceInGauges pins the telemetry plumbing: fault,
// quarantine and fallback counters produced under injection must appear in
// the merged sharded stats (the same path /metrics and /statusz render).
func TestQuarantineCountersSurfaceInGauges(t *testing.T) {
	inj := NewFaultInjector(41, FaultRule{
		Estimator:   EstimatorRSH,
		Op:          OpEstimate,
		Kind:        InjectPanic,
		Probability: 1,
	})
	inj.SetEnabled(false)
	sys, err := NewSharded(chaosWorld, 10*time.Second,
		WithShards(2),
		WithSeed(43),
		WithPretrainQueries(40),
		WithAccWindow(30),
		WithFaultInjector(inj),
		WithBreaker(BreakerConfig{Window: 8, Threshold: 3, Cooldown: 1_000_000}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(47))
	var ts int64
	warmToIncremental(t,
		func(o Object) { sys.Feed(o) },
		func(q *Query) { sys.EstimateAndExecute(q) },
		sys.Phase, rng, &ts)
	inj.SetEnabled(true)
	for i := 0; i < 500; i++ {
		ts++
		q := HybridQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.8, 0.8),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		sys.EstimateAndExecute(&q)
	}

	st := sys.PerShardStats()
	merged := findHealth(t, st.Merged.Resilience, EstimatorRSH)
	var perShard uint64
	for _, sh := range st.Shards {
		perShard += findHealth(t, sh.Core.Resilience, EstimatorRSH).Panics
	}
	if merged.Panics != perShard {
		t.Errorf("merged panics %d != sum of per-shard panics %d", merged.Panics, perShard)
	}
	if merged.Panics == 0 {
		t.Error("no panics surfaced in merged stats")
	}
	snap := sys.TelemetrySnapshot()
	if snap.Resilience.Faults() == 0 {
		t.Error("telemetry snapshot carries no faults")
	}
	found := false
	for _, sh := range snap.Shards {
		if findHealth(t, sh.Resilience, EstimatorRSH).Panics > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no per-shard telemetry sample carries RSH panics")
	}
}
