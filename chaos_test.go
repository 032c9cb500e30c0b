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

// chaos_test.go drives a durable engine with deterministic WAL faults:
// serving must not notice, and the durability state machine must degrade,
// repair itself and settle healthy once the faults stop.

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

// TestChaosDurableDegradedServing fails 100% of WAL appends under -race
// while 10k queries and a concurrent feeder hammer a DurableEngine.
// Serving must never notice — every answer finite, zero errors — while the durability state machine oscillates
// healthy→degraded (append fails) →healthy (background repair snapshot)
// and finally settles healthy once the faults stop. The transition must be
// visible where operators look: TelemetrySnapshot().Durable, and
// latest_durable_state in the prom exposition.
func TestChaosDurableDegradedServing(t *testing.T) {
	fstore := persist.NewFaultStore(NewMemStore(),
		persist.FaultRule{Op: persist.FaultAppend}) // Count 0: every WAL write (here one per Feed) fails while enabled
	fstore.SetEnabled(false)

	eng, err := NewConcurrent(chaosWorld, 10*time.Second,
		WithSeed(59),
		WithPretrainQueries(40),
		WithAccWindow(30),
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
		func(o Object) { dur.FeedBatch([]Object{o}) },
		func(q *Query) { dur.EstimateAndExecute(q) },
		eng.Phase, rng, &ts)

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
			dur.FeedBatch([]Object{{
				ID:        uint64(feedTS),
				Loc:       Pt(frng.Float64(), frng.Float64()),
				Keywords:  []string{fmt.Sprintf("kw%d", frng.Intn(20))},
				Timestamp: feedTS,
			}})
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
			t.Fatalf("query %d: non-finite or negative estimate %v under WAL faults", i, est)
		}
		// Catch the machine degraded and prove the prom exposition says so.
		// The repair loop can re-arm between the probe and the render, so
		// keep trying — with every append failing, degraded windows recur
		// throughout the run.
		if !sawDegradedProm && i%16 == 0 && durOf(dur).State == telemetry.DurableDegraded {
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
	// to healthy on its own — no manual SnapshotNow.
	fstore.SetEnabled(false)
	deadline := time.Now().Add(10 * time.Second)
	for durOf(dur).State != telemetry.DurableHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("engine never re-armed after faults stopped: %+v", durOf(dur))
		}
		time.Sleep(time.Millisecond)
	}

	h := durOf(dur)
	if h.Degradations == 0 || h.Repairs == 0 {
		t.Fatalf("no full degrade→repair cycle observed: %+v", h)
	}
	if h.DroppedAppends == 0 || h.WALErrors == 0 {
		t.Fatalf("append faults left no trace: %+v", h)
	}
	// Appends must flow again on the post-repair generation.
	before := h.WALAppends
	ts++
	dur.FeedBatch([]Object{{ID: uint64(ts), Loc: Pt(0.5, 0.5), Keywords: []string{"kw1"}, Timestamp: ts}})
	if after := durOf(dur).WALAppends; after != before+1 {
		t.Fatalf("WAL appends did not resume after repair: %d -> %d", before, after)
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
