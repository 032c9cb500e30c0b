package latest

import (
	"context"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

// traceOne issues one traced query against a warmed engine and returns the
// recorded trace.
func traceOne(t *testing.T, eng Engine, q Query) telemetry.Trace {
	t.Helper()
	tb := telemetry.NewTraceBuffer(4, 1)
	tr := tb.Start("estimate", telemetry.NewTraceID())
	if tr == nil {
		t.Fatal("trace buffer did not sample the first request")
	}
	eng.EstimateAndExecuteTraced(&q, tr)
	tr.Finish()
	traces := tb.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces recorded", len(traces))
	}
	return traces[0]
}

func findSpan(tr telemetry.Trace, name string) (telemetry.Span, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return telemetry.Span{}, false
}

// estimatorSpanOf asserts the trace carries an estimator-inference span
// whose detail names the engine's active estimator.
func estimatorSpanOf(t *testing.T, tr telemetry.Trace, active string) {
	t.Helper()
	sp, ok := findSpan(tr, "estimator")
	if !ok {
		t.Fatalf("no estimator span in %v", tr.Spans)
	}
	if sp.Detail != active {
		t.Errorf("estimator span detail = %q, active estimator = %q", sp.Detail, active)
	}
	if sp.DurNS < 0 {
		t.Errorf("estimator span duration = %d", sp.DurNS)
	}
}

func tracedHybridQuery(w *workload) Query {
	return HybridQuery(CenteredRect(Pt(0.5, 0.5), 0.3, 0.3), []string{"kw1"}, w.ts)
}

func TestSystemTraced(t *testing.T) {
	sys := testSystem(t)
	w := newWorkload(5)
	warmEngine(t, sys, w)

	tr := traceOne(t, sys, tracedHybridQuery(w))
	estimatorSpanOf(t, tr, sys.Stats().Active)

	// A nil trace is the untraced path: same answer, no panic, and the
	// module is left with no dangling recorder.
	q := tracedHybridQuery(w)
	e1, a1 := sys.EstimateAndExecuteTraced(&q, nil)
	e2, a2 := sys.EstimateAndExecute(&q)
	if a1 != a2 {
		t.Errorf("nil-traced actual %d != untraced %d", a1, a2)
	}
	_, _ = e1, e2 // estimates move as the engine trains between calls
}

func TestConcurrentTraced(t *testing.T) {
	conc, err := NewConcurrent(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithPretrainQueries(150), WithAccWindow(60), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Shutdown(context.Background())
	w := newWorkload(6)
	warmEngine(t, conc, w)
	tr := traceOne(t, conc, tracedHybridQuery(w))
	estimatorSpanOf(t, tr, conc.Stats().Active)
}

func TestShardedTraced(t *testing.T) {
	sh := testSharded(t)
	defer sh.Shutdown(context.Background())
	w := newWorkload(7)
	w.feed(sh, 3000)
	for i := 0; i < 5000 && sh.Stats().Phase != PhaseIncremental; i++ {
		w.feed(sh, 2)
		w.query(sh)
	}
	if p := sh.Stats().Phase; p != PhaseIncremental {
		t.Fatalf("sharded engine never left %v", p)
	}

	// A small rect routes to one shard: the estimator span threads through.
	small := HybridQuery(CenteredRect(Pt(0.25, 0.25), 0.05, 0.05), []string{"kw1"}, w.ts)
	tr := traceOne(t, sh, small)
	if _, ok := findSpan(tr, "estimator"); !ok {
		t.Fatalf("single-shard traced query has no estimator span: %v", tr.Spans)
	}
	if _, ok := findSpan(tr, "fanout"); ok {
		t.Fatalf("single-shard query recorded a fanout span: %v", tr.Spans)
	}

	// A whole-world query scatter-gathers: one fanout span, no per-shard
	// estimator attribution (the partials run concurrently).
	wide := SpatialQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, w.ts)
	tr = traceOne(t, sh, wide)
	if _, ok := findSpan(tr, "fanout"); !ok {
		t.Fatalf("fan-out traced query has no fanout span: %v", tr.Spans)
	}
}

func TestDurableTraced(t *testing.T) {
	dur := newDurable(t, NewMemStore())
	w := newWorkload(8)
	warmEngine(t, dur, w)
	tr := traceOne(t, dur, tracedHybridQuery(w))
	estimatorSpanOf(t, tr, statsOf(dur).Active)
}

// TestTracedQueryReadsOwnWrites: a traced query, like an untraced one,
// sees every batch whose FeedBatch returned before it — the exact count it
// observes is what the switch trains on, and it must already include the
// batch.
func TestTracedQueryReadsOwnWrites(t *testing.T) {
	const rounds = 50
	batch := 20_000
	if testing.Short() {
		// A tenth the inserts for the race detector's repeated runs.
		batch = 2_000
	}
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	// Inside shard 0 of the 2x2 grid, so the 4-shard query has one target.
	spot := CenteredRect(Pt(0.25, 0.25), 0.1, 0.1)
	sharded := func(n int) *ShardedSystem {
		s := MustNewSharded(world, time.Second, WithShards(n), WithSeed(1))
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		return s
	}
	for name, eng := range map[string]Engine{
		"sharded1": sharded(1),
		"sharded4": sharded(4),
		"durable":  quietDurable(t, sharded(1), &countStore{Store: NewMemStore()}, 0),
	} {
		t.Run(name, func(t *testing.T) {
			tb := telemetry.NewTraceBuffer(4, 1)
			objs := make([]Object, batch)
			for round := 1; round <= rounds; round++ {
				// Each round is a window span after the last, so the window
				// holds this round's batch and nothing else.
				ts := int64(round) * 2000
				for i := range objs {
					objs[i] = Object{ID: uint64(i), Loc: Pt(0.2+0.1*float64(i)/float64(batch), 0.25), Timestamp: ts}
				}
				eng.FeedBatch(objs)
				q := SpatialQuery(spot, ts)
				tr := tb.Start("estimate", telemetry.NewTraceID())
				_, traced := eng.EstimateAndExecuteTraced(&q, tr)
				tr.Finish()
				_, untraced := eng.EstimateAndExecute(&q)
				if traced != batch || untraced != batch {
					t.Fatalf("round %d: traced query counted %d, untraced %d, fed %d", round, traced, untraced, batch)
				}
			}
		})
	}
}
