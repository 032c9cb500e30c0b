package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/telemetry"
)

// warmDurable builds the acceptance-criterion engine stack: a DurableEngine
// wrapping a System driven to its incremental phase, so traced queries
// exercise the estimator-inference span.
func warmDurable(t *testing.T) *latest.DurableEngine {
	t.Helper()
	sys, err := latest.New(latest.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		latest.WithPretrainQueries(150), latest.WithAccWindow(60), latest.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var ts int64
	for i := 0; i < 3000; i++ {
		ts++
		sys.FeedBatch([]latest.Object{{
			ID:        uint64(ts),
			Loc:       latest.Pt(rng.Float64(), rng.Float64()),
			Keywords:  []string{fmt.Sprintf("kw%d", rng.Intn(20))},
			Timestamp: ts,
		}})
	}
	for i := 0; i < 2000 && sys.Stats().Phase != latest.PhaseIncremental; i++ {
		ts++
		q := latest.HybridQuery(
			latest.CenteredRect(latest.Pt(rng.Float64(), rng.Float64()), 0.5, 0.5),
			[]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		sys.EstimateAndExecute(&q)
	}
	if p := sys.Stats().Phase; p != latest.PhaseIncremental {
		t.Fatalf("engine never left %v", p)
	}
	dur, err := latest.NewDurable(sys.ShardedSystem, latest.NewMemStore(), latest.DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dur
}

func spanIn(tr telemetry.Trace, name string) (telemetry.Span, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return telemetry.Span{}, false
}

// TestEndToEndTrace is the PR's acceptance criterion: a query issued through
// the client against a server fronting a DurableEngine carries ONE trace ID
// across every tier — client spans in the client buffer, server + engine +
// estimator spans in the server buffer, and the timeline retrievable from
// /debug/requests by that ID.
func TestEndToEndTrace(t *testing.T) {
	dur := warmDurable(t)
	srv := startServer(t, dur, Config{TraceEvery: 1, AdminAddr: "127.0.0.1:0"})
	cl := client.Dial(srv.Addr(), client.Options{Trace: true, TraceEvery: 1})
	defer cl.Close()
	ctx := context.Background()

	if _, err := cl.FeedBatch(ctx, []latest.Object{
		{ID: 90001, Loc: latest.Pt(0.4, 0.4), Keywords: []string{"kw1"}, Timestamp: 1 << 40},
	}); err != nil {
		t.Fatal(err)
	}
	q := latest.HybridQuery(latest.CenteredRect(latest.Pt(0.5, 0.5), 0.4, 0.4),
		[]string{"kw1"}, 1<<40)
	if _, err := cl.Estimate(ctx, q); err != nil {
		t.Fatal(err)
	}

	// Client tier: both requests traced, estimate timeline complete.
	var clTrace telemetry.Trace
	var haveCl bool
	for _, tr := range cl.Traces().Snapshot() {
		if tr.Op == "estimate" {
			clTrace, haveCl = tr, true
		}
	}
	if !haveCl {
		t.Fatalf("client buffer has no estimate trace: %+v", cl.Traces().Snapshot())
	}
	for _, want := range []string{"encode", "write", "wait", "decode"} {
		if _, ok := spanIn(clTrace, want); !ok {
			t.Errorf("client trace missing %q span: %v", want, clTrace.Spans)
		}
	}

	// Server tier: the SAME ID appears once the write loop seals the trace.
	var svTrace telemetry.Trace
	var haveSv bool
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && !haveSv; {
		for _, tr := range srv.Traces().Snapshot() {
			if tr.ID == clTrace.ID {
				svTrace, haveSv = tr, true
			}
		}
		if !haveSv {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !haveSv {
		t.Fatalf("trace %s never reached the server buffer: %+v", clTrace.ID, srv.Traces().Snapshot())
	}
	if svTrace.Op != "estimate" || svTrace.Error != "" {
		t.Fatalf("server trace = %+v", svTrace)
	}
	for _, want := range []string{"read", "queue", "engine", "estimator", "encode", "write"} {
		if _, ok := spanIn(svTrace, want); !ok {
			t.Errorf("server trace missing %q span: %v", want, svTrace.Spans)
		}
	}
	// The read span covers waiting for the frame, which ends at clock zero.
	if sp, ok := spanIn(svTrace, "read"); ok && sp.StartNS > 0 {
		t.Errorf("read span starts after clock zero: %+v", sp)
	}
	if sp, ok := spanIn(svTrace, "estimator"); ok && sp.Detail == "" {
		t.Errorf("estimator span has no estimator name: %+v", sp)
	}

	// The feed frame was traced too, with its own engine span.
	var feedTraced bool
	for _, tr := range srv.Traces().Snapshot() {
		if tr.Op == "feed" {
			feedTraced = true
			if _, ok := spanIn(tr, "engine"); !ok {
				t.Errorf("feed trace has no engine span: %v", tr.Spans)
			}
		}
	}
	if !feedTraced {
		t.Error("feed request left no server trace")
	}

	// Admin tier: /debug/requests?id= returns exactly this timeline.
	resp, err := http.Get("http://" + srv.AdminAddr() + "/debug/requests?id=" + clTrace.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump telemetry.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/requests not JSON: %v", err)
	}
	if len(dump.Traces) != 1 || dump.Traces[0].ID != clTrace.ID {
		t.Fatalf("/debug/requests?id= returned %+v", dump.Traces)
	}
	if _, ok := spanIn(dump.Traces[0], "estimator"); !ok {
		t.Errorf("admin timeline missing estimator span: %v", dump.Traces[0].Spans)
	}

	// Metrics tier: traces counted, exemplars attach the ID to a bucket.
	s := srv.sample()
	if s.TracesSeen < 2 || s.TracesSampled < 2 {
		t.Errorf("traces seen/sampled = %d/%d, want >= 2", s.TracesSeen, s.TracesSampled)
	}
	var exemplarHit bool
	for _, ex := range srv.Traces().Exemplars() {
		if ex.TraceID == clTrace.ID && ex.Op == "estimate" {
			exemplarHit = true
		}
	}
	if !exemplarHit {
		t.Errorf("no latency-bucket exemplar for %s: %+v", clTrace.ID, srv.Traces().Exemplars())
	}
}

// TestTraceSamplingStride: with the default stride only a subset of traced
// requests is retained, but every one is counted as seen.
func TestTraceSamplingStride(t *testing.T) {
	srv := startServer(t, &fakeEngine{estimate: 1}, Config{TraceEvery: 4})
	cl := client.Dial(srv.Addr(), client.Options{Trace: true, TraceEvery: 1})
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := cl.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if seen := srv.Traces().Seen(); seen != 8 {
		t.Fatalf("server saw %d traced requests, want 8", seen)
	}
	// 1 in 4 retained; pings finish synchronously in the write loop, so give
	// the last one a moment.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Traces().Sampled() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.Traces().Sampled(); got != 2 {
		t.Fatalf("sampled = %d, want 2", got)
	}
}

// TestUntracedClientLeavesNoTrace: a client without tracing produces zero
// trace overhead or records on the server.
func TestUntracedClientLeavesNoTrace(t *testing.T) {
	srv := startServer(t, &fakeEngine{estimate: 1}, Config{TraceEvery: 1})
	cl := client.Dial(srv.Addr(), client.Options{})
	defer cl.Close()
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cl.Traces() != nil {
		t.Error("untraced client allocated a trace buffer")
	}
	if seen := srv.Traces().Seen(); seen != 0 {
		t.Errorf("server counted %d traced requests from an untraced client", seen)
	}
}
