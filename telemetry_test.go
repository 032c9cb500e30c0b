package latest

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// telemetryGet fetches a path from the engine's exposition server.
func telemetryGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return string(body)
}

// TestShardedTelemetryEndpoints drives a sharded engine with telemetry
// enabled and scrapes every endpoint over real HTTP.
func TestShardedTelemetryEndpoints(t *testing.T) {
	sys, err := NewSharded(testWorld(), time.Hour,
		WithShards(2), WithSeed(7),
		WithPretrainQueries(30), WithAccWindow(10),
		WithTelemetry("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	addr := sys.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with WithTelemetry enabled")
	}

	objs := shardWorkload(1, 4000)
	sys.FeedBatch(objs[:2000])
	sys.FeedBatch(objs[2000:])
	qs := shardQueries(2, 200, 4000)
	for i := range qs {
		sys.EstimateAndExecute(&qs[i])
	}

	prom := telemetryGet(t, addr, "/metrics")
	for _, want := range []string{
		"# TYPE latest_feeds_total counter",
		`latest_feeds_total{shard="0"}`,
		`latest_feeds_total{shard="1"}`,
		"# TYPE latest_window_occupancy gauge",
		"# TYPE latest_window_bytes gauge",
		"# TYPE latest_active_estimator gauge",
		"# TYPE latest_query_latency_seconds histogram",
		`latest_query_latency_seconds_bucket{shard="0",le="+Inf"}`,
		`latest_query_latency_seconds_count{shard="0"}`,
		"# TYPE latest_batch_latency_seconds histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap struct {
		Engine      string `json:"engine"`
		Phase       string `json:"phase"`
		WindowSize  int    `json:"window_size"`
		WindowBytes int    `json:"window_bytes"`
		Shards      []struct {
			Index   int    `json:"index"`
			Active  string `json:"active"`
			Feeds   uint64 `json:"feeds"`
			Queries uint64 `json:"queries"`
		} `json:"shards"`
		QError []struct {
			Estimator string  `json:"estimator"`
			QError    float64 `json:"qerror"`
			Samples   uint64  `json:"samples"`
		} `json:"qerror"`
	}
	if err := json.Unmarshal([]byte(telemetryGet(t, addr, "/statusz")), &snap); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	if snap.Engine != "sharded" {
		t.Errorf("engine = %q, want sharded", snap.Engine)
	}
	if snap.WindowSize != 4000 {
		t.Errorf("window_size = %d, want 4000", snap.WindowSize)
	}
	// 4000 objects cost at least their arena slots and one ref each.
	if snap.WindowBytes < 4000*60 {
		t.Errorf("window_bytes = %d, want at least %d", snap.WindowBytes, 4000*60)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(snap.Shards))
	}
	var feeds, queries uint64
	for _, sh := range snap.Shards {
		feeds += sh.Feeds
		queries += sh.Queries
		if sh.Active == "" {
			t.Errorf("shard %d active empty", sh.Index)
		}
	}
	if feeds != 4000 {
		t.Errorf("total feeds = %d, want 4000", feeds)
	}
	if queries == 0 {
		t.Error("no queries counted")
	}
	// Ground truth flowed through Observe, so every estimator must carry a
	// rolling q-error with samples.
	if len(snap.QError) == 0 {
		t.Error("statusz missing per-estimator q-error")
	}
	for _, qe := range snap.QError {
		if qe.Samples == 0 {
			t.Errorf("estimator %s has no q-error samples", qe.Estimator)
		}
	}

	if body := telemetryGet(t, addr, "/debug/vars"); !strings.Contains(body, `"latest"`) {
		t.Error("/debug/vars missing the latest expvar")
	}
	if body := telemetryGet(t, addr, "/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestConcurrentTelemetry covers the single-shard exposition shape and the
// idempotent Shutdown.
func TestConcurrentTelemetry(t *testing.T) {
	sys, err := NewConcurrent(testWorld(), time.Hour, WithSeed(3),
		WithPretrainQueries(20), WithAccWindow(10),
		WithTelemetry("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	addr := sys.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with WithTelemetry enabled")
	}

	objs := shardWorkload(4, 1500)
	sys.FeedBatch(objs[:500])
	sys.FeedBatch(objs[500:])
	for _, q := range shardQueries(5, 60, 1500) {
		q := q
		sys.EstimateAndExecute(&q)
	}

	prom := telemetryGet(t, addr, "/metrics")
	if !strings.Contains(prom, `latest_feeds_total{shard="0"} 1500`) {
		t.Errorf("/metrics missing feed count, got:\n%s", firstLines(prom, 8))
	}
	var snap struct {
		Engine string `json:"engine"`
		Shards []struct {
			Feeds   uint64 `json:"feeds"`
			Queries uint64 `json:"queries"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(telemetryGet(t, addr, "/statusz")), &snap); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	if snap.Engine != "sharded" || len(snap.Shards) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Shards[0].Feeds != 1500 || snap.Shards[0].Queries != 60 {
		t.Errorf("gauges = %+v, want feeds=1500 queries=60", snap.Shards[0])
	}

	sys.Shutdown(context.Background())
	sys.Shutdown(context.Background()) // idempotent
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestGaugesAccessors pins the programmatic path to the same numbers the
// server exposes.
func TestGaugesAccessors(t *testing.T) {
	sys, err := New(testWorld(), time.Hour, WithSeed(9),
		WithPretrainQueries(20), WithAccWindow(10))
	if err != nil {
		t.Fatal(err)
	}
	objs := shardWorkload(6, 1000)
	sys.FeedBatch(objs[:360])
	sys.FeedBatch(objs[360:])
	for _, q := range shardQueries(7, 40, 1000) {
		q := q
		sys.EstimateAndExecute(&q)
	}
	g := sys.PerShardStats().Shards[0].Gauges
	if g.Feeds != 1000 {
		t.Errorf("feeds = %d, want 1000", g.Feeds)
	}
	if g.Batches != 2 {
		t.Errorf("batches = %d, want 2", g.Batches)
	}
	if g.Queries != 40 {
		t.Errorf("queries = %d, want 40", g.Queries)
	}
	if g.QueryLatency.Count != 40 || g.QueryLatency.Sum <= 0 {
		t.Errorf("query latency histogram = %+v", g.QueryLatency)
	}
	if g.BatchLatency.Count != 2 {
		t.Errorf("batch latency histogram = %+v", g.BatchLatency)
	}
	// Occupancy is published after every batch.
	if g.Occupancy != 1000 {
		t.Errorf("occupancy = %d, want 1000", g.Occupancy)
	}
	if g.WindowBytes < g.Occupancy*60 {
		t.Errorf("window bytes = %d for %d objects", g.WindowBytes, g.Occupancy)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
