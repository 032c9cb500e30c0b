package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func testSnapshot() Snapshot {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	hs := h.Snapshot()
	return Snapshot{
		Engine: "sharded", Phase: "incremental", Active: "RSH,H4096",
		Switches: 3, AccuracyAvg: 0.91, MemoryBytes: 4096, WindowSize: 1234,
		Shards: []ShardSample{
			{Index: 0, Active: "RSH", Phase: "incremental", Feeds: 100, Batches: 4,
				Queries: 50, Occupancy: 70, WindowBytes: 7168, Switches: 2, AccuracyAvg: 0.9, AccuracySamples: 100,
				Batch: hs, Query: hs, Estimate: hs},
			{Index: 1, Active: "H4096", Phase: "incremental", Feeds: 60,
				Queries: 30, Occupancy: 40, WindowBytes: 4096, Switches: 1, AccuracyAvg: 0.92, AccuracySamples: 40,
				PrefillsDrawn: 2, PrefillsReplayed: 1, PrefillObjectsDrawn: 3000, PrefillObjectsReplayed: 60000, PrefillsStarted: 3, PrefillsAdopted: 1, Query: hs},
		},
		Decisions: []Decision{
			{Shard: 0, From: "RSH", To: "H4096", Reason: "tau-breach",
				Recommended: "H4096", Confidence: 0.8, WallTime: 42},
		},
		QError: []QErrorSample{{Estimator: "RSH", QError: 1.4, Samples: 50}},
	}
}

func TestServerEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testSnapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE latest_feeds_total counter",
		`latest_feeds_total{shard="0"} 100`,
		`latest_queries_total{shard="1"} 30`,
		"# TYPE latest_query_latency_seconds histogram",
		`latest_query_latency_seconds_count{shard="0"} 100`,
		`le="+Inf"`,
		`latest_active_estimator{shard="0",estimator="RSH"} 1`,
		`latest_qerror{estimator="RSH"} 1.4`,
		`latest_prefills_total{shard="1",mode="draw"} 2`,
		`latest_prefills_total{shard="1",mode="replay"} 1`,
		`latest_prefill_candidates_total{shard="1",outcome="started"} 3`,
		`latest_prefill_candidates_total{shard="1",outcome="adopted"} 1`,
		"# TYPE latest_window_occupancy gauge",
		`latest_window_bytes{shard="0"} 7168`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Cumulative bucket counts must be non-decreasing and end at count.
	if !strings.Contains(body, "latest_query_latency_seconds_bucket") {
		t.Errorf("no bucket lines in /metrics")
	}

	code, body = get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz status %d", code)
	}
	var got statuszBody
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if got.Engine != "sharded" || len(got.Shards) != 2 || len(got.Decisions) != 1 {
		t.Errorf("statusz body = engine %q, %d shards, %d decisions",
			got.Engine, len(got.Shards), len(got.Decisions))
	}
	if got.Decisions[0].Reason != "tau-breach" {
		t.Errorf("decision reason = %q", got.Decisions[0].Reason)
	}
	if !strings.Contains(body, `"prefills_started": 3,`) || !strings.Contains(body, `"prefills_adopted": 1,`) {
		t.Errorf("statusz lacks shard 1's prefills_started and prefills_adopted")
	}
	if got.ShardsView[0].QueryP.Count != 100 || got.ShardsView[0].QueryP.P95 == "" {
		t.Errorf("statusz percentiles = %+v", got.ShardsView[0].QueryP)
	}

	if code, _ := get("/debug/vars"); code != 200 {
		t.Errorf("/debug/vars status %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
}

func TestWritePromCumulativeBuckets(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, testSnapshot())
	var last uint64
	var sawBucket bool
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, `latest_query_latency_seconds_bucket{shard="0"`) {
			continue
		}
		sawBucket = true
		var v uint64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative buckets decreased: %q after %d", line, last)
		}
		last = v
	}
	if !sawBucket {
		t.Fatal("no bucket lines rendered")
	}
	if last != 100 {
		t.Errorf("final cumulative bucket = %d, want 100", last)
	}
}

// fmtSscan pulls the trailing integer off a metrics line.
func fmtSscan(line string, v *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := parseUint(line[i+1:])
	*v = n
	return 1, err
}

func parseUint(s string) (uint64, error) {
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, io.ErrUnexpectedEOF
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}
