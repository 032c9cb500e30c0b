package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/server"
)

func startTestServer(t *testing.T) string {
	t.Helper()
	eng, err := latest.NewConcurrent(latest.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Shutdown(context.Background())
	})
	return srv.Addr()
}

// TestClosedLoop: the default mode completes the exact request budget with
// zero errors against a live server and reports sane numbers.
func TestClosedLoop(t *testing.T) {
	addr := startTestServer(t)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", addr,
		"-conns", "2",
		"-requests", "300",
		"-batch", "16",
		"-feed-frac", "0.9",
		"-seed", "7",
		"-out", outPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}

	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout not JSON: %v\n%s", err, stdout.String())
	}
	if rep.Requests != 300 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d", rep.Requests, rep.Errors)
	}
	if rep.Feeds == 0 || rep.Queries == 0 {
		t.Fatalf("mix degenerate: feeds=%d queries=%d", rep.Feeds, rep.Queries)
	}
	if rep.Mode != "closed" || rep.Throughput <= 0 || rep.LatencyUS.P50 < 0 {
		t.Fatalf("report malformed: %+v", rep)
	}
	// -out writes the identical report.
	fileBytes, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var fromFile report
	if err := json.Unmarshal(fileBytes, &fromFile); err != nil || fromFile.Requests != rep.Requests {
		t.Fatalf("file report mismatch: %v %+v", err, fromFile)
	}
}

// TestOpenLoop: -qps paces a fixed-duration run.
func TestOpenLoop(t *testing.T) {
	addr := startTestServer(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", addr,
		"-conns", "2",
		"-qps", "500",
		"-duration", "300ms",
		"-feed-frac", "0.5",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("open loop report: %+v", rep)
	}
	// Open loop must not massively overshoot its schedule: 500 qps for
	// 300ms is ~150 starts; allow generous slack for coarse pacing.
	if rep.Requests > 400 {
		t.Fatalf("open loop overshot: %d requests", rep.Requests)
	}
}

// TestMultiTarget: a comma-separated -addr splits workers round-robin
// across targets and the report carries per-target slices that sum to the
// aggregate.
func TestMultiTarget(t *testing.T) {
	addrA, addrB := startTestServer(t), startTestServer(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", addrA + ", " + addrB,
		"-conns", "4",
		"-requests", "200",
		"-batch", "8",
		"-seed", "11",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests != 200 {
		t.Fatalf("requests=%d errors=%d", rep.Requests, rep.Errors)
	}
	if len(rep.PerTarget) != 2 {
		t.Fatalf("per_target has %d entries, want 2: %+v", len(rep.PerTarget), rep)
	}
	var sum uint64
	for i, tr := range rep.PerTarget {
		if tr.Requests == 0 {
			t.Fatalf("target %d (%s) drove no requests", i, tr.Addr)
		}
		if tr.Errors != 0 {
			t.Fatalf("target %d (%s) errors=%d", i, tr.Addr, tr.Errors)
		}
		sum += tr.Requests
	}
	if sum != rep.Requests {
		t.Fatalf("per-target sum %d != total %d", sum, rep.Requests)
	}
	if rep.PerTarget[0].Addr != addrA || rep.PerTarget[1].Addr != addrB {
		t.Fatalf("per-target order %+v, want flag order %s,%s", rep.PerTarget, addrA, addrB)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-conns", "0"},
		{"-feed-frac", "1.5"},
		{"-qps", "100"}, // missing -duration
		{"-dataset", "Mars"},
		{"-workload", "NotAWorkload"},
		{"-addr", " , "},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}
