package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/check"
	"github.com/spatiotext/latest/internal/server"
)

var goldenTrace = filepath.Join("..", "..", "testdata", "check", "trace_twitter.jsonl")

func TestSyntheticRun(t *testing.T) {
	code, stdout, stderr := runLab(t, "run",
		"-queries", "120", "-pretrain", "40", "-window", "2000", "-rate", "0.5", "-report", "60")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	// The finished count includes the 40 pre-training queries.
	for _, want := range []string{"warm-up", "window holds", "q=120", "phase=", "finished: 160 queries", "switches ("} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestRunDeterministic: under a fixed latency model two synthetic runs
// make the same decisions, so every phase, switch and accuracy figure they
// print agrees; only wall-clock latency may differ.
func TestRunDeterministic(t *testing.T) {
	latencyOf = check.DeterministicLatencyModel
	defer func() { latencyOf = nil }()
	wallClock := regexp.MustCompile(`lat\(p50\)=\S+|mean latency \S+`)
	var outs [2]string
	for i := range outs {
		code, stdout, stderr := runLab(t, "run", "-workload", "TwSwitch",
			"-queries", "900", "-pretrain", "200", "-window", "4000", "-rate", "1", "-report", "100")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		outs[i] = wallClock.ReplaceAllString(stdout, "")
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0], outs[1])
	}
	for _, want := range []string{"-- phase:", "  >> switch@", "acc(avg)=", "switches ("} {
		if !strings.Contains(outs[0], want) {
			t.Errorf("run printed no %q line:\n%s", want, outs[0])
		}
	}
}

// TestReplayRun replays the golden trace (a real JSONL stream with known
// provenance) through -input.
func TestReplayRun(t *testing.T) {
	code, stdout, stderr := runLab(t, "run", "-input", goldenTrace, "-world", "-125,24,-66,50",
		"-queries", "80", "-pretrain", "20", "-window", "1000", "-report", "40")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "finished:") {
		t.Errorf("stdout missing completion line:\n%s", stdout)
	}
}

func TestReplayRunEmptyInput(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runLab(t, "run", "-input", empty)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "stream exhausted before any query ran") {
		t.Errorf("stderr missing empty-input error:\n%s", stderr)
	}
}

// TestRemoteReplay replays the golden trace against an in-process serving
// stack (engine behind internal/server, driven over a real TCP socket
// through the public client) and expects the same loop's report, without
// the adaptor's narration.
func TestRemoteReplay(t *testing.T) {
	world := latest.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
	eng, err := latest.NewSharded(world, time.Second, latest.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		eng.Close()
	}()

	code, stdout, stderr := runLab(t, "run", "-addr", srv.Addr(),
		"-input", goldenTrace, "-world", "-125,24,-66,50",
		"-queries", "60", "-window", "1000", "-report", "30")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"window holds", "(0 pre-training + 60 queries)", "q=60", "window=", "finished: 60 queries"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "switches (") || strings.Contains(stdout, "phase=") {
		t.Errorf("remote run printed the local adaptor's narration:\n%s", stdout)
	}
}

// TestRemoteUnreachable fails fast with a useful error.
func TestRemoteUnreachable(t *testing.T) {
	code, _, stderr := runLab(t, "run", "-addr", "127.0.0.1:1", "-queries", "10")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "latestd at") {
		t.Errorf("stderr missing dial context:\n%s", stderr)
	}
}
