package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListFlag(t *testing.T) {
	code, stdout, stderr := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, id := range []string{"fig3", "table1"} {
		if !strings.Contains(stdout, id) {
			t.Errorf("-list output missing %s:\n%s", id, stdout)
		}
	}
}

func TestMissingExpIsUsageError(t *testing.T) {
	code, _, stderr := runBench(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "-exp required") {
		t.Errorf("stderr missing usage hint:\n%s", stderr)
	}
}

func TestUnknownExp(t *testing.T) {
	code, _, stderr := runBench(t, "-exp", "nonsense")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stderr == "" {
		t.Error("no error reported for unknown experiment")
	}
}

// TestExperimentJSONAndOut runs the smallest real experiment through the
// -json and -out paths and checks both emit parseable JSON.
func TestExperimentJSONAndOut(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips real experiment run")
	}
	outPath := filepath.Join(t.TempDir(), "res.json")
	code, stdout, stderr := runBench(t,
		"-exp", "fig3", "-queries", "60", "-pretrain", "30",
		"-window", "2000", "-rate", "0.5", "-json", "-out", outPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var viaStdout map[string]any
	if err := json.Unmarshal([]byte(stdout), &viaStdout); err != nil {
		t.Fatalf("-json stdout is not JSON: %v\n%s", err, stdout)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var viaFile []map[string]any
	if err := json.Unmarshal(raw, &viaFile); err != nil {
		t.Fatalf("-out file is not a JSON array: %v", err)
	}
	if len(viaFile) != 1 {
		t.Fatalf("-out collected %d results, want 1", len(viaFile))
	}
}

func TestIngestMatrixSmoke(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "matrix.json")
	code, stdout, stderr := runBench(t,
		"-exp", "ingest-matrix", "-objects", "4000", "-batch", "64",
		"-shards-list", "1,2", "-producers-list", "1,2", "-json", "-out", outPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var res ingestMatrixResult
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("ingest-matrix -json stdout is not JSON: %v\n%s", err, stdout)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("matrix has %d cells, want 4 (2 shards × 2 producers)", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.WindowSize != 4000 {
			t.Errorf("cell shards=%d producers=%d: window %d, want 4000 (objects lost in ingest)",
				c.Shards, c.Producers, c.WindowSize)
		}
		if c.ObjectsSec <= 0 {
			t.Errorf("cell shards=%d producers=%d: nonpositive throughput", c.Shards, c.Producers)
		}
		if c.Shards > 1 && c.SpeedupVs1Shard <= 0 {
			t.Errorf("cell shards=%d producers=%d: missing speedup vs 1-shard baseline", c.Shards, c.Producers)
		}
	}
	// The CI scaling gate greps these exact keys; keep them stable.
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"objects_per_sec"`, `"batch_p99_ms"`, `"speedup_vs_1shard"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("-out file missing key %s", key)
		}
	}
}

// TestIngestMatrixGate pins the gate's host-awareness: on a sub-4-CPU host
// an unmeetable floor must skip (exit 0, reason recorded); on a multi-core
// host a trivially meetable floor must enforce and pass.
func TestIngestMatrixGate(t *testing.T) {
	code, stdout, stderr := runBench(t,
		"-exp", "ingest-matrix", "-objects", "3000", "-batch", "64",
		"-shards-list", "1,2", "-producers-list", "2", "-min-speedup", "1000", "-json")
	var res ingestMatrixResult
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout)
	}
	if res.Gate == nil {
		t.Fatal("gate result missing from output")
	}
	if runtime.NumCPU() < 4 {
		if code != 0 || res.Gate.Enforced {
			t.Errorf("sub-4-CPU host: gate must skip, got exit %d enforced=%t (stderr: %s)",
				code, res.Gate.Enforced, stderr)
		}
		if !strings.Contains(res.Gate.Reason, "skipped") {
			t.Errorf("gate reason %q does not record the skip", res.Gate.Reason)
		}
	} else {
		// A 1000x floor is unmeetable anywhere: the gate must enforce and fail.
		if code != 1 || !res.Gate.Enforced {
			t.Errorf("multi-core host: unmeetable floor must fail, got exit %d enforced=%t", code, res.Gate.Enforced)
		}
	}
}

func TestIngestMatrixBadList(t *testing.T) {
	code, _, stderr := runBench(t, "-exp", "ingest-matrix", "-shards-list", "1,zero")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr, "shards-list") {
		t.Errorf("stderr does not name the bad flag:\n%s", stderr)
	}
}
