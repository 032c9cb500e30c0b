package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadMatchesRecorded: workload reproduces, byte for byte, what the
// standalone workload generator it replaced printed for the same runs
// (recorded in testdata with its flags -list; -workload TwQW1 -n 10000;
// -workload CiQW1 -n 200 -emit; -exportstream eBird -n 300 -seed 7).
func TestWorkloadMatchesRecorded(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"workload_list.txt", []string{"-list"}},
		{"workload_TwQW1_10000.txt", []string{"-workload", "TwQW1", "-queries", "10000"}},
		{"workload_CiQW1_200_emit.jsonl", []string{"-workload", "CiQW1", "-queries", "200", "-emit"}},
		{"export_eBird_300_seed7.jsonl", []string{"-export", "300", "-dataset", "eBird", "-seed", "7"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runLab(t, append([]string{"workload"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%q: exit %d, stderr:\n%s", tc.args, code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("%q: output differs from testdata/%s:\n%s", tc.args, tc.file, stdout)
		}
	}
}

func TestListPresets(t *testing.T) {
	code, stdout, stderr := runLab(t, "workload", "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"TwQW1", "EbRQW1", "CiQW1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list missing preset %s:\n%s", want, stdout)
		}
	}
}

func TestSummary(t *testing.T) {
	code, stdout, stderr := runLab(t, "workload", "-workload", "TwQW1", "-queries", "500")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "# TwQW1 on Twitter — 500 queries") {
		t.Errorf("summary header missing:\n%s", stdout)
	}
	if !strings.Contains(stdout, "total") {
		t.Errorf("summary totals missing:\n%s", stdout)
	}
}

func TestEmitQueriesJSONL(t *testing.T) {
	code, stdout, stderr := runLab(t, "workload", "-workload", "TwQW1", "-queries", "200", "-emit")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	sc := bufio.NewScanner(strings.NewReader(stdout))
	lines := 0
	for sc.Scan() {
		var q jsonQuery
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		if q.Type == "" {
			t.Fatalf("line %d missing type: %s", lines+1, sc.Text())
		}
		lines++
	}
	if lines != 200 {
		t.Errorf("emitted %d lines, want 200", lines)
	}
}

// TestExportStreamRoundTrip: an exported stream replays through run -input
// (non-decreasing timestamps, required fields).
func TestExportStreamRoundTrip(t *testing.T) {
	code, stdout, stderr := runLab(t, "workload", "-export", "3000", "-dataset", "Twitter", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stdout, "\n"); n != 3000 {
		t.Fatalf("exported %d lines, want 3000", n)
	}
	stream := filepath.Join(t.TempDir(), "stream.jsonl")
	if err := os.WriteFile(stream, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = runLab(t, "run", "-input", stream,
		"-queries", "40", "-pretrain", "10", "-window", "500", "-report", "10")
	if code != 0 {
		t.Fatalf("replay: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "finished: 50 queries") {
		t.Errorf("replay did not finish its queries:\n%s", stdout)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, first, _ := runLab(t, "workload", "-workload", "CiQW1", "-queries", "100", "-emit", "-seed", "9")
	_, second, _ := runLab(t, "workload", "-workload", "CiQW1", "-queries", "100", "-emit", "-seed", "9")
	if first != second {
		t.Error("same seed produced different workloads")
	}
}
