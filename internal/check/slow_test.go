//go:build slowcheck

package check

import (
	"testing"
	"time"
)

// slow_test.go is the long-mode correctness gate, unlocked with
// -tags slowcheck (CI runs it under -race). The differential run below
// makes >10k deterministic feed/query steps across both engine types plus
// the brute-force oracle and requires zero divergences of any kind.

func TestDifferentialSlow(t *testing.T) {
	cfg := DefaultDiffConfig()
	cfg.Queries = 1000
	cfg.ObjectsPerQuery = 20
	// τ stays at the engine default. At τ = 0.85 the accuracy gate rises to
	// 0.85 as well, RSH holds the run above it, and the one challenger (RSL:
	// as accurate, three times slower) is out-scored, so nothing switches.
	cfg.Window = 10 * time.Second
	report, err := RunDifferential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report.Summary())
	for _, d := range report.Details {
		t.Errorf("divergence: %s", d)
	}
	if !report.Ok() {
		t.Fatalf("slow differential run diverged: %s", report.Summary())
	}
	if steps := report.Steps(); steps < 10_000 {
		t.Fatalf("run made %d steps, want >= 10000", steps)
	}
	if report.Switches == 0 {
		t.Error("no estimator switches exercised at slow scale")
	}
}

// TestDifferentialSlowAllDatasets sweeps the remaining dataset/workload
// pairings at a smaller per-pair budget.
func TestDifferentialSlowAllDatasets(t *testing.T) {
	for _, tc := range []struct{ dataset, workload string }{
		{"eBird", "EbRQW6"},
		{"CheckIn", "CiQW2"},
		{"Twitter", "TwQW6"},
	} {
		cfg := DefaultDiffConfig()
		cfg.Dataset, cfg.Workload = tc.dataset, tc.workload
		cfg.Seed = 5
		cfg.Queries = 600
		report, err := RunDifferential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range report.Details {
			t.Errorf("%s/%s divergence: %s", tc.dataset, tc.workload, d)
		}
		if !report.Ok() {
			t.Fatalf("%s/%s: %s", tc.dataset, tc.workload, report.Summary())
		}
	}
}

func TestMetamorphicSlow(t *testing.T) {
	cfg := DefaultMetaConfig()
	cfg.Objects = 12_000
	cfg.Queries = 200
	cfg.Window = 12 * time.Second
	report, err := RunMetamorphic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report.Summary())
	for _, d := range report.Details {
		t.Errorf("violation: %s", d)
	}
	if !report.Ok() {
		t.Fatal(report.Summary())
	}
}
