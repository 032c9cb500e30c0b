package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

func TestMergeStats(t *testing.T) {
	a := Stats{
		Phase: PhaseIncremental, Active: "RSH", Prefilling: "H4096",
		PretrainSeen: 100, IncrementalSeen: 300, Switches: 2,
		TrainingRecords: 400, TreeNodes: 5, TreeSplits: 2,
		AccuracyAvg: 0.9, AccuracySamples: 100, MemoryBytes: 1000,
		Sanitized: map[string]uint64{"RSH": 2, "H4096": 0},
	}
	b := Stats{
		Phase: PhasePretrain, Active: "RSH",
		PretrainSeen: 100, IncrementalSeen: 0,
		TrainingRecords: 100, TreeNodes: 1,
		AccuracyAvg: 0.5, AccuracySamples: 25, MemoryBytes: 500,
		Sanitized: map[string]uint64{"RSH": 1, "H4096": 4},
	}
	c := Stats{
		Phase: PhaseIncremental, Active: "H4096",
		PretrainSeen: 100, IncrementalSeen: 100, Switches: 1,
		TrainingRecords: 200, TreeNodes: 3, TreeSplits: 1,
		AccuracyAvg: 0.7, AccuracySamples: 50, MemoryBytes: 700,
	}
	m := MergeStats([]Stats{a, b, c})

	if m.Phase != PhasePretrain {
		t.Errorf("phase = %v, want earliest (pretrain)", m.Phase)
	}
	if m.Active != "RSH,H4096" {
		t.Errorf("active = %q", m.Active)
	}
	if m.Prefilling != "H4096" {
		t.Errorf("prefilling = %q", m.Prefilling)
	}
	if m.PretrainSeen != 300 || m.IncrementalSeen != 400 || m.Switches != 3 {
		t.Errorf("counters = %+v", m)
	}
	if m.TrainingRecords != 700 || m.TreeNodes != 9 || m.TreeSplits != 3 {
		t.Errorf("model counters = %+v", m)
	}
	if want := map[string]uint64{"RSH": 3, "H4096": 4}; !reflect.DeepEqual(m.Sanitized, want) {
		t.Errorf("sanitized = %v, want %v", m.Sanitized, want)
	}
	if m.MemoryBytes != 2200 {
		t.Errorf("memory = %d", m.MemoryBytes)
	}
	// Weighted by each window's live length.
	want := (0.9*100 + 0.5*25 + 0.7*50) / 175
	if diff := m.AccuracyAvg - want; diff > 1e-12 || diff < -1e-12 || m.AccuracySamples != 175 {
		t.Errorf("accuracy = %v over %d, want %v over 175", m.AccuracyAvg, m.AccuracySamples, want)
	}
}

// TestMergeStatsSkipsEmptyWindow: a shard whose accuracy window a switch
// just emptied has no reading, however many queries it has served, so it
// must not pull the merged average toward its empty window's 0.
func TestMergeStatsSkipsEmptyWindow(t *testing.T) {
	full := Stats{Phase: PhaseIncremental, Active: "RSH",
		PretrainSeen: 100, IncrementalSeen: 300, AccuracyAvg: 0.9, AccuracySamples: 100}
	switched := Stats{Phase: PhaseIncremental, Active: "RSL",
		PretrainSeen: 100, IncrementalSeen: 900, Switches: 1}
	m := MergeStats([]Stats{full, switched})
	if m.AccuracyAvg != 0.9 || m.AccuracySamples != 100 {
		t.Errorf("merged accuracy = %v over %d samples, want 0.9 over 100", m.AccuracyAvg, m.AccuracySamples)
	}
	if m := MergeStats([]Stats{switched, switched}); m.AccuracyAvg != 0 || m.AccuracySamples != 0 {
		t.Errorf("two empty windows merged to %v over %d samples, want no reading", m.AccuracyAvg, m.AccuracySamples)
	}
}

func TestMergeStatsDegenerate(t *testing.T) {
	if got := MergeStats(nil); !reflect.DeepEqual(got, Stats{}) {
		t.Errorf("empty merge = %+v", got)
	}
	one := Stats{Active: "RSL", AccuracyAvg: 0.3}
	if got := MergeStats([]Stats{one}); !reflect.DeepEqual(got, one) {
		t.Errorf("single merge = %+v", got)
	}
}

// TestMergeStatsHistograms verifies the telemetry fields merge: latency
// histograms bucket-wise, q-error weighted by samples, decision traces
// interleaved by wall time.
func TestMergeStatsHistograms(t *testing.T) {
	var ha, hb telemetry.Histogram
	for i := 0; i < 10; i++ {
		ha.Record(time.Microsecond)
	}
	for i := 0; i < 30; i++ {
		hb.Record(time.Millisecond)
	}
	a := Stats{
		EstimateLatency: ha.Snapshot(),
		QError: []telemetry.QErrorSample{
			{Estimator: "RSH", QError: 2.0, Samples: 10},
			{Estimator: "H4096", QError: 4.0, Samples: 5},
		},
		Decisions: []telemetry.Decision{
			{From: "RSH", To: "H4096", WallTime: 100},
			{From: "H4096", To: "RSH", WallTime: 300},
		},
	}
	b := Stats{
		EstimateLatency: hb.Snapshot(),
		QError: []telemetry.QErrorSample{
			{Estimator: "RSH", QError: 6.0, Samples: 30},
		},
		Decisions: []telemetry.Decision{
			{From: "RSH", To: "AASP", WallTime: 200},
		},
	}
	m := MergeStats([]Stats{a, b})

	if m.EstimateLatency.Count != 40 {
		t.Errorf("merged histogram count = %d, want 40", m.EstimateLatency.Count)
	}
	if m.EstimateLatency.Sum != 10*time.Microsecond+30*time.Millisecond {
		t.Errorf("merged histogram sum = %v", m.EstimateLatency.Sum)
	}
	if m.EstimateLatency.Max != time.Millisecond {
		t.Errorf("merged histogram max = %v", m.EstimateLatency.Max)
	}
	var bucketTotal uint64
	for _, n := range m.EstimateLatency.Buckets {
		bucketTotal += n
	}
	if bucketTotal != 40 {
		t.Errorf("merged bucket total = %d", bucketTotal)
	}
	// The merged p99 must land in the millisecond bucket: the 30 slow
	// samples dominate the upper tail.
	if p99 := m.EstimateLatency.P99(); p99 < 100*time.Microsecond {
		t.Errorf("merged p99 = %v, want ≥100µs", p99)
	}

	want := map[string]struct {
		q float64
		n uint64
	}{
		"RSH":   {(2.0*10 + 6.0*30) / 40, 40},
		"H4096": {4.0, 5},
	}
	if len(m.QError) != 2 {
		t.Fatalf("merged qerror = %+v", m.QError)
	}
	for _, qe := range m.QError {
		w, ok := want[qe.Estimator]
		if !ok {
			t.Fatalf("unexpected estimator %q", qe.Estimator)
		}
		if qe.Samples != w.n || qe.QError < w.q-1e-12 || qe.QError > w.q+1e-12 {
			t.Errorf("%s merged = %+v, want q=%v n=%d", qe.Estimator, qe, w.q, w.n)
		}
	}

	if len(m.Decisions) != 3 {
		t.Fatalf("merged decisions = %d", len(m.Decisions))
	}
	for i, wantTo := range []string{"H4096", "AASP", "RSH"} {
		if m.Decisions[i].To != wantTo {
			t.Errorf("decision %d = %+v, want To=%s (wall-time order)", i, m.Decisions[i], wantTo)
		}
	}
}
