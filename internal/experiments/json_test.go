package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestResultsMarshalJSON guards the machine-readable output of
// `latest-lab fig -json` for every result type: valid JSON, stable key
// fields, and lossless round trips of the numeric payloads.
func TestResultsMarshalJSON(t *testing.T) {
	overhead := &OverheadResult{Rows: []OverheadRow{{
		Dataset: "Twitter", Index: "Grid", IndexLatency: 2 * time.Millisecond,
		Estimator: "RSH", EstLatency: 500 * time.Microsecond,
		EstAccuracy: 0.82, OverheadFactor: 4.0,
	}}}
	alpha := &AlphaResult{Dataset: "Twitter", Workload: "TwQW3",
		Rows: []AlphaChoiceRow{{Alpha: 0.5, ChoiceT: [3]string{"RSL", "RSH", "RSH"}}}}
	sweep := &SweepResult{Experiment: "fig13", Dataset: "Twitter", Workload: "TwQW1",
		XLabel: "memory", Estimators: []string{"RSH"},
		Points: []SweepPoint{{
			X:         2,
			LatencyUS: map[string]float64{"RSH": 500},
			Accuracy:  map[string]float64{"RSH": 0.87},
			MemoryB:   map[string]int{"RSH": 1 << 20},
			Choice:    "RSH",
		}}}
	timeline := &TimelineResult{Experiment: "fig3", Dataset: "Twitter", Workload: "TwQW1",
		Alpha: 0.5, Estimators: []string{"RSH"},
		Points:   []TimelinePoint{{T: 10, LatencyUS: map[string]float64{"RSH": 200}, Accuracy: map[string]float64{"RSH": 0.8}, Active: "RSH"}},
		Switches: []TimelineSwitch{{T: 19, From: "RSH", To: "H4096", Prefilled: true}},
	}

	for name, res := range map[string]Result{
		"overhead": overhead, "alpha": alpha, "sweep": sweep, "timeline": timeline,
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if !json.Valid(data) {
				t.Fatal("invalid JSON")
			}
			var buf bytes.Buffer
			if _, err := res.WriteTo(&buf); err != nil || buf.Len() == 0 {
				t.Fatalf("WriteTo: %v (%d bytes)", err, buf.Len())
			}
		})
	}

	// Spot-check a round trip.
	data, _ := json.Marshal(sweep)
	var back SweepResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Points[0].MemoryB["RSH"] != 1<<20 || back.Points[0].Accuracy["RSH"] != 0.87 {
		t.Errorf("sweep round trip: %+v", back.Points[0])
	}
	// Overhead durations serialize as nanoseconds and must survive.
	data, _ = json.Marshal(overhead)
	var backO OverheadResult
	if err := json.Unmarshal(data, &backO); err != nil {
		t.Fatal(err)
	}
	if backO.Rows[0].IndexLatency != 2*time.Millisecond {
		t.Errorf("latency round trip: %v", backO.Rows[0].IndexLatency)
	}
}

func TestTimelineAccessorsOnSynthetic(t *testing.T) {
	r := &TimelineResult{Estimators: []string{"A", "B"}}
	for i := 0; i <= 100; i += 10 {
		r.Points = append(r.Points, TimelinePoint{
			T:         i,
			LatencyUS: map[string]float64{"A": float64(i), "B": 2 * float64(i)},
			Accuracy:  map[string]float64{"A": 0.5, "B": 0.9},
			Active:    "B",
		})
	}
	if got := r.MeanAccuracy("B"); got < 0.9-1e-9 || got > 0.9+1e-9 {
		t.Errorf("MeanAccuracy = %v", got)
	}
	if got := r.MeanLatencyUS("A"); got != 50 {
		t.Errorf("MeanLatencyUS = %v", got)
	}
	if got := r.MeanAccuracy("missing"); got != 0 {
		t.Errorf("missing estimator accuracy = %v", got)
	}
	if got := r.ActiveAt(47); got != "B" {
		t.Errorf("ActiveAt = %q", got)
	}
	empty := &TimelineResult{}
	if empty.ActiveAt(50) != "" {
		t.Error("empty ActiveAt should be \"\"")
	}
}

// TestTimelineReferences checks the best-fixed and hindsight sums on a
// hand-built result: A wins the first bucket, B the second and on average.
func TestTimelineReferences(t *testing.T) {
	r := &TimelineResult{Estimators: []string{"A", "B"}, ModuleAccuracy: 0.7, ServedLatencyUS: 120,
		Points: []TimelinePoint{
			{T: 0, Accuracy: map[string]float64{"A": 0.9, "B": 0.6}},
			{T: 1, Accuracy: map[string]float64{"A": 0.2, "B": 0.8}},
		}}
	r.scoreReferences()
	near := func(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }
	if r.BestFixed != "B" || !near(r.BestFixedAccuracy, 0.7) || !near(r.HindsightAccuracy, 0.85) {
		t.Fatalf("best fixed %s %v, hindsight %v; want B 0.7, 0.85", r.BestFixed, r.BestFixedAccuracy, r.HindsightAccuracy)
	}
	var buf bytes.Buffer
	r.WriteTo(&buf)
	for _, want := range []string{"vs best fixed B 0.700: +0.000; vs hindsight 0.850: -0.150", "served latency (modelled): 120.0 us"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("WriteTo lacks %q:\n%s", want, buf.String())
		}
	}
}
