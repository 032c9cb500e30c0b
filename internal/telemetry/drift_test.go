package telemetry

import (
	"math"
	"testing"
)

func TestDriftTrackerWindows(t *testing.T) {
	d := NewDriftTracker(4, 2.0)

	// Before any window fills nothing is reported.
	s := d.Sample("H4096")
	if s.Reference != 0 || s.Current != 0 || s.Drifted {
		t.Fatalf("empty sample = %+v", s)
	}

	// After one partial observation neither window reports.
	d.Observe(1.25)
	if s = d.Sample("H4096"); s.Reference != 0 || s.Current != 0 || s.Ratio != 0 {
		t.Fatalf("partial sample = %+v", s)
	}

	// The first 4 observations freeze the reference window (mean 1.25)
	// and simultaneously fill the current ring: ratio 1, no drift.
	for i := 0; i < 3; i++ {
		d.Observe(1.25)
	}
	s = d.Sample("H4096")
	if s.Reference != 1.25 || s.Current != 1.25 {
		t.Fatalf("full-window sample = %+v", s)
	}
	if math.Abs(s.Ratio-1) > 1e-9 || s.Drifted {
		t.Fatalf("healthy sample = %+v", s)
	}

	// Accuracy collapse: q-errors triple, ratio crosses the threshold.
	for i := 0; i < 4; i++ {
		d.Observe(3.75)
	}
	s = d.Sample("H4096")
	if math.Abs(s.Ratio-3) > 1e-9 || !s.Drifted {
		t.Fatalf("drifted sample = %+v", s)
	}
	if s.Estimator != "H4096" || s.Threshold != 2.0 {
		t.Fatalf("sample metadata = %+v", s)
	}

	// Recovery: the rolling window slides back under the threshold.
	for i := 0; i < 4; i++ {
		d.Observe(1.3)
	}
	if s = d.Sample("H4096"); s.Drifted {
		t.Fatalf("recovered but still drifted: %+v", s)
	}

	d.Reset()
	if s = d.Sample("H4096"); s.Reference != 0 || s.Samples != 0 {
		t.Fatalf("reset sample = %+v", s)
	}
}

func TestDriftTrackerRejectsInvalid(t *testing.T) {
	d := NewDriftTracker(2, 2.0)
	d.Observe(math.NaN())
	d.Observe(0.5) // q-error is >= 1 by definition
	d.Observe(math.Inf(1))
	if s := d.Sample("x"); s.Samples != 0 {
		t.Fatalf("invalid observations counted: %+v", s)
	}
}

func TestDriftTrackerDefaults(t *testing.T) {
	d := NewDriftTracker(0, 0)
	for i := 0; i < 2*DefaultDriftWindow; i++ {
		d.Observe(1.5)
	}
	s := d.Sample("y")
	if s.Threshold != DefaultDriftThreshold || s.Ratio == 0 {
		t.Fatalf("defaulted sample = %+v", s)
	}
}

func TestMergeDriftSamples(t *testing.T) {
	a := []DriftSample{
		{Estimator: "H4096", Reference: 1.0, Current: 2.0, Ratio: 2.0, Threshold: 2.0, Samples: 100, Drifted: true},
		{Estimator: "RSH", Reference: 1.2, Current: 1.2, Ratio: 1.0, Threshold: 2.0, Samples: 50},
	}
	b := []DriftSample{
		{Estimator: "H4096", Reference: 1.0, Current: 1.0, Ratio: 1.0, Threshold: 2.0, Samples: 300},
	}
	merged := MergeDriftSamples(a, b)
	if len(merged) != 2 {
		t.Fatalf("%d merged samples", len(merged))
	}
	var h DriftSample
	for _, m := range merged {
		if m.Estimator == "H4096" {
			h = m
		}
	}
	if h.Samples != 400 {
		t.Fatalf("merged samples = %d", h.Samples)
	}
	// Weighted: (2.0*100 + 1.0*300) / 400 = 1.25 current, reference 1.0.
	if math.Abs(h.Current-1.25) > 1e-9 || math.Abs(h.Ratio-1.25) > 1e-9 {
		t.Fatalf("merged current/ratio = %v/%v", h.Current, h.Ratio)
	}
	if h.Drifted {
		t.Fatal("merged ratio below threshold must not be drifted")
	}

	if out := MergeDriftSamples(nil, nil); len(out) != 0 {
		t.Fatalf("merging nothing = %+v", out)
	}
}
