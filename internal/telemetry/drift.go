package telemetry

import "math"

// drift.go is the accuracy-drift watchdog: per-estimator windowed q-error
// drift detection. The VFDT adaptor reacts to *relative* estimator ranking;
// it can keep an estimator active while the whole fleet degrades together
// (workload shift, window churn). The watchdog catches that case by
// comparing the mean q-error of a frozen reference window — the first W
// observed errors after calibration, when the envelope was known-good —
// against a rolling window of the most recent W errors. The ratio
// current/reference is exported as latest_qerror_drift; a ratio ≥ the
// threshold marks the estimator drifted. This is also the input signal the
// planned online-correction layer (ROADMAP item 7(c)) consumes.

// DefaultDriftWindow is the reference/current window length in q-error
// observations when the embedder does not size it.
const DefaultDriftWindow = 128

// DefaultDriftThreshold is the current/reference mean q-error ratio at and
// above which an estimator is flagged drifted. 2 means "typical error has
// doubled since calibration" — well outside run-to-run noise for every
// estimator envelope in internal/check, while a sustained regression
// (evicted training regime, workload shift) crosses it quickly.
const DefaultDriftThreshold = 2.0

// DriftSample is one estimator's drift reading.
type DriftSample struct {
	Estimator string `json:"estimator"`
	// Reference is the mean q-error of the frozen reference window (the
	// first Window observations); Current the mean over the most recent
	// Window observations. Both are 0 until their windows fill.
	Reference float64 `json:"reference"`
	Current   float64 `json:"current"`
	// Ratio is Current/Reference, the drift signal; 0 until both windows
	// are full.
	Ratio float64 `json:"ratio"`
	// Threshold is the ratio at which Drifted trips.
	Threshold float64 `json:"threshold"`
	// Samples is the lifetime q-error observation count.
	Samples uint64 `json:"samples"`
	// Drifted reports Ratio >= Threshold (with both windows full).
	Drifted bool `json:"drifted"`
}

// DriftTracker detects q-error drift for one estimator. Not safe for
// concurrent use; callers observe under the same lock that serializes the
// query path (core.Module access is already single-writer per shard).
type DriftTracker struct {
	window int
	thresh float64

	// Reference window: sum of the first `window` observations, frozen
	// once full.
	refSum float64
	refN   int

	// Current window: ring of the most recent `window` observations with
	// an incrementally maintained sum.
	cur    []float64
	curSum float64
	curN   int
	next   int

	total uint64
}

// NewDriftTracker creates a tracker with the given window length and ratio
// threshold (values <= 0 take the defaults).
func NewDriftTracker(window int, threshold float64) *DriftTracker {
	if window <= 0 {
		window = DefaultDriftWindow
	}
	if threshold <= 0 {
		threshold = DefaultDriftThreshold
	}
	return &DriftTracker{window: window, thresh: threshold, cur: make([]float64, window)}
}

// Observe folds one q-error observation (≥ 1 by construction) into both
// windows. O(1), allocation-free.
func (d *DriftTracker) Observe(q float64) {
	if d == nil || math.IsNaN(q) || math.IsInf(q, 0) || q < 1 {
		// Non-finite or sub-1 readings never reach here by construction
		// (q-error >= 1); be safe against misuse.
		return
	}
	d.total++
	if d.refN < d.window {
		d.refSum += q
		d.refN++
	}
	if d.curN == d.window {
		d.curSum -= d.cur[d.next]
	} else {
		d.curN++
	}
	d.cur[d.next] = q
	d.curSum += q
	d.next = (d.next + 1) % d.window
}

// Sample reads the tracker's current drift state for the named estimator.
func (d *DriftTracker) Sample(estimator string) DriftSample {
	s := DriftSample{Estimator: estimator, Threshold: DefaultDriftThreshold}
	if d == nil {
		return s
	}
	s.Threshold = d.thresh
	s.Samples = d.total
	if d.refN == d.window {
		s.Reference = d.refSum / float64(d.refN)
	}
	if d.curN == d.window {
		s.Current = d.curSum / float64(d.curN)
	}
	if s.Reference > 0 && s.Current > 0 {
		s.Ratio = s.Current / s.Reference
		s.Drifted = s.Ratio >= d.thresh
	}
	return s
}

// Reset re-anchors the tracker: both windows clear and the next Window
// observations become the new reference. Called when the embedder knows the
// regime legitimately changed (explicit recalibration).
func (d *DriftTracker) Reset() {
	if d == nil {
		return
	}
	d.refSum, d.refN = 0, 0
	d.curSum, d.curN, d.next = 0, 0, 0
	d.total = 0
}

// MergeDriftSamples folds per-shard drift samples for the same estimator
// set into one fleet view: reference and current means combine weighted by
// each shard's sample count, the ratio is recomputed, and the threshold is
// taken from the first sample (all shards share a config). Order of the
// input groups is preserved.
func MergeDriftSamples(groups ...[]DriftSample) []DriftSample {
	type acc struct {
		ref, cur   float64 // sample-weighted sums
		refW, curW float64
		samples    uint64
		thresh     float64
	}
	var order []string
	accs := map[string]*acc{}
	for _, g := range groups {
		for _, s := range g {
			a := accs[s.Estimator]
			if a == nil {
				a = &acc{thresh: s.Threshold}
				accs[s.Estimator] = a
				order = append(order, s.Estimator)
			}
			w := float64(s.Samples)
			if s.Reference > 0 {
				a.ref += s.Reference * w
				a.refW += w
			}
			if s.Current > 0 {
				a.cur += s.Current * w
				a.curW += w
			}
			a.samples += s.Samples
		}
	}
	out := make([]DriftSample, 0, len(order))
	for _, name := range order {
		a := accs[name]
		s := DriftSample{Estimator: name, Threshold: a.thresh, Samples: a.samples}
		if a.refW > 0 {
			s.Reference = a.ref / a.refW
		}
		if a.curW > 0 {
			s.Current = a.cur / a.curW
		}
		if s.Reference > 0 && s.Current > 0 {
			s.Ratio = s.Current / s.Reference
			s.Drifted = s.Ratio >= s.Threshold
		}
		out = append(out, s)
	}
	return out
}
