package experiments

import (
	"fmt"
	"io"
	"strings"
)

// AlphaChoiceRow is one Table II row: LATEST's choice at three time points
// for one α value.
type AlphaChoiceRow struct {
	Alpha   float64   `json:"alpha"`
	ChoiceT [3]string `json:"choices"` // at t=20, t=60, t=100
}

// AlphaResult reproduces Table II: the impact of α on LATEST's choice over
// query workload TwQW3.
type AlphaResult struct {
	Dataset  string           `json:"dataset"`
	Workload string           `json:"workload"`
	Rows     []AlphaChoiceRow `json:"rows"`
}

// alphaTablePoints are the paper's read-out times.
var alphaTablePoints = [3]int{20, 60, 100}

// alphaTableValues are the paper's α column values.
var alphaTableValues = []float64{0, 0.3, 0.5, 0.7, 1}

// RunAlphaChoices regenerates Table II: for each α it runs the TwQW3
// switch timeline and reads LATEST's choice at t = 20, 60 and 100: the
// estimator it employed for most of the queries up to t, that is the
// dominant active estimator of bucket t−1 (ActiveAt(t−1)). Below 100
// queries some buckets are empty, and ActiveAt reads the nearest point.
func RunAlphaChoices(cfg RunConfig) *AlphaResult {
	if cfg.Workload == "" {
		cfg.Workload = "TwQW3"
	}
	if cfg.Dataset == "" {
		cfg.Dataset = "Twitter"
	}
	res := &AlphaResult{Dataset: cfg.Dataset, Workload: cfg.Workload}
	for _, alpha := range alphaTableValues {
		run := cfg
		run.Alpha, run.AlphaSet = alpha, true
		tl := RunSwitchTimeline("table2", run)
		row := AlphaChoiceRow{Alpha: alpha}
		for i, t := range alphaTablePoints {
			row.ChoiceT[i] = tl.ActiveAt(t - 1)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTo renders Table II.
func (r *AlphaResult) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Table II — impact of α on %s (%s)\n", r.Workload, r.Dataset)
	fmt.Fprintf(&b, "%-6s %-8s %-8s %-8s\n", "alpha", "t=20", "t=60", "t=100")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6.1f %-8s %-8s %-8s\n", row.Alpha, row.ChoiceT[0], row.ChoiceT[1], row.ChoiceT[2])
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ChoiceFor returns the row for the given α, used by tests.
func (r *AlphaResult) ChoiceFor(alpha float64) ([3]string, bool) {
	for _, row := range r.Rows {
		if row.Alpha == alpha {
			return row.ChoiceT, true
		}
	}
	return [3]string{}, false
}
