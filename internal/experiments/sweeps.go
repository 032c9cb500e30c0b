package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/spatiotext/latest/internal/workload"
)

// SweepPoint is one x-axis position of a parameter-sweep figure.
type SweepPoint struct {
	X         float64            `json:"x"`
	LatencyUS map[string]float64 `json:"latency_us"`
	Accuracy  map[string]float64 `json:"accuracy"`
	MemoryB   map[string]int     `json:"memory_bytes,omitempty"`
	Choice    string             `json:"choice"` // LATEST's employed estimator
}

// SweepResult reproduces the parameter-sweep figures (Figs. 9-11, 13).
type SweepResult struct {
	Experiment string       `json:"experiment"`
	Dataset    string       `json:"dataset"`
	Workload   string       `json:"workload"`
	XLabel     string       `json:"x_label"`
	Estimators []string     `json:"estimators"`
	Points     []SweepPoint `json:"points"`
}

// DefaultSpatialSides is the paper's spatial-range sweep: range side as a
// fraction of the world's side (0.5% … 8%).
var DefaultSpatialSides = []float64{0.005, 0.01, 0.02, 0.04, 0.08}

// DefaultKeywordCounts is the Fig. 11 sweep of keywords per query.
var DefaultKeywordCounts = []int{1, 2, 3, 4, 5}

// DefaultMemoryScales is the Fig. 13 sweep of the estimator memory budget
// relative to the defaults.
var DefaultMemoryScales = []float64{0.25, 0.5, 1, 2, 4}

// runSweepPoint runs one env to completion and aggregates per-estimator
// means plus LATEST's dominant choice over the final quarter of the run.
func runSweepPoint(cfg RunConfig, spec workload.Spec, x float64, withMem bool) SweepPoint {
	e := newEnvSpec(cfg, spec)
	lat := make([]float64, len(e.names))
	acc := make([]float64, len(e.names))
	tailActive := map[string]int{}
	e.run(func(i int, m measurement) {
		for ei := range e.names {
			lat[ei] += float64(m.latency[ei].Microseconds())
			acc[ei] += m.accuracy[ei]
		}
		if i >= e.cfg.Queries*3/4 {
			tailActive[m.active]++
		}
	})
	p := SweepPoint{
		X:         x,
		LatencyUS: make(map[string]float64, len(e.names)),
		Accuracy:  make(map[string]float64, len(e.names)),
		Choice:    dominant(tailActive),
	}
	n := float64(e.cfg.Queries)
	for ei, name := range e.names {
		p.LatencyUS[name] = lat[ei] / n
		p.Accuracy[name] = acc[ei] / n
	}
	if withMem {
		p.MemoryB = make(map[string]int, len(e.names))
		for i, name := range e.names {
			p.MemoryB[name] = e.shadow[i].MemoryBytes()
		}
	}
	return p
}

// RunSpatialSweep regenerates Figs. 9/10: per-estimator latency and
// accuracy at fixed spatial range sides on the given workload.
func RunSpatialSweep(experiment string, cfg RunConfig, sides []float64) *SweepResult {
	cfg = cfg.withDefaults()
	if len(sides) == 0 {
		sides = DefaultSpatialSides
	}
	base := workload.ByName(cfg.Workload)
	res := &SweepResult{
		Experiment: experiment, Dataset: cfg.Dataset, Workload: cfg.Workload,
		XLabel: "range side (fraction of world side)",
	}
	for _, side := range sides {
		spec := base.WithRangeSide(side)
		if spec.MixAt(0).Spatial+spec.MixAt(0).Hybrid == 0 {
			// A keyword-only workload swept over ranges becomes hybrid:
			// attach the range to every query (Fig. 10 does this to TwQW4).
			spec.Phases = []workload.Phase{{Until: 1, Mix: workload.Mix{Hybrid: 1}}}
		}
		p := runSweepPoint(cfg, spec, side, false)
		res.Points = append(res.Points, p)
		if res.Estimators == nil {
			res.Estimators = namesOf(p)
		}
	}
	return res
}

// RunKeywordSweep regenerates Fig. 11: per-estimator latency and accuracy
// as the query keyword count grows 1..5 on TwQW5. H4096 is excluded from
// the report exactly as the paper excludes it ("it uses purely spatial
// statistics").
func RunKeywordSweep(experiment string, cfg RunConfig, counts []int) *SweepResult {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = DefaultKeywordCounts
	}
	base := workload.ByName(cfg.Workload)
	res := &SweepResult{
		Experiment: experiment, Dataset: cfg.Dataset, Workload: cfg.Workload,
		XLabel: "keywords per query",
	}
	for _, k := range counts {
		p := runSweepPoint(cfg, base.WithKeywordCount(k), float64(k), false)
		delete(p.LatencyUS, "H4096")
		delete(p.Accuracy, "H4096")
		res.Points = append(res.Points, p)
		if res.Estimators == nil {
			res.Estimators = namesOf(p)
		}
	}
	return res
}

// RunMemorySweep regenerates Fig. 13: per-estimator latency and accuracy
// across memory budgets on the Twitter dataset.
func RunMemorySweep(experiment string, cfg RunConfig, scales []float64) *SweepResult {
	cfg = cfg.withDefaults()
	if len(scales) == 0 {
		scales = DefaultMemoryScales
	}
	base := workload.ByName(cfg.Workload)
	res := &SweepResult{
		Experiment: experiment, Dataset: cfg.Dataset, Workload: cfg.Workload,
		XLabel: "memory budget (x default)",
	}
	for _, scale := range scales {
		run := cfg
		run.Scale = scale
		p := runSweepPoint(run, base, scale, true)
		res.Points = append(res.Points, p)
		if res.Estimators == nil {
			res.Estimators = namesOf(p)
		}
	}
	return res
}

func namesOf(p SweepPoint) []string {
	names := make([]string, 0, len(p.Accuracy))
	for _, n := range []string{"H4096", "RSL", "RSH", "AASP", "FFN", "SPN"} {
		if _, ok := p.Accuracy[n]; ok {
			names = append(names, n)
		}
	}
	return names
}

// WriteTo renders the sweep as aligned rows.
func (r *SweepResult) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s / %s (x = %s)\n", r.Experiment, r.Dataset, r.Workload, r.XLabel)
	fmt.Fprintf(&b, "%-8s %-7s", "x", "choice")
	for _, n := range r.Estimators {
		fmt.Fprintf(&b, " %12s", n+"(us/acc)")
	}
	fmt.Fprintln(&b)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8.3f %-7s", p.X, p.Choice)
		for _, n := range r.Estimators {
			fmt.Fprintf(&b, " %7.1f/%.2f", p.LatencyUS[n], p.Accuracy[n])
		}
		fmt.Fprintln(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
