package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/spatiotext/latest/internal/metrics"
)

// TimelinePoint is one t_i bucket of a switch-timeline figure: the mean
// latency (µs) and accuracy of every estimator over that bucket's queries,
// plus which estimator LATEST had employed.
type TimelinePoint struct {
	T         int                `json:"t"` // 0..99
	LatencyUS map[string]float64 `json:"latency_us"`
	Accuracy  map[string]float64 `json:"accuracy"`
	Active    string             `json:"active"`
}

// TimelineSwitch is a switch event mapped onto the percent timeline.
type TimelineSwitch struct {
	T         int    `json:"t"`
	From      string `json:"from"`
	To        string `json:"to"`
	Prefilled bool   `json:"prefilled"`
}

// TimelineResult reproduces one of the estimator-switch figures
// (Figs. 3-8, 12): per-estimator latency and accuracy series over the
// incremental phase t0..t100 with LATEST's switches marked.
type TimelineResult struct {
	Experiment string           `json:"experiment"`
	Dataset    string           `json:"dataset"`
	Workload   string           `json:"workload"`
	Alpha      float64          `json:"alpha"`
	Estimators []string         `json:"estimators"`
	Points     []TimelinePoint  `json:"points"`
	Switches   []TimelineSwitch `json:"switches"`
	// ModuleAccuracy is the mean accuracy of the answers LATEST actually
	// served (always the active estimator's), the headline effectiveness
	// number.
	ModuleAccuracy float64 `json:"module_accuracy"`
	// BestFixed is the estimator whose answers, served throughout, would
	// have scored best, and BestFixedAccuracy their mean accuracy.
	// HindsightAccuracy is the mean over buckets of each bucket's best
	// estimator's accuracy. ModuleAccuracy's gaps to them are the switch's
	// regret against the best fixed expert (Shen et al.) and against an
	// adaptor that always knew which estimator to run.
	BestFixed         string  `json:"best_fixed"`
	BestFixedAccuracy float64 `json:"best_fixed_accuracy"`
	HindsightAccuracy float64 `json:"hindsight_accuracy"`
	// ServedLatencyUS is the mean latency (µs) of the answers served as
	// RunConfig.LatencyOf models it; 0 when that is unset.
	ServedLatencyUS float64 `json:"served_latency_us,omitempty"`
}

// ActiveAt returns the employed estimator at percent point t.
func (r *TimelineResult) ActiveAt(t int) string {
	if len(r.Points) == 0 {
		return ""
	}
	best, bestD := 0, 1<<30
	for i, p := range r.Points {
		d := p.T - t
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return r.Points[best].Active
}

// MeanAccuracy returns an estimator's mean accuracy across the timeline.
func (r *TimelineResult) MeanAccuracy(name string) float64 {
	total, n := 0.0, 0
	for _, p := range r.Points {
		if v, ok := p.Accuracy[name]; ok {
			total += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// MeanLatencyUS returns an estimator's mean latency (µs) across the
// timeline.
func (r *TimelineResult) MeanLatencyUS(name string) float64 {
	total, n := 0.0, 0
	for _, p := range r.Points {
		if v, ok := p.LatencyUS[name]; ok {
			total += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// RunSwitchTimeline executes a switch-timeline experiment.
func RunSwitchTimeline(experiment string, cfg RunConfig) *TimelineResult {
	cfg = cfg.withDefaults()
	e := newEnv(cfg)
	res := &TimelineResult{
		Experiment: experiment,
		Dataset:    cfg.Dataset,
		Workload:   cfg.Workload,
		Alpha:      moduleAlpha(cfg),
		Estimators: e.names,
	}
	var buckets [100]struct {
		n        int
		lat, acc []float64 // per shadow estimator
		active   map[string]int
	}
	modAccTotal, servedLatTotal := 0.0, 0.0
	e.run(func(i int, m measurement) {
		// Query i falls in bucket ⌊100·i/Queries⌋, the rule that puts a
		// switch at its t below.
		b := &buckets[i*len(buckets)/cfg.Queries]
		if b.n == 0 {
			b.lat, b.acc, b.active = make([]float64, len(e.names)), make([]float64, len(e.names)), map[string]int{}
		}
		b.n++
		for ei, name := range e.names {
			b.lat[ei] += float64(m.latency[ei].Microseconds())
			b.acc[ei] += m.accuracy[ei]
			if name == m.active && cfg.LatencyOf != nil {
				servedLatTotal += float64(cfg.LatencyOf(name, &m.q, m.latency[ei]).Microseconds())
			}
		}
		b.active[m.active]++
		modAccTotal += accuracyOfModule(m)
	})
	for t, b := range buckets {
		if b.n == 0 {
			continue // fewer than 100 queries leave some buckets empty
		}
		p := TimelinePoint{
			T:         t,
			LatencyUS: make(map[string]float64, len(e.names)),
			Accuracy:  make(map[string]float64, len(e.names)),
			Active:    dominant(b.active),
		}
		for ei, name := range e.names {
			p.LatencyUS[name] = b.lat[ei] / float64(b.n)
			p.Accuracy[name] = b.acc[ei] / float64(b.n)
		}
		res.Points = append(res.Points, p)
	}
	for _, ev := range e.module.Switches() {
		res.Switches = append(res.Switches, TimelineSwitch{
			T:         ev.QueryIndex * 100 / cfg.Queries,
			From:      ev.From,
			To:        ev.To,
			Prefilled: ev.Prefilled,
		})
	}
	res.ModuleAccuracy = modAccTotal / float64(cfg.Queries)
	res.ServedLatencyUS = servedLatTotal / float64(cfg.Queries)
	res.scoreReferences()
	return res
}

// scoreReferences fills BestFixed, BestFixedAccuracy and HindsightAccuracy
// from the points.
func (r *TimelineResult) scoreReferences() {
	r.BestFixed, r.BestFixedAccuracy, r.HindsightAccuracy = "", 0, 0
	for _, n := range r.Estimators {
		if a := r.MeanAccuracy(n); r.BestFixed == "" || a > r.BestFixedAccuracy {
			r.BestFixed, r.BestFixedAccuracy = n, a
		}
	}
	for _, p := range r.Points {
		best := 0.0
		for _, a := range p.Accuracy {
			best = max(best, a)
		}
		r.HindsightAccuracy += best
	}
	if len(r.Points) > 0 {
		r.HindsightAccuracy /= float64(len(r.Points))
	}
}

func moduleAlpha(cfg RunConfig) float64 {
	if cfg.AlphaSet || cfg.Alpha != 0 {
		return cfg.Alpha
	}
	return 0.5
}

func accuracyOfModule(m measurement) float64 {
	// The module served m.modEst; score it like any estimator.
	return metrics.Accuracy(m.modEst, m.actual)
}

func dominant(m map[string]int) string {
	best, bestN := "", -1
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names) // deterministic tie-break
	for _, k := range names {
		if m[k] > bestN {
			best, bestN = k, m[k]
		}
	}
	return best
}

// WriteTo renders the result as the figure's data: one row per t with the
// active estimator and per-estimator (latency, accuracy) pairs, followed by
// the switch list.
func (r *TimelineResult) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s / %s (α=%.2f)\n", r.Experiment, r.Dataset, r.Workload, r.Alpha)
	fmt.Fprintf(&b, "# module accuracy (answers served): %.3f\n", r.ModuleAccuracy)
	fmt.Fprintf(&b, "#   vs best fixed %s %.3f: %+.3f; vs hindsight %.3f: %+.3f\n",
		r.BestFixed, r.BestFixedAccuracy, r.ModuleAccuracy-r.BestFixedAccuracy,
		r.HindsightAccuracy, r.ModuleAccuracy-r.HindsightAccuracy)
	if r.ServedLatencyUS > 0 {
		fmt.Fprintf(&b, "#   served latency (modelled): %.1f us\n", r.ServedLatencyUS)
	}
	fmt.Fprintf(&b, "%-4s %-7s", "t", "active")
	for _, n := range r.Estimators {
		fmt.Fprintf(&b, " %12s", n+"(us/acc)")
	}
	fmt.Fprintln(&b)
	for _, p := range r.Points {
		if p.T%5 != 0 {
			continue // print every 5th point; full data in JSON
		}
		fmt.Fprintf(&b, "%-4d %-7s", p.T, p.Active)
		for _, n := range r.Estimators {
			fmt.Fprintf(&b, " %7.1f/%.2f", p.LatencyUS[n], p.Accuracy[n])
		}
		fmt.Fprintln(&b)
	}
	if len(r.Switches) == 0 {
		fmt.Fprintln(&b, "switches: none")
	} else {
		fmt.Fprint(&b, "switches:")
		for i, s := range r.Switches {
			fmt.Fprintf(&b, " S%d@t%d %s->%s", i+1, s.T, s.From, s.To)
		}
		fmt.Fprintln(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
