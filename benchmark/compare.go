package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is how one (workload, end-to-end metric) pairing came out.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictWorse      verdict = "worse (not gated)"
	verdictUnresolved verdict = "unresolved"
)

// side is one run-set's values of one metric on one workload.
type side struct {
	q1, med, q3 float64
	n           int
}

func sideOf(vs []float64) side {
	q1, med, q3 := quartiles(vs)
	return side{q1, med, q3, len(vs)}
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return math.Abs(s.q3-s.q1) / math.Abs(s.med)
}

// judge applies the benchmark's rule to one pairing. Where either side's
// own runs spread wider than the bound the instrument cannot resolve a
// change of that size, so the pairing is unresolved — never "unchanged".
// Otherwise the new median may be worse than the old by at most the bound.
// Only a gated metric regresses; a demoted one is reported as worse. A
// metric without a bound is a share that is zero on a healthy run, where
// any rise is worse.
func judge(d metricDecl, gated bool, old, new side) verdict {
	worse := verdictWorse
	if gated {
		worse = verdictRegression
	}
	if d.Bound == 0 {
		if new.med > old.med {
			return worse
		}
		return verdictOK
	}
	if old.n > 1 && old.spread() > d.Bound || new.n > 1 && new.spread() > d.Bound {
		return verdictUnresolved
	}
	change := (new.med - old.med) / math.Abs(old.med)
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return worse
	}
	return verdictOK
}

// collect gathers the plain runs' values per workload and metric.
func collect(env envelope) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range env.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric), gated and
// demoted alike, and returns 1 if any gated pairing regressed.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldEnv, err := readEnvelope(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newEnv, err := readEnvelope(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	olds, news := collect(oldEnv), collect(newEnv)
	fmt.Fprintf(stdout, "old %s (%s, %d runs)   new %s (%s, %d runs)\n",
		oldPath, oldEnv.Commit, len(oldEnv.Runs), newPath, newEnv.Commit, len(newEnv.Runs))
	fmt.Fprintf(stdout, "%-16s %-18s %38s %38s %7s %6s  %s\n",
		"workload", "metric", "old q1 / median / q3", "new q1 / median / q3", "change", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for i, d := range printed(false) {
			ov, nv := olds[w.name][d.Name], news[w.name][d.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o, n := sideOf(ov), sideOf(nv)
			v := judge(d, i < len(endToEnd), o, n)
			if v == verdictRegression {
				code = 1
			}
			change := 0.0
			if o.med != 0 {
				change = 100 * (n.med - o.med) / math.Abs(o.med)
			}
			fmt.Fprintf(stdout, "%-16s %-18s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g %+6.1f%% %5.0f%%  %s\n",
				w.name, d.Name, o.q1, o.med, o.q3, n.q1, n.med, n.q3, change, 100*d.Bound, v)
		}
	}
	return code
}
