package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/spatiotext/latest/internal/experiments"
)

type cell struct {
	tau, beta float64
	grace     int
	accuracy  float64
	switches  int
	score     float64
}

// tuneCmd grid-searches the switch's knobs on a workload and ranks the
// configurations: the systematic parameter exploration the paper leaves as
// future work ("Exploring systematic ways to tune the learning model
// parameters … may expedite achieving stability", §V-D).
//
// Each grid cell replays the same (dataset, workload, seed) with one
// (τ, β, grace period) combination and records the module's served
// accuracy and switch count. The ranking weighs accuracy against switch
// churn; α weighs latency inside the module as usual.
func tuneCmd(args []string, stdout, stderr io.Writer) int {
	o := defaults()
	o.queries, o.pretrain = 1500, 400
	o.taus = []float64{0.6, 0.7, 0.75, 0.85}
	o.betas = []float64{0.5, 0.8, 0.95}
	o.graces = []int{100, 200, 400}
	o.churnWeight = 0.005
	fs := newFlagSet("tune", &o, stderr, "dataset", "workload", "seed", "queries", "pretrain", "alpha")
	fs.Var(checked[[]float64]{&o.taus, listOf(within(0, 1, false))}, "taus", "τ values to sweep")
	fs.Var(checked[[]float64]{&o.betas, listOf(within(0, 1, false))}, "betas", "β values to sweep")
	fs.Var(checked[[]int]{&o.graces, listOf(atLeast(0))}, "graces", "Hoeffding grace periods to sweep")
	fs.Var(checked[float64]{&o.churnWeight, within(0, math.MaxFloat64, true)}, "churn-weight", "accuracy penalty per switch in the ranking")
	if !parse(fs, args) {
		return 2
	}

	total := len(o.taus) * len(o.betas) * len(o.graces)
	fmt.Fprintf(stdout, "sweeping %d configurations on %s/%s (%d+%d queries each)\n\n",
		total, o.dataset, o.workload, o.pretrain, o.queries)
	var cells []cell
	i := 0
	for _, tau := range o.taus {
		for _, beta := range o.betas {
			for _, grace := range o.graces {
				i++
				res := experiments.RunSwitchTimeline("tune", experiments.RunConfig{
					Dataset:         o.dataset,
					Workload:        o.workload,
					Queries:         o.queries,
					PretrainQueries: o.pretrain,
					Alpha:           o.alpha,
					AlphaSet:        true,
					Tau:             tau,
					Beta:            beta,
					Grace:           grace,
					Seed:            o.seed,
				})
				c := cell{
					tau: tau, beta: beta, grace: grace,
					accuracy: res.ModuleAccuracy,
					switches: len(res.Switches),
				}
				c.score = c.accuracy - o.churnWeight*float64(c.switches)
				cells = append(cells, c)
				fmt.Fprintf(stdout, "[%2d/%d] τ=%.2f β=%.2f grace=%-4d -> accuracy %.3f, %d switches\n",
					i, total, tau, beta, grace, c.accuracy, c.switches)
			}
		}
	}

	sort.Slice(cells, func(a, b int) bool { return cells[a].score > cells[b].score })
	fmt.Fprintf(stdout, "\nranked (score = accuracy − %.3f × switches):\n", o.churnWeight)
	fmt.Fprintf(stdout, "%-4s %-6s %-6s %-6s %9s %9s %8s\n", "rank", "tau", "beta", "grace", "accuracy", "switches", "score")
	for r, c := range cells {
		if r >= 10 {
			break
		}
		fmt.Fprintf(stdout, "%-4d %-6.2f %-6.2f %-6d %9.3f %9d %8.3f\n",
			r+1, c.tau, c.beta, c.grace, c.accuracy, c.switches, c.score)
	}
	best := cells[0]
	fmt.Fprintf(stdout, "\nrecommended: -tau %.2f -beta %.2f (grace %d) for %s/%s at α=%.2f\n",
		best.tau, best.beta, best.grace, o.dataset, o.workload, o.alpha)
	return 0
}
