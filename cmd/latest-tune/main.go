// latest-tune grid-searches LATEST's tuning knobs on a workload and ranks
// the configurations — the systematic parameter exploration the paper
// leaves as future work ("Exploring systematic ways to tune the learning
// model parameters … may expedite achieving stability", §V-D).
//
// Each grid cell replays the same (dataset, workload, seed) with one
// (τ, β, grace-period) combination and records the module's served
// accuracy, mean served latency and switch count. Ranking weighs accuracy
// against switch churn; pass -alpha to also weigh latency the way the
// module itself would.
//
// Usage:
//
//	latest-tune -dataset Twitter -workload TwQW1
//	latest-tune -taus 0.6,0.75,0.85 -betas 0.5,0.8 -graces 100,200,400
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/spatiotext/latest/internal/experiments"
)

type cell struct {
	tau, beta float64
	grace     int
	accuracy  float64
	switches  int
	score     float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: arguments and streams in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latest-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset  = fs.String("dataset", "Twitter", "dataset: Twitter, eBird or CheckIn")
		wlName   = fs.String("workload", "TwQW1", "workload preset")
		queries  = fs.Int("queries", 1500, "incremental queries per grid cell")
		pretrain = fs.Int("pretrain", 400, "pre-training queries per cell")
		alpha    = fs.Float64("alpha", 0.5, "α used inside the module")
		taus     = fs.String("taus", "0.6,0.7,0.75,0.85", "τ values to sweep")
		betas    = fs.String("betas", "0.5,0.8,0.95", "β values to sweep")
		graces   = fs.String("graces", "100,200,400", "Hoeffding grace periods to sweep")
		seed     = fs.Int64("seed", 1, "random seed (same for every cell)")
		churnW   = fs.Float64("churn-weight", 0.005, "accuracy penalty per switch in the ranking")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(err error) int {
		fmt.Fprintf(stderr, "latest-tune: %v\n", err)
		return 2
	}
	tauVals, err := parseFloats(*taus)
	if err != nil {
		return bad(err)
	}
	betaVals, err := parseFloats(*betas)
	if err != nil {
		return bad(err)
	}
	graceVals, err := parseInts(*graces)
	if err != nil {
		return bad(err)
	}
	total := len(tauVals) * len(betaVals) * len(graceVals)
	fmt.Fprintf(stdout, "sweeping %d configurations on %s/%s (%d+%d queries each)\n\n",
		total, *dataset, *wlName, *pretrain, *queries)

	var cells []cell
	i := 0
	for _, tau := range tauVals {
		for _, beta := range betaVals {
			for _, grace := range graceVals {
				i++
				res := experiments.RunSwitchTimeline("tune", experiments.RunConfig{
					Dataset:         *dataset,
					Workload:        *wlName,
					Queries:         *queries,
					PretrainQueries: *pretrain,
					Alpha:           *alpha,
					AlphaSet:        true,
					Tau:             tau,
					Beta:            beta,
					Grace:           grace,
					Seed:            *seed,
				})
				c := cell{
					tau: tau, beta: beta, grace: grace,
					accuracy: res.ModuleAccuracy,
					switches: len(res.Switches),
				}
				c.score = c.accuracy - *churnW*float64(c.switches)
				cells = append(cells, c)
				fmt.Fprintf(stdout, "[%2d/%d] τ=%.2f β=%.2f grace=%-4d -> accuracy %.3f, %d switches\n",
					i, total, tau, beta, grace, c.accuracy, c.switches)
			}
		}
	}

	sort.Slice(cells, func(a, b int) bool { return cells[a].score > cells[b].score })
	fmt.Fprintf(stdout, "\nranked (score = accuracy − %.3f × switches):\n", *churnW)
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
		best.tau, best.beta, best.grace, *dataset, *wlName, *alpha)
	return 0
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || math.IsNaN(v) {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
