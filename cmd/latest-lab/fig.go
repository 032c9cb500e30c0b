package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/spatiotext/latest/internal/experiments"
)

// parseFig parses fig's arguments, the experiment id and then flags, into
// the RunConfig for experiments.Run.
func parseFig(args []string, stderr io.Writer) (id string, o options, cfg experiments.RunConfig, ok bool) {
	// Zero defaults: each experiment's own.
	fs := newFlagSet("fig", &o, stderr, "seed", "rate", "queries", "pretrain", "alpha", "window")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.BoolVar(&o.asJSON, "json", false, "emit JSON instead of text")
	fs.Var(checked[float64]{&o.scale, within(0, math.Inf(1), false)}, "scale", "estimator memory scale")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: latest-lab fig <id|all> [flags]; a flag left unset takes the experiment's own value")
		fs.PrintDefaults()
	}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if !parse(fs, args) {
		return "", o, cfg, false
	}
	cfg = experiments.RunConfig{
		Queries:         o.queries,
		PretrainQueries: o.pretrain,
		WindowMS:        int64(o.windowMS),
		Rate:            o.rate,
		Scale:           o.scale,
		Seed:            o.seed,
		LatencyOf:       latencyOf,
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "alpha" {
			cfg.Alpha, cfg.AlphaSet = o.alpha, true
		}
	})
	return id, o, cfg, true
}

func figCmd(args []string, stdout, stderr io.Writer) int {
	id, o, cfg, ok := parseFig(args, stderr)
	switch {
	case !ok:
		return 2
	case o.list:
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-8s %s\n", id, experiments.Describe(id))
		}
		return 0
	case id == "":
		fmt.Fprintln(stderr, "latest-lab fig: experiment id required (use -list to see ids)")
		return 2
	}
	ids := []string{id}
	if id == "all" {
		ids = experiments.IDs()
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "latest-lab fig: %v\n", err)
			return 2
		}
		if o.asJSON {
			err = enc.Encode(res)
		} else if _, err = res.WriteTo(stdout); err == nil {
			fmt.Fprintf(stdout, "(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		if err != nil {
			fmt.Fprintf(stderr, "latest-lab fig: writing %s: %v\n", id, err)
			return 1
		}
	}
	return 0
}
