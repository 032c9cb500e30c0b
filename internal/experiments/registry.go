package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Result is any experiment output that can render itself; all results are
// also JSON-marshalable for machine consumption.
type Result interface {
	WriteTo(w io.Writer) (int64, error)
}

// experimentDef binds an id to its paper defaults and runner.
type experimentDef struct {
	id       string
	describe string
	defaults RunConfig
	run      func(cfg RunConfig) Result
}

// defs is the per-experiment index (DESIGN.md §2): one entry per table and
// figure in the paper's evaluation section.
var defs = []experimentDef{
	{
		id: "fig3", describe: "Fig. 3 — estimator switches on TwQW1 (changing thirds)",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW1"},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig3", cfg) },
	},
	{
		id: "fig4", describe: "Fig. 4 — estimator switches on TwQW6 (different phase order)",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW6"},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig4", cfg) },
	},
	{
		id: "fig5", describe: "Fig. 5 — estimator switches on EbRQW1 (real spatial requests)",
		defaults: RunConfig{Dataset: "eBird", Workload: "EbRQW1"},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig5", cfg) },
	},
	{
		id: "table1", describe: "Table I — full-index overhead vs estimators",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW4"},
		run:      func(cfg RunConfig) Result { return RunIndexOverhead(cfg) },
	},
	{
		id: "table2", describe: "Table II — impact of α on TwQW3 choices",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW3"},
		run:      func(cfg RunConfig) Result { return RunAlphaChoices(cfg) },
	},
	{
		id: "fig6", describe: "Fig. 6 — TwQW3 switches at α=0 (accuracy only)",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW3", Alpha: 0, AlphaSet: true},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig6", cfg) },
	},
	{
		id: "fig7", describe: "Fig. 7 — TwQW3 switches at α=1 (latency only)",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW3", Alpha: 1, AlphaSet: true},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig7", cfg) },
	},
	{
		id: "fig8", describe: "Fig. 8 — EbRQW1 switches at α=1",
		defaults: RunConfig{Dataset: "eBird", Workload: "EbRQW1", Alpha: 1, AlphaSet: true},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig8", cfg) },
	},
	{
		id: "fig9", describe: "Fig. 9 — varying spatial ranges on TwQW1",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW1"},
		run:      func(cfg RunConfig) Result { return RunSpatialSweep("fig9", cfg, nil) },
	},
	{
		id: "fig10", describe: "Fig. 10 — varying spatial ranges on TwQW4",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW4"},
		run:      func(cfg RunConfig) Result { return RunSpatialSweep("fig10", cfg, nil) },
	},
	{
		id: "fig11", describe: "Fig. 11 — varying keyword set size on TwQW5 (H4096 excluded)",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW5"},
		run:      func(cfg RunConfig) Result { return RunKeywordSweep("fig11", cfg, nil) },
	},
	{
		id: "fig12", describe: "Fig. 12 — estimator switches on CiQW1",
		defaults: RunConfig{Dataset: "CheckIn", Workload: "CiQW1"},
		run:      func(cfg RunConfig) Result { return RunSwitchTimeline("fig12", cfg) },
	},
	{
		id: "fig13", describe: "Fig. 13 — varying memory budget (Twitter)",
		defaults: RunConfig{Dataset: "Twitter", Workload: "TwQW1"},
		run:      func(cfg RunConfig) Result { return RunMemorySweep("fig13", cfg, nil) },
	},
}

// IDs lists every experiment id in paper order.
func IDs() []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.id)
	}
	return out
}

// Describe returns the one-line description for an experiment id.
func Describe(id string) string {
	for _, d := range defs {
		if d.id == id {
			return d.describe
		}
	}
	return ""
}

// Run executes the experiment by id. The dataset, workload and α of cfg
// fall back to the experiment's paper defaults when unset; every other
// field, LatencyOf included, passes through as given, and zero values then
// take the global scaling defaults.
func Run(id string, cfg RunConfig) (Result, error) {
	for _, d := range defs {
		if d.id != id {
			continue
		}
		if cfg.Dataset == "" {
			cfg.Dataset = d.defaults.Dataset
		}
		if cfg.Workload == "" {
			cfg.Workload = d.defaults.Workload
		}
		if !cfg.AlphaSet {
			cfg.Alpha, cfg.AlphaSet = d.defaults.Alpha, d.defaults.AlphaSet
		}
		return d.run(cfg), nil
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, known)
}
