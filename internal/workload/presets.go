package workload

import (
	"fmt"
	"sort"
)

// Preset workloads, named as in the paper (§VI-A). The phase schedules of
// the "changing" workloads (TwQW1, TwQW6) are engineered to reproduce the
// published switch narratives: spatial-dominated segments reward H4096,
// keyword-dominated segments reward RSL, hybrid segments reward RSH.
var presets = map[string]Spec{
	// TwQW1: one-third of each type overall, with query types heavily
	// changing over time (Fig. 3: switches near t18, t31, t53, t75).
	"TwQW1": {
		Name: "TwQW1", Dataset: "Twitter",
		Phases: []Phase{
			{Until: 0.18, Mix: Mix{Spatial: 0.20, Keyword: 0.20, Hybrid: 0.60}},
			{Until: 0.31, Mix: Mix{Spatial: 0.95, Keyword: 0.00, Hybrid: 0.05}},
			{Until: 0.53, Mix: Mix{Spatial: 0.15, Keyword: 0.25, Hybrid: 0.60}},
			{Until: 0.75, Mix: Mix{Spatial: 0.00, Keyword: 0.90, Hybrid: 0.10}},
			{Until: 1.00, Mix: Mix{Spatial: 0.20, Keyword: 0.20, Hybrid: 0.60}},
		},
		RangeSide: 0.04, RangeJitter: 0.4, KwMin: 1, KwMax: 3,
	},
	// TwQW2: 100% pure spatial.
	"TwQW2": {
		Name: "TwQW2", Dataset: "Twitter",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 1}}},
		RangeSide: 0.04, RangeJitter: 0.4, KwMin: 1, KwMax: 1,
	},
	// TwQW3: 50% pure spatial, 50% spatial-keyword throughout (Table II,
	// Figs. 6-7).
	"TwQW3": {
		Name: "TwQW3", Dataset: "Twitter",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 0.5, Hybrid: 0.5}}},
		RangeSide: 0.04, RangeJitter: 0.4, KwMin: 1, KwMax: 2,
	},
	// TwQW4: 100% single-keyword queries.
	"TwQW4": {
		Name: "TwQW4", Dataset: "Twitter",
		Phases: []Phase{{Until: 1, Mix: Mix{Keyword: 1}}},
		// RangeSide is still used when sweeps convert this workload; keep a
		// sane default.
		RangeSide: 0.04, KwMin: 1, KwMax: 1,
	},
	// TwQW5: 100% multi-keyword queries (Fig. 11 sweeps the count 1-5).
	"TwQW5": {
		Name: "TwQW5", Dataset: "Twitter",
		Phases:    []Phase{{Until: 1, Mix: Mix{Keyword: 1}}},
		RangeSide: 0.04, KwMin: 2, KwMax: 5,
	},
	// TwQW6: thirds with a different phase order than TwQW1 (Fig. 4:
	// switches near t18 and t39).
	"TwQW6": {
		Name: "TwQW6", Dataset: "Twitter",
		Phases: []Phase{
			{Until: 0.18, Mix: Mix{Spatial: 0.10, Keyword: 0.30, Hybrid: 0.60}},
			{Until: 0.39, Mix: Mix{Spatial: 0.90, Keyword: 0.00, Hybrid: 0.10}},
			{Until: 1.00, Mix: Mix{Spatial: 0.10, Keyword: 0.45, Hybrid: 0.45}},
		},
		RangeSide: 0.04, RangeJitter: 0.4, KwMin: 1, KwMax: 3,
	},

	// TwSwitch: not from the paper; the differential harness's workload.
	// Phases that force switches: a mix of every type for pre-training's
	// share, then spatial only over ranges wide enough for the histogram
	// to match a sampler's accuracy at less than half its latency, then
	// keyword only, which the histogram cannot answer.
	"TwSwitch": {
		Name: "TwSwitch", Dataset: "Twitter",
		Phases: []Phase{
			{Until: 0.30, Mix: Mix{Spatial: 1.0 / 3, Keyword: 1.0 / 3, Hybrid: 1.0 / 3}},
			{Until: 0.65, Mix: Mix{Spatial: 1}},
			{Until: 1.00, Mix: Mix{Keyword: 1}},
		},
		RangeSide: 0.2, RangeJitter: 0.4, KwMin: 1, KwMax: 2,
	},

	// EbRQW1: the real UCR-Star request log — 100% spatial with
	// heavy-tailed range sizes (dataset-search requests span counties to
	// multi-state extents) and session locality (Figs. 5, 8).
	"EbRQW1": {
		Name: "EbRQW1", Dataset: "eBird",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 1}}},
		RangeSide: 0.1, RangeJitter: 1.0, KwMin: 1, KwMax: 1,
		SessionLocality: 0.5,
	},
	// EbRQW2-6: the remaining eBird mixes (described but not plotted in the
	// paper; provided for completeness).
	"EbRQW2": {
		Name: "EbRQW2", Dataset: "eBird",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 0.5, Hybrid: 0.5}}},
		RangeSide: 0.06, RangeJitter: 0.8, KwMin: 1, KwMax: 2,
	},
	"EbRQW3": {
		Name: "EbRQW3", Dataset: "eBird",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 1.0 / 3, Keyword: 1.0 / 3, Hybrid: 1.0 / 3}}},
		RangeSide: 0.06, RangeJitter: 0.8, KwMin: 1, KwMax: 2,
	},
	"EbRQW4": {
		Name: "EbRQW4", Dataset: "eBird",
		Phases:    []Phase{{Until: 1, Mix: Mix{Keyword: 1}}},
		RangeSide: 0.06, KwMin: 1, KwMax: 1,
	},
	"EbRQW5": {
		Name: "EbRQW5", Dataset: "eBird",
		Phases:    []Phase{{Until: 1, Mix: Mix{Hybrid: 1}}},
		RangeSide: 0.06, RangeJitter: 0.8, KwMin: 1, KwMax: 2,
	},
	"EbRQW6": {
		Name: "EbRQW6", Dataset: "eBird",
		Phases: []Phase{
			{Until: 0.5, Mix: Mix{Spatial: 0.9, Hybrid: 0.1}},
			{Until: 1.0, Mix: Mix{Keyword: 0.6, Hybrid: 0.4}},
		},
		RangeSide: 0.06, RangeJitter: 0.8, KwMin: 1, KwMax: 2,
	},

	// CiQW1: 100K single-keyword queries on CheckIn (Fig. 12).
	"CiQW1": {
		Name: "CiQW1", Dataset: "CheckIn",
		Phases:    []Phase{{Until: 1, Mix: Mix{Keyword: 1}}},
		RangeSide: 0.03, KwMin: 1, KwMax: 1,
	},
	// CiQW2-3: the remaining CheckIn mixes.
	"CiQW2": {
		Name: "CiQW2", Dataset: "CheckIn",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 1.0 / 3, Keyword: 1.0 / 3, Hybrid: 1.0 / 3}}},
		RangeSide: 0.03, RangeJitter: 0.4, KwMin: 1, KwMax: 2,
	},
	"CiQW3": {
		Name: "CiQW3", Dataset: "CheckIn",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 0.5, Hybrid: 0.5}}},
		RangeSide: 0.03, RangeJitter: 0.4, KwMin: 1, KwMax: 2,
	},
}

// ByName returns the named preset spec. Unknown names panic: workload names
// are experiment identifiers, not user input.
func ByName(name string) Spec {
	s, ok := presets[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown workload %q", name))
	}
	return s
}

// Names returns every preset workload name, sorted.
func Names() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
