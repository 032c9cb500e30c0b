// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI). Each experiment id (fig3, table1, …) maps to a
// runner that replays (dataset, workload, parameters) through LATEST and a
// shadow fleet of estimators and emits the same rows/series the paper
// reports. DESIGN.md §2 is the index; EXPERIMENTS.md records paper-vs-
// measured for every artifact.
//
// The figures plot latency and accuracy for *every* estimator over the
// stream lifetime, not only the active one ("the values of accuracy and
// latency … are provided by the estimator based only on the incoming data
// and queries, regardless of whether a certain estimator is selected",
// §VI-C). The harness therefore maintains a shadow fleet — all six
// estimators fed with the full stream and measured on every query —
// alongside the LATEST module that makes the actual switching decisions.
package experiments

import (
	"time"

	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/hoeffding"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// RunConfig scales an experiment run. Zero values take defaults sized so
// the full suite completes in minutes on a laptop while preserving the
// paper's sampling ratios (reservoirs hold ~25% of the window, as 1M
// samples did against the paper's windows).
type RunConfig struct {
	// Dataset is "Twitter", "eBird" or "CheckIn".
	Dataset string
	// Workload is a preset name (TwQW1, EbRQW1, …).
	Workload string
	// Queries is the incremental-phase query count — the t0..t100 span.
	// Default 3000.
	Queries int
	// PretrainQueries is the pre-training phase length. Default 600.
	PretrainQueries int
	// WindowMS is the time window T. Default 30000.
	WindowMS int64
	// Rate is stream objects per virtual ms. Default 2.
	Rate float64
	// ObjectsPerQuery interleaves this many arrivals before each query.
	// Default 40.
	ObjectsPerQuery int
	// Alpha (with AlphaSet) is the accuracy/latency weight. Default 0.5.
	Alpha    float64
	AlphaSet bool
	// Tau and Beta are the switching thresholds. Defaults 0.75 / 0.8.
	Tau, Beta float64
	// Grace overrides the EFDT tree's grace period (0 = WEKA default).
	Grace int
	// Scale is the estimator memory multiplier. Default 1.
	Scale float64
	// Seed drives all randomness. Default 1.
	Seed int64
	// LatencyOf, when non-nil, is the latency the module's switch trains on
	// in place of the wall-clock time of each estimate (core.Config's
	// LatencyOf). The figures report the shadow fleet's measured latency
	// either way; tests set it so that switching decisions do not depend
	// on how busy the host is.
	LatencyOf func(name string, q *stream.Query, measured time.Duration) time.Duration
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Queries == 0 {
		c.Queries = 3000
	}
	if c.PretrainQueries == 0 {
		c.PretrainQueries = 600
	}
	if c.WindowMS == 0 {
		c.WindowMS = 30_000
	}
	if c.Rate == 0 {
		c.Rate = 2
	}
	if c.ObjectsPerQuery == 0 {
		c.ObjectsPerQuery = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// env is one wired-up experiment environment.
type env struct {
	cfg    RunConfig
	data   *datagen.Generator
	pre    *workload.Generator
	wl     *workload.Generator
	oracle *stream.Window
	module *core.Module
	shadow []estimator.Estimator
	names  []string
}

// newEnv wires dataset, workload, oracle, module and shadow fleet.
func newEnv(cfg RunConfig) *env {
	return newEnvSpec(cfg, workload.ByName(cfg.withDefaults().Workload))
}

// newEnvSpec is newEnv with an explicit (possibly modified) workload spec,
// which the parameter sweeps use.
func newEnvSpec(cfg RunConfig, spec workload.Spec) *env {
	cfg = cfg.withDefaults()
	data := datagen.ByName(cfg.Dataset, cfg.Seed, cfg.Rate)
	// The phase schedule spans the *incremental* timeline (that is what the
	// figures plot as t0..t100). Pre-training draws from a flattened
	// single-phase copy carrying the workload's overall mix, so the model
	// sees every regime before the timeline starts.
	pre := workload.NewGenerator(flatten(spec), data, cfg.PretrainQueries)
	wl := workload.NewGenerator(spec, data, cfg.Queries)
	oracle := stream.NewWindow(data.World(), cfg.WindowMS, 4096)
	reg := estimator.DefaultRegistry()
	params := estimator.Params{World: data.World(), Span: cfg.WindowMS, Scale: cfg.Scale, Seed: cfg.Seed}
	// Adaptation reaction time scales with the run length so figure
	// positions are comparable across scales: the monitored window is 5%
	// of the timeline.
	accWindow := cfg.Queries / 20
	if accWindow < 60 {
		accWindow = 60
	}
	module, err := core.New(core.Config{
		World:           data.World(),
		Span:            cfg.WindowMS,
		Registry:        reg,
		Alpha:           cfg.Alpha,
		AlphaSet:        cfg.AlphaSet,
		Tau:             cfg.Tau,
		Beta:            cfg.Beta,
		AccWindow:       accWindow,
		PretrainQueries: cfg.PretrainQueries,
		Hoeffding:       hoeffding.Config{GracePeriod: cfg.Grace},
		Scale:           cfg.Scale,
		Seed:            cfg.Seed,
		LatencyOf:       cfg.LatencyOf,
		Refill:          func(e estimator.Estimator) { estimator.Fill(e, oracle) },
	})
	if err != nil {
		panic(err) // RunConfig is code-authored; this is a harness bug
	}
	return &env{
		cfg:    cfg,
		data:   data,
		pre:    pre,
		wl:     wl,
		oracle: oracle,
		module: module,
		shadow: reg.BuildAll(params),
		names:  reg.Names(),
	}
}

// feed streams n objects into the oracle, the module and the shadow fleet.
func (e *env) feed(n int) {
	for i := 0; i < n; i++ {
		o := e.data.Next()
		e.oracle.Insert(o)
		e.module.Insert(&o)
		for _, s := range e.shadow {
			s.Insert(&o)
		}
	}
}

// measurement is one query's outcome across the shadow fleet.
type measurement struct {
	q        stream.Query
	actual   float64
	accuracy []float64       // per shadow estimator
	latency  []time.Duration // per shadow estimator
	active   string          // module's active estimator at query time
	modEst   float64         // module's answer
}

// step interleaves arrivals, issues the next query from gen, measures the
// shadow fleet, runs the module's Estimate/Observe cycle, and returns the
// measurement.
func (e *env) step(gen *workload.Generator) measurement {
	e.feed(e.cfg.ObjectsPerQuery)
	q := gen.Next(e.data.Now())
	m := measurement{
		q:        q,
		accuracy: make([]float64, len(e.shadow)),
		latency:  make([]time.Duration, len(e.shadow)),
		active:   e.module.ActiveName(),
	}
	m.modEst = e.module.Estimate(&q)
	actual := float64(e.oracle.Answer(&q))
	m.actual = actual
	for i, s := range e.shadow {
		if f, ok := s.(estimator.Fitter); ok && f.FitDue() {
			estimator.Fill(s, e.oracle) // a due fit, outside the estimate's latency
		}
		start := time.Now()
		est := s.Estimate(&q)
		m.latency[i] = time.Since(start)
		m.accuracy[i] = metrics.Accuracy(est, actual)
		s.Observe(&q, actual)
	}
	e.module.Observe(actual)
	return m
}

// run is every experiment's query loop: it fills one full window of data,
// drives the module through its pre-training phase, then hands each
// incremental query's index (from 0) and measurement to fn.
func (e *env) run(fn func(i int, m measurement)) {
	e.feed(int(float64(e.cfg.WindowMS) * e.cfg.Rate))
	for e.pre.Remaining() > 0 {
		e.step(e.pre)
	}
	if e.module.Phase() != core.PhaseIncremental {
		panic("experiments: module did not reach incremental phase")
	}
	for i := 0; e.wl.Remaining() > 0; i++ {
		fn(i, e.step(e.wl))
	}
}

// flatten collapses a phase schedule into one phase carrying the
// duration-weighted overall mix.
func flatten(s workload.Spec) workload.Spec {
	var mix workload.Mix
	prev := 0.0
	for _, p := range s.Phases {
		w := p.Until - prev
		mix.Spatial += w * p.Mix.Spatial
		mix.Keyword += w * p.Mix.Keyword
		mix.Hybrid += w * p.Mix.Hybrid
		prev = p.Until
	}
	// Renormalize away float drift so spec validation's sum check passes.
	total := mix.Spatial + mix.Keyword + mix.Hybrid
	mix.Spatial /= total
	mix.Keyword /= total
	mix.Hybrid /= total
	s.Phases = []workload.Phase{{Until: 1, Mix: mix}}
	return s
}
