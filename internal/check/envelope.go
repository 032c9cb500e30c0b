package check

import (
	"fmt"
	"math"
	"time"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// envelope.go bounds each estimator's statistical error on a fixed
// deterministic workload. The envelopes are deliberately loose — they are
// not benchmarks but tripwires: a regression that makes an estimator
// drastically wrong (unit mix-up, broken expiry, inverted predicate) blows
// through them, while ordinary estimation noise does not. Hard invariants
// (finite, non-negative estimates) are checked on every single query.

// Envelope is one estimator's documented error budget on the envelope
// workload.
type Envelope struct {
	// MinMeanAccuracy lower-bounds the mean paper-accuracy
	// (1 − relative error, clamped to [0,1]) over the scored queries.
	MinMeanAccuracy float64
	// MaxMeanQError upper-bounds the mean symmetric multiplicative error.
	MaxMeanQError float64
}

// DefaultEnvelopes is the documented budget per built-in estimator on
// DefaultEnvelopeConfig. Values were measured on seeds 1/7/42 and widened
// by roughly a third; the calibration table lives in envelope_test.go.
func DefaultEnvelopes() map[string]Envelope {
	return map[string]Envelope{
		estimator.NameH4096: {MinMeanAccuracy: 0.35, MaxMeanQError: 14.0},
		estimator.NameRSL:   {MinMeanAccuracy: 0.90, MaxMeanQError: 1.5},
		estimator.NameRSH:   {MinMeanAccuracy: 0.90, MaxMeanQError: 1.5},
		estimator.NameAASP:  {MinMeanAccuracy: 0.28, MaxMeanQError: 5.0},
		estimator.NameFFN:   {MinMeanAccuracy: 0.08, MaxMeanQError: 15.0},
		estimator.NameSPN:   {MinMeanAccuracy: 0.26, MaxMeanQError: 9.0},
	}
}

// EnvelopeConfig parameterizes the envelope run.
type EnvelopeConfig struct {
	Dataset         string
	Workload        string
	Seed            int64
	Queries         int
	ObjectsPerQuery int
	Window          time.Duration
	Rate            float64
	// Warmup is how many leading queries feed the estimator ground truth
	// without being scored, so workload-driven estimators (FFN) get the
	// training phase the engine would give them.
	Warmup int
}

// DefaultEnvelopeConfig is the short-mode shape.
func DefaultEnvelopeConfig() EnvelopeConfig {
	return EnvelopeConfig{
		Dataset:         "Twitter",
		Workload:        "TwQW3",
		Seed:            1,
		Queries:         500,
		ObjectsPerQuery: 8,
		Window:          10 * time.Second,
		Rate:            0.5,
		Warmup:          150,
	}
}

// EnvelopeResult is one estimator's measured error against its budget.
type EnvelopeResult struct {
	Name         string
	Scored       int
	MeanAccuracy float64
	MeanQError   float64
	Violations   []string
}

// Ok reports whether the estimator stayed inside its envelope and broke no
// hard invariant.
func (r *EnvelopeResult) Ok() bool { return len(r.Violations) == 0 }

// Summary renders a one-line verdict.
func (r *EnvelopeResult) Summary() string {
	return fmt.Sprintf("envelope %-5s: meanAcc=%.3f meanQErr=%.2f over %d queries — %d violations",
		r.Name, r.MeanAccuracy, r.MeanQError, r.Scored, len(r.Violations))
}

// RunEnvelopes drives every estimator in envs standalone — outside any
// engine, so the raw summary is measured rather than the switching module —
// through one deterministic workload, scoring each query against the
// brute-force oracle.
func RunEnvelopes(cfg EnvelopeConfig, envs map[string]Envelope) ([]EnvelopeResult, error) {
	if cfg.Queries <= cfg.Warmup {
		return nil, fmt.Errorf("check: Queries (%d) must exceed Warmup (%d)", cfg.Queries, cfg.Warmup)
	}
	names := make([]string, 0, len(envs))
	for _, n := range estimator.DefaultRegistry().Names() {
		if _, ok := envs[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) != len(envs) {
		return nil, fmt.Errorf("check: envelope map names unregistered estimators (have %v)", names)
	}

	results := make([]EnvelopeResult, 0, len(names))
	for _, name := range names {
		res, err := runEnvelope(cfg, name, envs[name])
		if err != nil {
			return nil, err
		}
		results = append(results, *res)
	}
	return results, nil
}

func runEnvelope(cfg EnvelopeConfig, name string, env Envelope) (*EnvelopeResult, error) {
	gen := datagen.ByName(cfg.Dataset, cfg.Seed, cfg.Rate)
	queries := workload.NewGenerator(workload.ByName(cfg.Workload), gen, cfg.Queries)
	span := cfg.Window.Milliseconds()
	oracle := NewOracle(span)
	est, err := buildStandalone(name, estimator.Params{
		World: gen.World(),
		Span:  span,
		Seed:  cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// A model fitted from the window (estimator.Fitter) is fitted from
	// this one when due, as an engine fits it from its own.
	w := stream.NewWindow(gen.World(), span, 1024)
	res := &EnvelopeResult{Name: name}
	var accSum, qerrSum float64
	for qi := 0; qi < cfg.Queries; qi++ {
		for j := 0; j < cfg.ObjectsPerQuery; j++ {
			o := gen.Next()
			est.Insert(&o)
			oracle.Insert(&o)
			w.Insert(o)
		}
		q := queries.Next(gen.Now())
		if f, ok := est.(estimator.Fitter); ok && f.FitDue() {
			estimator.Fill(est, w)
		}
		got := est.Estimate(&q)
		actual := oracle.Count(&q)
		est.Observe(&q, float64(actual))

		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("q%d: %s returned %v for %v (estimates must be finite and non-negative)", qi, name, got, q))
			continue
		}
		if qi < cfg.Warmup {
			continue
		}
		res.Scored++
		accSum += metrics.Accuracy(got, float64(actual))
		qerrSum += metrics.QError(got, float64(actual))
	}

	res.MeanAccuracy = accSum / float64(res.Scored)
	res.MeanQError = qerrSum / float64(res.Scored)
	if res.MeanAccuracy < env.MinMeanAccuracy {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s mean accuracy %.3f below envelope %.3f", name, res.MeanAccuracy, env.MinMeanAccuracy))
	}
	if res.MeanQError > env.MaxMeanQError {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s mean q-error %.2f above envelope %.2f", name, res.MeanQError, env.MaxMeanQError))
	}
	return res, nil
}
