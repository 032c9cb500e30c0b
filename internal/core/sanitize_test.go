package core

import (
	"math"
	"slices"
	"testing"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/stream"
)

// wildEstimator is H4096 that answers a query carrying one of the
// keywords below with a value no count can be, and panics on "boom".
type wildEstimator struct{ estimator.Estimator }

var wildAnswers = map[string]float64{
	"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1), "neg": -3,
}

func (w wildEstimator) Estimate(q *stream.Query) float64 {
	for _, kw := range q.Keywords {
		if v, ok := wildAnswers[kw]; ok {
			return v
		}
	}
	if slices.Contains(q.Keywords, "boom") {
		panic("boom")
	}
	return w.Estimator.Estimate(q)
}

func wildConfig() Config {
	cfg := testConfig()
	cfg.PretrainQueries = 20
	base := estimator.DefaultRegistry()
	cfg.Registry = estimator.NewRegistry()
	cfg.Registry.Register("WILD", func(p estimator.Params) estimator.Estimator {
		e, _ := base.Build(estimator.NameH4096, p)
		return wildEstimator{e}
	})
	cfg.Registry.Register(estimator.NameRSL, func(p estimator.Params) estimator.Estimator {
		e, _ := base.Build(estimator.NameRSL, p)
		return e
	})
	cfg.Estimators = []string{"WILD", estimator.NameRSL}
	cfg.Default = "WILD"
	return cfg
}

// TestEstimateSanitizes: an answer that is NaN, ±Inf or negative is served
// and scored as 0, and counted against the estimator that gave it, in both
// phases.
func TestEstimateSanitizes(t *testing.T) {
	d := newDriver(t, wildConfig())
	d.feed(300)
	want := uint64(0)
	for round := 0; round < 8; round++ {
		for kw := range wildAnswers {
			q := d.hybridQ()
			q.Keywords = []string{kw}
			if got := d.runQuery(q); got != 0 {
				t.Fatalf("%s answer served as %v, want 0", kw, got)
			}
			want++
		}
	}
	if d.m.Phase() != PhaseIncremental || d.m.ActiveName() != "WILD" {
		t.Fatalf("phase %v, active %s", d.m.Phase(), d.m.ActiveName())
	}
	st := d.m.Snapshot()
	if got := st.Sanitized["WILD"]; got != want {
		t.Errorf("WILD sanitized %d, want %d", got, want)
	}
	if got := st.Sanitized[estimator.NameRSL]; got != 0 {
		t.Errorf("RSL sanitized %d, want 0", got)
	}
}

// TestEstimatePanicLeavesNoPendingQuery: an estimator's panic reaches the
// caller, and the module takes the next query as if the failed one had
// never been asked.
func TestEstimatePanicLeavesNoPendingQuery(t *testing.T) {
	d := newDriver(t, wildConfig())
	d.feed(300)
	panics := 0
	for i := 0; i < 60; i++ {
		q := d.hybridQ()
		q.Keywords = []string{"boom"}
		asked := d.m.Phase() != PhaseIncremental || d.m.ActiveName() == "WILD" || d.m.PrefillingName() == "WILD"
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			d.m.Estimate(&q)
			return false
		}()
		if panicked != asked {
			t.Fatalf("query %d: panicked %v, WILD asked %v", i, panicked, asked)
		}
		if panicked {
			panics++
		} else {
			d.m.Observe(0)
		}
		d.runQuery(d.hybridQ())
	}
	if d.m.Phase() != PhaseIncremental || panics < 20 {
		t.Fatalf("phase %v after 60 queries, %d of them panicking", d.m.Phase(), panics)
	}
}
