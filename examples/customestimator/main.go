// Custom estimator: §IV notes that LATEST is orthogonal to the estimator
// set — "system administrators can select a different set of estimators
// that fit their needs". This example implements a tiny exponential-decay
// count sketch, registers it alongside two built-ins, and shows LATEST
// profiling and (when it earns it) selecting the custom structure.
//
// Run with:
//
//	go run ./examples/customestimator
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/spatiotext/latest"
)

// DecayCount estimates every query as a keyword-frequency product over an
// exponentially decayed global count — crude, tiny, and extremely fast.
// It implements latest.Estimator.
type DecayCount struct {
	window   float64 // T in ms
	total    float64 // decayed object count
	kwCounts map[string]float64
	lastTS   int64
}

// NewDecayCount builds the sketch for the given window.
func NewDecayCount(p latest.EstimatorParams) *DecayCount {
	return &DecayCount{window: float64(p.Span), kwCounts: make(map[string]float64)}
}

// Name implements latest.Estimator.
func (d *DecayCount) Name() string { return "Decay" }

// decayTo ages all counts to timestamp ts. A count decays by e⁻¹ per
// window, roughly emulating the sliding window's forgetting.
func (d *DecayCount) decayTo(ts int64) {
	if ts <= d.lastTS {
		return
	}
	f := 1.0
	for t := float64(ts-d.lastTS) / d.window; t > 0; t -= 1 {
		if t >= 1 {
			f *= 0.3678794
		} else {
			f *= 1 - 0.6321206*t
		}
	}
	d.total *= f
	for k := range d.kwCounts {
		d.kwCounts[k] *= f
		if d.kwCounts[k] < 0.5 {
			delete(d.kwCounts, k)
		}
	}
	d.lastTS = ts
}

// Insert implements latest.Estimator.
func (d *DecayCount) Insert(o *latest.Object) {
	d.decayTo(o.Timestamp)
	d.total++
	for _, kw := range o.Keywords {
		d.kwCounts[kw]++
	}
}

// Estimate implements latest.Estimator: keyword fraction times total,
// ignoring spatial predicates entirely (it keeps no spatial statistics).
func (d *DecayCount) Estimate(q *latest.Query) float64 {
	d.decayTo(q.Timestamp)
	if d.total == 0 {
		return 0
	}
	if len(q.Keywords) == 0 {
		return d.total
	}
	match := 0.0
	for _, kw := range q.Keywords {
		match += d.kwCounts[kw]
	}
	if match > d.total {
		match = d.total
	}
	return match
}

// Observe implements latest.Estimator (no feedback learning).
func (d *DecayCount) Observe(q *latest.Query, actual float64) {}

// Reset implements latest.Estimator.
func (d *DecayCount) Reset() {
	d.total = 0
	d.kwCounts = make(map[string]float64)
	d.lastTS = 0
}

// MemoryBytes implements latest.Estimator.
func (d *DecayCount) MemoryBytes() int { return 64 + 48*len(d.kwCounts) }

// params sizes the demo; fastParams shrinks it for the smoke test.
type params struct {
	window      time.Duration
	warmObjects int
	pretrain    int
	queries     int
	feedPerQ    int
	report      int
}

func defaultParams() params {
	return params{
		window:      time.Minute,
		warmObjects: 30_000,
		pretrain:    300,
		queries:     800,
		feedPerQ:    30,
		report:      200,
	}
}

func fastParams() params {
	return params{
		window:      5 * time.Second,
		warmObjects: 2_500,
		pretrain:    40,
		queries:     100,
		feedPerQ:    10,
		report:      50,
	}
}

func main() {
	if err := run(os.Stdout, defaultParams()); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, p params) error {
	// Register the custom estimator next to two built-ins and make it the
	// fleet: LATEST will profile all three and keep whichever wins.
	reg := latest.DefaultRegistry()
	reg.Register("Decay", func(ep latest.EstimatorParams) latest.Estimator {
		return NewDecayCount(ep)
	})

	world := latest.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	sys, err := latest.New(world, p.window,
		latest.WithRegistry(reg),
		latest.WithEstimators(latest.EstimatorH4096, latest.EstimatorRSH, "Decay"),
		latest.WithDefaultEstimator(latest.EstimatorRSH),
		latest.WithPretrainQueries(p.pretrain),
		latest.WithSeed(3),
	)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	feed := func(n int) {
		batch := make([]latest.Object, n)
		for i := range batch {
			now += 2
			batch[i] = latest.Object{
				ID:        uint64(now),
				Loc:       latest.Pt(rng.Float64()*10, rng.Float64()*10),
				Keywords:  []string{fmt.Sprintf("tag%d", rng.Intn(40))},
				Timestamp: now,
			}
		}
		sys.FeedBatch(batch)
	}
	fmt.Fprintln(out, "warming up...")
	feed(p.warmObjects)

	// A pure keyword workload: the custom sketch answers these well (its
	// keyword counts are exact up to decay) at near-zero latency, so LATEST
	// should discover it as a contender.
	for i := 0; i < p.queries; i++ {
		feed(p.feedPerQ)
		q := latest.KeywordQuery([]string{fmt.Sprintf("tag%d", rng.Intn(40))}, now)
		sys.EstimateAndExecute(&q)
		if i%p.report == 0 {
			fmt.Fprintf(out, "q%-4d phase=%-11s active=%s\n", i, sys.Phase(), sys.ActiveEstimator())
		}
	}

	fmt.Fprintf(out, "\nfinal active estimator: %s\n", sys.ActiveEstimator())
	for _, ev := range sys.Switches() {
		fmt.Fprintf(out, "  %v\n", ev)
	}
	q := latest.KeywordQuery([]string{"tag1"}, now)
	fmt.Fprintf(out, "model recommendation for a keyword query: %s\n", sys.RecommendFor(&q))
	return nil
}
