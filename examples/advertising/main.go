// Targeted advertising: the paper's second motivating application (§I) —
// gauge the popularity of product-related keywords per metro area in real
// time to place advertisements effectively. The ad platform cares about
// *throughput*: thousands of candidate (area, keyword) placements are
// scored per second, so this example configures α=0.8, telling LATEST to
// weigh estimator latency heavily (§VI-C's tuning knob).
//
// Run with:
//
//	go run ./examples/advertising
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/spatiotext/latest"
)

var world = latest.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50} // CONUS

type metro struct {
	name string
	loc  latest.Point
}

var metros = []metro{
	{"NYC", latest.Pt(-74.0, 40.7)},
	{"LA", latest.Pt(-118.2, 34.1)},
	{"Chicago", latest.Pt(-87.6, 41.9)},
	{"Houston", latest.Pt(-95.4, 29.8)},
	{"Miami", latest.Pt(-80.2, 25.8)},
	{"Seattle", latest.Pt(-122.3, 47.6)},
}

var products = []string{"sneakers", "coffee", "phone", "pizza", "festival", "suv"}

// params sizes the demo; fastParams shrinks it for the smoke test.
type params struct {
	window       time.Duration
	warmObjects  int
	pretrainCfg  int
	pretrainLoop int
	feedPerQ     int
}

func defaultParams() params {
	return params{
		window:       10 * time.Minute,
		warmObjects:  600_000,
		pretrainCfg:  400,
		pretrainLoop: 400,
		feedPerQ:     100,
	}
}

func fastParams() params {
	return params{
		window:       15 * time.Second,
		warmObjects:  15_000,
		pretrainCfg:  40,
		pretrainLoop: 40,
		feedPerQ:     20,
	}
}

func main() {
	if err := run(os.Stdout, defaultParams()); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, p params) error {
	sys, err := latest.New(world, p.window,
		latest.WithAlpha(0.8), // throughput-first: latency dominates switching
		latest.WithPretrainQueries(p.pretrainCfg),
		latest.WithSeed(11),
	)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	id := uint64(0)
	feed := func(n int) {
		batch := make([]latest.Object, n)
		for i := range batch {
			now += 1
			id++
			m := metros[rng.Intn(len(metros))]
			// Each metro skews toward two product topics.
			kw := products[(int(id)+rng.Intn(2))%len(products)]
			batch[i] = latest.Object{
				ID:        id,
				Loc:       world.Clamp(latest.Pt(m.loc.X+rng.NormFloat64()*0.6, m.loc.Y+rng.NormFloat64()*0.5)),
				Keywords:  []string{kw, "shopping"},
				Timestamp: now,
			}
		}
		sys.FeedBatch(batch)
	}

	fmt.Fprintf(out, "warming up with %.0fs of purchase-intent chatter...\n", p.window.Seconds())
	feed(p.warmObjects)

	// Pre-train with the kind of hybrid queries the ad scorer issues.
	for i := 0; i < p.pretrainLoop; i++ {
		feed(p.feedPerQ)
		m := metros[rng.Intn(len(metros))]
		q := latest.HybridQuery(latest.CenteredRect(m.loc, 3, 2.4), []string{products[rng.Intn(len(products))]}, now)
		sys.EstimateAndExecute(&q)
	}
	fmt.Fprintf(out, "pre-training done; active estimator: %s (α=0.8 favors fast structures)\n\n", sys.ActiveEstimator())

	// Score every (metro, product) placement using cheap estimates; verify
	// a sample against exact counts to keep the model learning.
	type placement struct {
		metro, product string
		score          float64
	}
	var board []placement
	start := time.Now()
	scored := 0
	for _, m := range metros {
		area := latest.CenteredRect(m.loc, 3, 2.4)
		for _, prod := range products {
			feed(p.feedPerQ / 2)
			q := latest.HybridQuery(area, []string{prod}, now)
			// Estimate scores the placement; Execute closes the feedback
			// loop with the true count from the window store (in a real ad
			// platform the executed campaign query plays this role).
			est, _ := sys.EstimateAndExecute(&q)
			scored++
			board = append(board, placement{m.name, prod, est})
		}
	}
	elapsed := time.Since(start)

	sort.Slice(board, func(i, j int) bool { return board[i].score > board[j].score })
	fmt.Fprintln(out, "top ad placements by estimated keyword volume (last window):")
	for i, pl := range board[:8] {
		fmt.Fprintf(out, "  %d. %-8s × %-9s ≈ %6.0f mentions\n", i+1, pl.metro, pl.product, pl.score)
	}
	fmt.Fprintf(out, "\nscored %d placements in %s (%.0f estimates/sec) using %s\n",
		scored, elapsed.Round(time.Millisecond),
		float64(scored)/elapsed.Seconds(), sys.ActiveEstimator())
	return nil
}
