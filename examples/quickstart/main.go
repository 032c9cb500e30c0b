// Quickstart: feed a spatio-textual stream into LATEST, ask estimation
// queries, and let the module learn from the executed queries' true
// selectivity. Run with:
//
//	go run ./examples/quickstart
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

// params sizes the demo; fastParams shrinks it for the smoke test.
type params struct {
	window      time.Duration
	warmObjects int
	queries     int
	feedPerQ    int
	pretrain    int
	report      int
}

func defaultParams() params {
	return params{
		window:      5 * time.Minute,
		warmObjects: 150_000,
		queries:     400,
		feedPerQ:    50,
		pretrain:    300, // short demo; production uses thousands
		report:      100,
	}
}

func fastParams() params {
	return params{
		window:      10 * time.Second,
		warmObjects: 5_000,
		queries:     60,
		feedPerQ:    10,
		pretrain:    30,
		report:      20,
	}
}

func main() {
	if err := run(os.Stdout, defaultParams()); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, p params) error {
	// A LATEST system over a city-scale bounding box (Los Angeles county,
	// roughly), keeping the last window of stream data.
	world := latest.Rect{MinX: -118.7, MinY: 33.7, MaxX: -117.6, MaxY: 34.4}
	sys, err := latest.New(world, p.window,
		latest.WithPretrainQueries(p.pretrain),
		latest.WithSeed(42),
	)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(42))
	now := int64(0)
	topics := []string{"traffic", "concert", "food", "fire", "news"}

	feed := func(n int) {
		batch := make([]latest.Object, n)
		for i := range batch {
			now += 2 // one object every 2 virtual ms
			batch[i] = latest.Object{
				ID:        uint64(now),
				Loc:       latest.Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height()),
				Keywords:  []string{topics[rng.Intn(len(topics))]},
				Timestamp: now,
			}
		}
		sys.FeedBatch(batch)
	}

	// Warm up: one full window of data before the first query (Figure 2's
	// warm-up phase).
	fmt.Fprintf(out, "warming up with %.0fs of stream data...\n", p.window.Seconds())
	feed(p.warmObjects)
	fmt.Fprintf(out, "window holds %d objects\n\n", sys.WindowSize())

	// Drive queries. Estimate is the query optimizer's cheap call; Execute
	// answers exactly and feeds the truth back to the switching model.
	downtown := latest.CenteredRect(latest.Pt(-118.24, 34.05), 0.1, 0.1)
	for i := 0; i < p.queries; i++ {
		feed(p.feedPerQ)
		var q latest.Query
		switch i % 3 {
		case 0:
			q = latest.SpatialQuery(downtown, now)
		case 1:
			q = latest.KeywordQuery([]string{"traffic"}, now)
		default:
			q = latest.HybridQuery(downtown, []string{"fire", "news"}, now)
		}
		est, actual := sys.EstimateAndExecute(&q)
		if i%p.report == 0 {
			fmt.Fprintf(out, "q%-4d %-8s estimate=%-8.0f actual=%-7d active=%s phase=%s\n",
				i, q.Type(), est, actual, sys.ActiveEstimator(), sys.Phase())
		}
	}

	stats := sys.Stats()
	fmt.Fprintf(out, "\nafter %d queries: active=%s, %d switches, %d training records, monitored accuracy %.2f\n",
		p.queries, stats.Active, stats.Switches, stats.TrainingRecords, stats.AccuracyAvg)
	return nil
}
