// Disaster response: the paper's motivating scenario (§I). First responders
// estimate how many stream objects mention "fire" inside an affected area
// to gauge how many people are seeking help — in real time, over a moving
// window, while the incident changes the workload under the system's feet.
//
// The simulation runs three acts:
//
//  1. normal times — mixed city chatter, mixed queries;
//  2. the incident — a keyword burst around the fire zone while responders
//     flood the system with keyword-heavy estimation queries;
//  3. containment — traffic normalizes.
//
// Watch LATEST switch estimators when the workload turns keyword-heavy and
// switch back afterwards. Run with:
//
//	go run ./examples/disaster
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

// Thousand Oaks, CA and surroundings (the paper cites the Erbes fire).
var (
	world    = latest.Rect{MinX: -119.4, MinY: 34.0, MaxX: -118.5, MaxY: 34.5}
	fireZone = latest.CenteredRect(latest.Pt(-118.84, 34.19), 0.12, 0.1)
)

type simulation struct {
	sys    *latest.System
	rng    *rand.Rand
	now    int64
	nextID uint64

	// incident intensity in [0,1]: fraction of objects that are fire
	// related and clustered around the zone.
	intensity float64
}

func (s *simulation) feed(n int) {
	batch := make([]latest.Object, n)
	for i := range batch {
		s.now += 2
		s.nextID++
		o := &batch[i]
		*o = latest.Object{ID: s.nextID, Timestamp: s.now}
		if s.rng.Float64() < s.intensity {
			// Fire-related chatter clustered near the zone.
			c := fireZone.Center()
			o.Loc = world.Clamp(latest.Pt(c.X+s.rng.NormFloat64()*0.05, c.Y+s.rng.NormFloat64()*0.04))
			o.Keywords = []string{"fire", []string{"evacuation", "rescue", "smoke"}[s.rng.Intn(3)]}
		} else {
			o.Loc = latest.Pt(world.MinX+s.rng.Float64()*world.Width(), world.MinY+s.rng.Float64()*world.Height())
			o.Keywords = []string{[]string{"traffic", "food", "school", "weather", "sports"}[s.rng.Intn(5)]}
		}
	}
	s.sys.FeedBatch(batch)
}

// normalQuery is everyday mixed traffic.
func (s *simulation) normalQuery() latest.Query {
	area := latest.CenteredRect(
		latest.Pt(world.MinX+s.rng.Float64()*world.Width(), world.MinY+s.rng.Float64()*world.Height()),
		0.08, 0.06)
	switch s.rng.Intn(3) {
	case 0:
		return latest.SpatialQuery(area, s.now)
	case 1:
		return latest.KeywordQuery([]string{"traffic"}, s.now)
	default:
		return latest.HybridQuery(area, []string{"food", "sports"}, s.now)
	}
}

// responderQuery is what the rescue team asks during the incident.
func (s *simulation) responderQuery() latest.Query {
	if s.rng.Intn(4) == 0 {
		return latest.KeywordQuery([]string{"fire", "evacuation"}, s.now)
	}
	return latest.HybridQuery(fireZone, []string{"fire", "rescue", "evacuation"}, s.now)
}

// params sizes the simulation; fastParams shrinks it for the smoke test.
type params struct {
	window      time.Duration
	warmObjects int
	pretrain    int
	actQueries  [3]int
	feedPerQ    int
}

func defaultParams() params {
	return params{
		window:      3 * time.Minute,
		warmObjects: 90_000,
		pretrain:    300,
		actQueries:  [3]int{500, 700, 500},
		feedPerQ:    40,
	}
}

func fastParams() params {
	return params{
		window:      8 * time.Second,
		warmObjects: 4_000,
		pretrain:    40,
		actQueries:  [3]int{60, 90, 60},
		feedPerQ:    10,
	}
}

func main() {
	if err := run(os.Stdout, defaultParams()); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, p params) error {
	sys, err := latest.New(world, p.window,
		latest.WithPretrainQueries(p.pretrain),
		latest.WithSeed(7),
		latest.WithOnSwitch(func(ev latest.SwitchEvent) {
			fmt.Fprintf(out, "  ** LATEST switched %s -> %s (prefilled=%v)\n", ev.From, ev.To, ev.Prefilled)
		}),
	)
	if err != nil {
		return err
	}
	sim := &simulation{sys: sys, rng: rand.New(rand.NewSource(7))}

	fmt.Fprintln(out, "act 0: warming up (normal city chatter)...")
	sim.feed(p.warmObjects)

	runQueries := func(n int, incident bool, label string) {
		fmt.Fprintf(out, "\n%s (active estimator: %s)\n", label, sys.ActiveEstimator())
		accSum, cnt := 0.0, 0
		for i := 0; i < n; i++ {
			sim.feed(p.feedPerQ)
			var q latest.Query
			if incident {
				q = sim.responderQuery()
			} else {
				q = sim.normalQuery()
			}
			est, actual := sys.EstimateAndExecute(&q)
			if actual > 0 {
				a := 1 - abs(est-float64(actual))/float64(actual)
				if a > 0 {
					accSum += a
				}
				cnt++
			}
		}
		if cnt > 0 {
			fmt.Fprintf(out, "  %d queries, mean accuracy %.2f, active now: %s\n", n, accSum/float64(cnt), sys.ActiveEstimator())
		}
	}

	runQueries(p.actQueries[0], false, "act 1: normal operations — mixed workload")

	fmt.Fprintln(out, "\n!! fire breaks out: chatter spikes, responders issue keyword-heavy estimation queries")
	sim.intensity = 0.5
	runQueries(p.actQueries[1], true, "act 2: incident response — keyword-dominated workload")

	// A concrete responder question, answered both ways.
	q := latest.HybridQuery(fireZone, []string{"fire"}, sim.now)
	est, actual := sys.EstimateAndExecute(&q)
	fmt.Fprintf(out, "  'how many posts mention fire inside the zone?': estimate %.0f, actual %d\n", est, actual)

	fmt.Fprintln(out, "\n-- containment: traffic normalizes")
	sim.intensity = 0.02
	runQueries(p.actQueries[2], false, "act 3: back to normal")

	st := sys.Stats()
	fmt.Fprintf(out, "\nsummary: %d switches over the incident lifecycle, %d model records, final active %s\n",
		st.Switches, st.TrainingRecords, st.Active)
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
