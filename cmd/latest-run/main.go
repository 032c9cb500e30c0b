// latest-run drives a LATEST engine over a stream — synthetic or replayed
// from a JSONL file — and narrates what the adaptor does: phase
// transitions, pre-fills, switches, and a rolling accuracy/latency report;
// the closest thing to watching Figure 2 live.
//
// Usage:
//
//	latest-run -dataset Twitter -workload TwQW1 -queries 3000
//	latest-run -dataset eBird -workload EbRQW1 -alpha 1
//	latest-run -input mystream.jsonl -world "-125,24,-66,50" -workload TwQW1
//
// The JSONL format is one object per line:
// {"id":1,"lon":-118.2,"lat":34.0,"keywords":["fire"],"ts":1700000000000}
// with non-decreasing ts. Query focal points and keywords are then sampled
// from the replayed data itself.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/replay"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// replaySource adapts a replayed object stream into a workload.Source:
// reservoirs of recent locations and keywords stand in for the synthetic
// generator's hotspot model, so query traffic keeps tracking data density.
type replaySource struct {
	world geo.Rect
	rng   *rand.Rand
	locs  []geo.Point
	kws   []string
	nLoc  int
	nKw   int
}

const replayReservoir = 4096

func newReplaySource(world geo.Rect, seed int64) *replaySource {
	return &replaySource{world: world, rng: rand.New(rand.NewSource(seed + 0x52))}
}

// observe folds an arriving object into the sampling reservoirs.
func (s *replaySource) observe(o *stream.Object) {
	s.nLoc++
	if len(s.locs) < replayReservoir {
		s.locs = append(s.locs, o.Loc)
	} else if j := s.rng.Intn(s.nLoc); j < replayReservoir {
		s.locs[j] = o.Loc
	}
	for _, kw := range o.Keywords {
		s.nKw++
		if len(s.kws) < replayReservoir {
			s.kws = append(s.kws, kw)
		} else if j := s.rng.Intn(s.nKw); j < replayReservoir {
			s.kws[j] = kw
		}
	}
}

func (s *replaySource) World() geo.Rect { return s.world }

func (s *replaySource) SampleQueryPoint() geo.Point {
	if len(s.locs) == 0 {
		return s.world.Center()
	}
	p := s.locs[s.rng.Intn(len(s.locs))]
	// Jitter by ~1% of the world so queries don't all snap to data points.
	return s.world.Clamp(geo.Pt(
		p.X+s.rng.NormFloat64()*s.world.Width()*0.01,
		p.Y+s.rng.NormFloat64()*s.world.Height()*0.01,
	))
}

func (s *replaySource) SampleQueryKeyword() string {
	if len(s.kws) == 0 {
		return "?"
	}
	return s.kws[s.rng.Intn(len(s.kws))]
}

func (s *replaySource) QueryRand() *rand.Rand { return s.rng }

// parseWorld parses "minx,miny,maxx,maxy".
func parseWorld(spec string) (geo.Rect, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("want minx,miny,maxx,maxy, got %q", spec)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, err
		}
		vals[i] = v
	}
	r := geo.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if !r.Valid() || r.Empty() {
		return geo.Rect{}, fmt.Errorf("invalid world %v", r)
	}
	return r, nil
}

// runOptions is the parsed flag set of one invocation.
type runOptions struct {
	dataset   string
	wlName    string
	queries   int
	pretrain  int
	windowMS  int64
	rate      float64
	alpha     float64
	tau       float64
	beta      float64
	seed      int64
	every     int
	input     string
	worldStr  string
	serveAddr string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so tests can drive both the
// synthetic and the replay path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latest-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	fs.StringVar(&o.dataset, "dataset", "Twitter", "dataset: Twitter, eBird or CheckIn")
	fs.StringVar(&o.wlName, "workload", "TwQW1", "workload preset (TwQW1..6, EbRQW1..6, CiQW1..3)")
	fs.IntVar(&o.queries, "queries", 3000, "incremental-phase query count")
	fs.IntVar(&o.pretrain, "pretrain", 600, "pre-training query count")
	fs.Int64Var(&o.windowMS, "window", 30_000, "time window T in virtual ms")
	fs.Float64Var(&o.rate, "rate", 2, "stream rate (objects per virtual ms)")
	fs.Float64Var(&o.alpha, "alpha", 0.5, "accuracy/latency weight α")
	fs.Float64Var(&o.tau, "tau", 0.75, "switch threshold τ")
	fs.Float64Var(&o.beta, "beta", 0.8, "pre-fill fraction β")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.every, "report", 200, "progress report interval (queries)")
	fs.StringVar(&o.input, "input", "", "replay a JSONL object stream instead of generating one")
	fs.StringVar(&o.worldStr, "world", "-125,24,-66,50", "world rect for -input mode: minx,miny,maxx,maxy")
	fs.StringVar(&o.serveAddr, "serve-addr", "", "replay against a running latestd at this wire address instead of an in-process engine (start latestd with a matching -window)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if o.serveAddr != "" {
		err = driveRemote(o, stdout)
	} else {
		err = drive(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "latest-run: %v\n", err)
		return 1
	}
	return 0
}

// objectSource bundles one run's object stream with its world rect and the
// workload.Source that samples query focal points from it. It abstracts
// over synthetic generation and file replay for both the in-process and
// the remote (-serve-addr) drivers.
type objectSource struct {
	next    func() (stream.Object, bool, error)
	world   geo.Rect
	src     workload.Source
	name    string
	cleanup func()
}

func openSource(o runOptions) (*objectSource, error) {
	if o.input != "" {
		world, err := parseWorld(o.worldStr)
		if err != nil {
			return nil, fmt.Errorf("-world: %w", err)
		}
		f, err := os.Open(o.input)
		if err != nil {
			return nil, err
		}
		rd := replay.NewReader(f)
		rd.SetWorld(world)
		rs := newReplaySource(world, o.seed)
		next := func() (stream.Object, bool, error) {
			obj, err := rd.Next()
			if err == io.EOF {
				return stream.Object{}, false, nil
			}
			if err != nil {
				return stream.Object{}, false, err
			}
			rs.observe(&obj)
			return obj, true, nil
		}
		return &objectSource{next: next, world: world, src: rs, name: o.input,
			cleanup: func() { f.Close() }}, nil
	}
	data := datagen.ByName(o.dataset, o.seed, o.rate)
	return &objectSource{
		next:    func() (stream.Object, bool, error) { return data.Next(), true, nil },
		world:   data.World(),
		src:     data,
		name:    o.dataset,
		cleanup: func() {},
	}, nil
}

// drive executes one narrated run, writing the report to out.
func drive(o runOptions, out io.Writer) error {
	osrc, err := openSource(o)
	if err != nil {
		return err
	}
	defer osrc.cleanup()
	nextObject, world, src := osrc.next, osrc.world, osrc.src
	spec := workload.ByName(o.wlName)
	gen := workload.NewGenerator(spec, src, o.pretrain+o.queries)

	// Scale the monitored accuracy window to 5% of the run, matching the
	// experiments harness.
	accWindow := o.queries / 20
	if accWindow < 60 {
		accWindow = 60
	}
	sys, err := latest.New(world, time.Duration(o.windowMS)*time.Millisecond,
		latest.WithAlpha(o.alpha),
		latest.WithTau(o.tau),
		latest.WithBeta(o.beta),
		latest.WithAccWindow(accWindow),
		latest.WithPretrainQueries(o.pretrain),
		latest.WithSeed(o.seed),
		latest.WithOnSwitch(func(ev latest.SwitchEvent) {
			fmt.Fprintf(out, "  >> %s\n", ev)
		}))
	if err != nil {
		return err
	}
	defer sys.Close()

	var exhausted bool
	var lastTS int64
	feed := func(n int) error {
		for i := 0; i < n && !exhausted; i++ {
			obj, ok, err := nextObject()
			if err != nil {
				return err
			}
			if !ok {
				exhausted = true
				return nil
			}
			lastTS = obj.Timestamp
			sys.Feed(obj)
		}
		return nil
	}

	fmt.Fprintf(out, "warm-up: filling one %.0fs window of %s data...\n",
		float64(o.windowMS)/1000, osrc.name)
	if o.input != "" {
		// Replayed time is whatever the file says: fill until one window
		// has elapsed.
		obj, ok, err := nextObject()
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("input is empty")
		}
		start := obj.Timestamp
		lastTS = obj.Timestamp
		sys.Feed(obj)
		for lastTS-start < o.windowMS && !exhausted {
			if err := feed(1024); err != nil {
				return err
			}
		}
	} else {
		if err := feed(int(float64(o.windowMS) * o.rate)); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "window holds %d objects; starting %s (%d pre-training + %d queries)\n",
		sys.WindowSize(), o.wlName, o.pretrain, o.queries)

	var lat metrics.LatencyTracker
	accSum, n := 0.0, 0
	lastPhase := sys.Phase()
	for gen.Remaining() > 0 && !exhausted {
		if err := feed(40); err != nil {
			return err
		}
		q := gen.Next(lastTS)
		start := time.Now()
		est := sys.Estimate(&q)
		lat.Add(time.Since(start))
		actual := sys.Execute(&q)
		accSum += metrics.Accuracy(est, float64(actual))
		n++
		if phase := sys.Phase(); phase != lastPhase {
			fmt.Fprintf(out, "  -- phase: %s -> %s (after %d queries)\n", lastPhase, phase, n)
			lastPhase = phase
		}
		if n%o.every == 0 {
			s := sys.Stats()
			fmt.Fprintf(out, "q=%-6d phase=%-11s active=%-5s prefill=%-5s acc(avg)=%.3f lat(p50)=%s tree{rec=%d nodes=%d}\n",
				n, s.Phase, s.Active, orDash(s.Prefilling), accSum/float64(n),
				lat.Percentile(0.5).Round(time.Microsecond), s.TrainingRecords, s.TreeNodes)
		}
	}

	s := sys.Stats()
	fmt.Fprintf(out, "\nfinished: %d queries, overall accuracy %.3f, mean latency %s\n",
		n, accSum/float64(n), lat.Mean().Round(time.Microsecond))
	fmt.Fprintf(out, "switches (%d):\n", s.Switches)
	for _, ev := range sys.Switches() {
		fmt.Fprintf(out, "  %s\n", ev)
	}
	if s.Switches == 0 {
		fmt.Fprintln(out, "  none — the workload never degraded the active estimator")
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// driveRemote replays the same stream-and-query loop against a running
// latestd over the wire protocol instead of an in-process module. A local
// window oracle still computes exact counts so the report carries the same
// rolling-accuracy column; for that column to be meaningful the daemon
// must have been started with the same -window span. Phase and switch
// narration is absent — the adaptor lives on the far side of the wire.
func driveRemote(o runOptions, out io.Writer) error {
	osrc, err := openSource(o)
	if err != nil {
		return err
	}
	defer osrc.cleanup()
	spec := workload.ByName(o.wlName)
	gen := workload.NewGenerator(spec, osrc.src, o.queries)
	oracle := stream.NewWindow(osrc.world, o.windowMS, 4096)

	c := client.Dial(o.serveAddr, client.Options{})
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		return fmt.Errorf("latestd at %s: %w", o.serveAddr, err)
	}

	var exhausted bool
	var lastTS int64
	batch := make([]stream.Object, 0, 256)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := c.FeedBatch(ctx, batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	feed := func(n int) error {
		for i := 0; i < n && !exhausted; i++ {
			obj, ok, err := osrc.next()
			if err != nil {
				return err
			}
			if !ok {
				exhausted = true
				break
			}
			lastTS = obj.Timestamp
			oracle.Insert(obj)
			if batch = append(batch, obj); len(batch) == cap(batch) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	}

	fmt.Fprintf(out, "replaying %s to latestd at %s (%d queries, %.0fs window)\n",
		osrc.name, o.serveAddr, o.queries, float64(o.windowMS)/1000)
	// Warm-up: one full window of data before the first query, mirroring
	// the in-process driver.
	if o.input != "" {
		obj, ok, err := osrc.next()
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("input is empty")
		}
		start := obj.Timestamp
		lastTS = obj.Timestamp
		oracle.Insert(obj)
		batch = append(batch, obj)
		for lastTS-start < o.windowMS && !exhausted {
			if err := feed(1024); err != nil {
				return err
			}
		}
	} else if err := feed(int(float64(o.windowMS) * o.rate)); err != nil {
		return err
	}

	var lat metrics.LatencyTracker
	accSum, n := 0.0, 0
	for gen.Remaining() > 0 && !exhausted {
		if err := feed(40); err != nil {
			return err
		}
		q := gen.Next(lastTS)
		start := time.Now()
		est, err := c.Estimate(ctx, q)
		if err != nil {
			if client.IsDraining(err) {
				fmt.Fprintf(out, "server draining after %d queries; stopping replay\n", n)
				break
			}
			return err
		}
		lat.Add(time.Since(start))
		actual := oracle.Answer(&q)
		accSum += metrics.Accuracy(est, float64(actual))
		n++
		if n%o.every == 0 {
			fmt.Fprintf(out, "q=%-6d acc(avg)=%.3f rtt(p50)=%s window=%d\n",
				n, accSum/float64(n), lat.Percentile(0.5).Round(time.Microsecond), oracle.Size())
		}
	}
	if n == 0 {
		return errors.New("stream exhausted before any query ran")
	}
	fmt.Fprintf(out, "\nfinished: %d remote queries, overall accuracy %.3f, mean round-trip %s\n",
		n, accSum/float64(n), lat.Mean().Round(time.Microsecond))
	return nil
}
