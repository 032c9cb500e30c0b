package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
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

// runCmd drives an engine over a stream, synthetic or replayed from JSONL,
// and narrates what the adaptor does: phase transitions, switches and a
// rolling accuracy/latency report, the closest thing to watching Figure 2
// live. With -addr the engine is a running latestd and a local window
// oracle supplies the exact counts.
//
// The JSONL format is one object per line:
// {"id":1,"lon":-118.2,"lat":34.0,"keywords":["fire"],"ts":1700000000000}
// with non-decreasing ts. Query focal points and keywords are then sampled
// from the replayed data itself.
func runCmd(args []string, stdout, stderr io.Writer) int {
	o := defaults()
	o.tau, o.beta, o.report = 0.75, 0.8, 200
	o.world = geo.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
	fs := newFlagSet("run", &o, stderr, "dataset", "workload", "seed", "rate", "queries", "pretrain", "alpha", "window")
	fs.Var(checked[float64]{&o.tau, within(0, 1, false)}, "tau", "switch threshold τ")
	fs.Var(checked[float64]{&o.beta, within(0, 1, false)}, "beta", "pre-fill fraction β")
	fs.Var(checked[int]{&o.report, atLeast(1)}, "report", "progress report interval (queries)")
	fs.StringVar(&o.input, "input", "", "replay a JSONL object stream instead of generating one")
	fs.Func("world", "world rect for -input: minx,miny,maxx,maxy (default -125,24,-66,50)", func(s string) (err error) {
		o.world, err = geo.ParseRect(s)
		return err
	})
	fs.StringVar(&o.addr, "addr", "", "drive a running latestd at this wire address instead of an in-process engine (start it with a matching -window)")
	if !parse(fs, args) ||
		o.addr != "" && refuse(fs, "with -addr", "pretrain", "alpha", "tau", "beta") ||
		o.input != "" && refuse(fs, "with -input", "dataset", "rate") ||
		o.input == "" && refuse(fs, "without -input", "world") {
		return 2
	}
	if err := drive(o, stdout); err != nil {
		fmt.Fprintf(stderr, "latest-lab run: %v\n", err)
		return 1
	}
	return 0
}

// source is one run's object stream and the workload.Source that samples
// query focal points from it. next returns io.EOF at the end of a replay.
type source struct {
	workload.Source
	next  func() (stream.Object, error)
	name  string
	close func() error
}

// openSource opens -input when it is set, and the -dataset generator
// otherwise.
func openSource(o options) (*source, error) {
	if o.input == "" {
		data := datagen.ByName(o.dataset, o.seed, o.rate)
		next := func() (stream.Object, error) { return data.Next(), nil }
		return &source{
			Source: data,
			next:   next,
			name:   o.dataset,
			close:  func() error { return nil },
		}, nil
	}
	f, err := os.Open(o.input)
	if err != nil {
		return nil, err
	}
	rd := replay.NewReader(f)
	rd.SetWorld(o.world)
	rs := &replaySource{world: o.world, rng: rand.New(rand.NewSource(o.seed + 0x52))}
	next := func() (stream.Object, error) {
		obj, err := rd.Next()
		if err == nil {
			rs.locs.add(rs.rng, obj.Loc)
			for _, kw := range obj.Keywords {
				rs.kws.add(rs.rng, kw)
			}
		}
		return obj, err
	}
	return &source{
		Source: rs,
		next:   next,
		name:   o.input,
		close:  f.Close,
	}, nil
}

// target is what a run drives: the in-process engine, or a latestd at -addr
// beside a local window oracle that supplies the exact counts. sys is nil
// for a latestd: its adaptor lives on the far side of the wire, so there
// is nothing to narrate.
type target struct {
	sys      *latest.System
	feed     func(batch []stream.Object) error
	estimate func(q *stream.Query) (float64, error)
	actual   func(q *stream.Query) float64
	size     func() int
	close    func() error
}

func newTarget(o options, world geo.Rect, out io.Writer) (*target, error) {
	if o.addr != "" {
		ctx, c := context.Background(), client.Dial(o.addr, client.Options{})
		if err := c.Ping(ctx); err != nil {
			c.Close()
			return nil, fmt.Errorf("latestd at %s: %w", o.addr, err)
		}
		oracle := stream.NewWindow(world, int64(o.windowMS), 4096)
		return &target{
			feed: func(batch []stream.Object) error {
				for _, obj := range batch {
					oracle.Insert(obj)
				}
				_, err := c.FeedBatch(ctx, batch)
				return err
			},
			estimate: func(q *stream.Query) (float64, error) { return c.Estimate(ctx, *q) },
			actual:   func(q *stream.Query) float64 { return float64(oracle.Answer(q)) },
			size:     oracle.Size,
			close:    c.Close,
		}, nil
	}
	opts := []latest.Option{latest.WithAlpha(o.alpha), latest.WithTau(o.tau), latest.WithBeta(o.beta),
		latest.WithPretrainQueries(o.pretrain), latest.WithSeed(o.seed),
		// The monitored accuracy window is 5% of the run, as in the
		// experiments harness.
		latest.WithAccWindow(max(o.queries/20, 60)),
		latest.WithOnSwitch(func(ev latest.SwitchEvent) { fmt.Fprintf(out, "  >> %s\n", ev) })}
	if latencyOf != nil {
		opts = append(opts, latest.WithLatencyModel(latencyOf))
	}
	sys, err := latest.New(world, time.Duration(o.windowMS)*time.Millisecond, opts...)
	if err != nil {
		return nil, err
	}
	return &target{
		sys:      sys,
		feed:     func(batch []stream.Object) error { sys.FeedBatch(batch); return nil },
		estimate: func(q *stream.Query) (float64, error) { return sys.Estimate(q), nil },
		actual:   func(q *stream.Query) float64 { return float64(sys.Execute(q)) },
		size:     sys.WindowSize,
		close:    func() error { return sys.Shutdown(context.Background()) },
	}, nil
}

// drive executes one narrated run, writing the report to out: one window
// of warm-up, then the workload's queries, each after 40 arrivals.
func drive(o options, out io.Writer) error {
	src, err := openSource(o)
	if err != nil {
		return err
	}
	defer src.close()
	if o.addr != "" {
		o.pretrain = 0 // latestd pre-trains on the first queries it serves
	}
	t, err := newTarget(o, src.World(), out)
	if err != nil {
		return err
	}
	defer t.close()
	gen := workload.NewGenerator(workload.ByName(o.workload), src, o.pretrain+o.queries)

	var exhausted, started bool
	var firstTS, lastTS int64
	batch := make([]stream.Object, 0, 256)
	feed := func(n int) error {
		for n > 0 && !exhausted {
			batch = batch[:0]
			for len(batch) < min(n, cap(batch)) {
				obj, err := src.next()
				if exhausted = err == io.EOF; exhausted {
					break
				}
				if err != nil {
					return err
				}
				if !started {
					firstTS, started = obj.Timestamp, true
				}
				lastTS = obj.Timestamp
				batch = append(batch, obj)
			}
			n -= len(batch)
			if err := t.feed(batch); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Fprintf(out, "warm-up: filling one %.0fs window of %s data...\n", float64(o.windowMS)/1000, src.name)
	if o.input == "" {
		err = feed(int(float64(o.windowMS) * o.rate))
	} else {
		// Replayed time is whatever the file says: fill until one window
		// has elapsed.
		for err == nil && !exhausted && (!started || lastTS-firstTS < int64(o.windowMS)) {
			err = feed(1024)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "window holds %d objects; starting %s (%d pre-training + %d queries)\n",
		t.size(), o.workload, o.pretrain, o.queries)

	var lat metrics.LatencyTracker
	accSum, n := 0.0, 0
	lastPhase := latest.PhaseWarmup // where a new engine starts
	for gen.Remaining() > 0 && !exhausted {
		if err := feed(40); err != nil {
			return err
		}
		q := gen.Next(lastTS)
		start := time.Now()
		est, err := t.estimate(&q)
		if client.IsDraining(err) {
			fmt.Fprintf(out, "server draining after %d queries; stopping\n", n)
			break
		}
		if err != nil {
			return err
		}
		lat.Add(time.Since(start))
		accSum += metrics.Accuracy(est, t.actual(&q))
		n++
		if t.sys != nil && t.sys.Phase() != lastPhase {
			fmt.Fprintf(out, "  -- phase: %s -> %s (after %d queries)\n", lastPhase, t.sys.Phase(), n)
			lastPhase = t.sys.Phase()
		}
		if n%o.report != 0 {
			continue
		}
		fmt.Fprintf(out, "q=%-6d acc(avg)=%.3f lat(p50)=%s ", n, accSum/float64(n), lat.Percentile(0.5).Round(time.Microsecond))
		if t.sys == nil {
			fmt.Fprintf(out, "window=%d\n", t.size())
			continue
		}
		s := t.sys.Stats()
		fmt.Fprintf(out, "phase=%-11s active=%-5s prefill=%-5s tree{rec=%d nodes=%d}\n",
			s.Phase, s.Active, cmp.Or(s.Prefilling, "-"), s.TrainingRecords, s.TreeNodes)
	}
	if n == 0 {
		return errors.New("stream exhausted before any query ran")
	}
	fmt.Fprintf(out, "\nfinished: %d queries, overall accuracy %.3f, mean latency %s\n",
		n, accSum/float64(n), lat.Mean().Round(time.Microsecond))
	if t.sys == nil {
		return nil
	}
	switches := t.sys.Switches()
	fmt.Fprintf(out, "switches (%d):\n", len(switches))
	for _, ev := range switches {
		fmt.Fprintf(out, "  %s\n", ev)
	}
	if len(switches) == 0 {
		fmt.Fprintln(out, "  none — the workload never degraded the active estimator")
	}
	return nil
}

// replaySource adapts a replayed object stream into a workload.Source:
// reservoirs of recent locations and keywords stand in for the synthetic
// generator's hotspot model, so query traffic keeps tracking data density.
type replaySource struct {
	world geo.Rect
	rng   *rand.Rand
	locs  reservoir[geo.Point]
	kws   reservoir[string]
}

// reservoir is a uniform sample of at most 4096 of the values added.
type reservoir[T any] struct {
	vals []T
	seen int
}

func (r *reservoir[T]) add(rng *rand.Rand, v T) {
	r.seen++
	if len(r.vals) < 4096 {
		r.vals = append(r.vals, v)
	} else if j := rng.Intn(r.seen); j < len(r.vals) {
		r.vals[j] = v
	}
}

func (s *replaySource) World() geo.Rect { return s.world }

func (s *replaySource) SampleQueryPoint() geo.Point {
	if len(s.locs.vals) == 0 {
		return s.world.Center()
	}
	p := s.locs.vals[s.rng.Intn(len(s.locs.vals))]
	// Jitter by ~1% of the world so queries don't all snap to data points.
	return s.world.Clamp(geo.Pt(
		p.X+s.rng.NormFloat64()*s.world.Width()*0.01,
		p.Y+s.rng.NormFloat64()*s.world.Height()*0.01,
	))
}

func (s *replaySource) SampleQueryKeyword() string {
	if len(s.kws.vals) == 0 {
		return "?"
	}
	return s.kws.vals[s.rng.Intn(len(s.kws.vals))]
}

func (s *replaySource) QueryRand() *rand.Rand { return s.rng }
