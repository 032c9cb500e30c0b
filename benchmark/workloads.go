package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	latest "github.com/spatiotext/latest"
)

// workloadSpec declares one steady-state workload: which deployment, which
// stream and query mix, and how much of each op a run at scale 1 performs.
type workloadSpec struct {
	name    string
	why     string
	shape   shape
	dataset string // datagen preset
	queries string // workload preset
	plan    plan   // at scale 1 (-seconds 10)
}

// setupRepeats is how many times a plain run sets its deployment up;
// setup_s is the median.
const setupRepeats = 3

// nominalSeconds is the measured-phase length the scale-1 op counts are
// sized for on the recording host at GOMAXPROCS=1. Runs are fixed op
// counts, not fixed durations: -seconds scales the counts, keeping every
// ratio, and the same -seconds always performs the same work.
const nominalSeconds = 6

// The issue sized its op counts for 15-20 s per workload; the acceptance
// driver's cap on total run time (114 runs in 57 minutes, three set-ups
// each) allows 6, so the counts below are the issue's ratios at what the
// recording host does in 6 s — except that embed-durable queries once per
// 4 batches instead of 16, because at this length the issue's ratio leaves
// 150 query samples.
var workloads = []workloadSpec{
	{
		name:  "embed-ingest",
		why:   "objects >> queries on the in-process 2-shard engine: routing, shard queues, window insert and the active estimator's insert do the work, the query path almost none",
		shape: shapeEmbed, dataset: "Twitter", queries: "TwQW1",
		plan: plan{batch: 256, feedsPerQuery: 16, cycles: 975},
	},
	{
		name:  "embed-query",
		why:   "same engine the other way round: estimate, observe, samplers, exact answer and VFDT training dominate, ingest is noise; pays for any ingest speed-up bought by lazier summaries",
		shape: shapeEmbed, dataset: "Twitter", queries: "TwQW1",
		plan: plan{batch: 16, feedsPerQuery: 1, cycles: 4200},
	},
	{
		name:  "embed-durable",
		why:   "NewDurable over the same engine on a FileStore with one midpoint snapshot: WAL append and fsync dominate a feed, so persistence work shows here and must not on embed-ingest",
		shape: shapeDurable, dataset: "CheckIn", queries: "CiQW2",
		plan: plan{batch: 256, feedsPerQuery: 4, cycles: 600},
	},
	{
		name:  "serve-stream",
		why:   "open loop over loopback TCP, two connections: the engine does little per request, so client, wire and server do most of the work; the only place a codec or connection-loop change shows",
		shape: shapeServed, dataset: "Twitter", queries: "TwQW3",
		plan: plan{batch: 64, feedsPerQuery: 2, open: true, feedHz: 500, queryHz: 200, duration: nominalSeconds * time.Second},
	},
	{
		name:  "cluster-scatter",
		why:   "three nodes behind router and proxy, closed loop: feed bucketing, query planning, fan-out and the proxy's connection loop dominate; a query waits for its slowest node",
		shape: shapeCluster, dataset: "eBird", queries: "EbRQW3",
		plan: plan{batch: 64, feedsPerQuery: 1, cycles: 2400},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled returns the plan at the given scale, keeping every ratio.
func (pl plan) scaled(scale float64) plan {
	if pl.open {
		pl.duration = time.Duration(float64(pl.duration) * scale)
		// Keep at least one request per segment on each schedule.
		if min := time.Duration(float64(segments) / pl.queryHz * float64(time.Second)); pl.duration < min {
			pl.duration = min
		}
		return pl
	}
	pl.cycles = int(math.Round(float64(pl.cycles) * scale))
	if pl.cycles < segments {
		pl.cycles = segments
	}
	return pl
}

// queryCount is how many queries the plan issues.
func (pl plan) queryCount() int {
	if pl.open {
		return int(pl.queryHz * pl.duration.Seconds())
	}
	return pl.cycles
}

type runOptions struct {
	seed   int64
	scale  float64
	traced bool
	outDir string
	log    io.Writer
	// window is the stream's time window (windowSpan outside tests), and
	// pretrain, when positive, replaces enginePretrain and
	// companionPretrain. The smoke test shrinks both so that set-up takes
	// milliseconds.
	window   time.Duration
	pretrain int
}

// pretrainLen is the pre-training length to use where def is the default.
func (o runOptions) pretrainLen(def int) int {
	if o.pretrain > 0 {
		return o.pretrain
	}
	return def
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 for a count or a
	// single measurement).
	N int `json:"n,omitempty"`
	// Weak marks a percentile with fewer than tailMargin samples beyond it.
	Weak bool `json:"weak,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Scale     float64                `json:"scale"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Ops       map[string]int         `json:"ops"`
	Metrics   map[string]metricValue `json:"metrics"`
	SpanFile  string                 `json:"span_file,omitempty"`
	Ledger    []ledgerRow            `json:"ledger,omitempty"`
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) setQuantile(name string, s *samples, p, div float64) {
	v, ok := s.quantile(p)
	r.Metrics[name] = metricValue{Value: v / div, Unit: unitOf(name), N: s.n(), Weak: !ok}
}

func (r *result) absorb(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Failures = append(r.Failures, p.failures...)
}

func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// heapLive is HeapAlloc after a forced collection — two, because what an
// earlier workload of the same process left in a sync.Pool or behind a
// finalizer takes a second cycle to go.
func heapLive() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// warm fills the window to its steady size and issues queries until every
// shard has left pre-training, so timing starts in the state the system
// spends its life in.
func warm(st *stack, in *inputs, qs []latest.Query) error {
	buf := make([]latest.Object, 256)
	for in.next < in.windowObjs() {
		if _, err := st.feed(in.stamp(buf, len(buf))); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
	}
	for i := 0; !st.incremental(); {
		if i >= 64*len(qs) {
			return fmt.Errorf("still pre-training after %d queries", i)
		}
		for k := 0; k < 64; k++ {
			q := qs[i%len(qs)]
			q.Timestamp = in.now()
			if _, _, err := st.query(&q); err != nil {
				return fmt.Errorf("pre-train: %w", err)
			}
			if _, err := st.feed(in.stamp(buf, 16)); err != nil {
				return fmt.Errorf("pre-train: %w", err)
			}
			i++
		}
	}
	return nil
}

// measure runs one phase of the plan on a warmed stack. For the open loop
// the feeder's and the querier's observations come back separately; the
// closed loop has one caller, so both are the same phase.
func measure(st *stack, in *inputs, pl plan, qs []latest.Query, rec *recorder) (feeds, queries *phase, err error) {
	if pl.open {
		var epoch time.Time
		if rec != nil {
			epoch = rec.epoch
		}
		feeds, queries = openLoop(st, in, pl, qs, epoch, rec != nil)
		rec.merge(feeds.rec)
		rec.merge(queries.rec)
		return feeds, queries, nil
	}
	snapErr := make(chan error, 1)
	if st.durable != nil {
		// The snapshot runs beside the stream, as a periodic one would, so
		// its stall is felt by the feed that meets it.
		pl.midpoint = func() error {
			go func() { snapErr <- st.durable.SnapshotNow(context.Background()) }()
			return nil
		}
	}
	p, err := closedLoop(st, in, pl, qs, rec)
	if err == nil && st.durable != nil {
		err = <-snapErr
	}
	return p, p, err
}

// settle issues one whole-world query so every shard evicts up to the
// newest timestamp, then compares the deployment's live-object count with
// the benchmark's own ring.
func (r *result) settle(st *stack, in *inputs) {
	q := latest.SpatialQuery(in.world, in.now())
	if _, _, err := st.query(&q); err != nil {
		r.check(false, "settling query: %v", err)
		return
	}
	want := in.next - in.liveLo(in.now())
	got := st.windowSize()
	r.check(got == want, "live objects after final drain: engine %d, ring %d", got, want)
}

// callerSide fills in what the callers of a plain (untraced) phase saw: the
// two rates, the four latencies and the two request-outcome shares.
func (r *result) callerSide(feeds, queries *phase) {
	r.set("ingest_objs_per_s", segmentRate(feeds.segObjs, feeds.segSecs), feeds.feed.n())
	r.set("queries_per_s", segmentRate(queries.segQueries, queries.segSecs), queries.query.n())
	r.setQuantile("feed_p50_us", &feeds.feed, 0.50, 1e3)
	r.setQuantile("feed_p99_us", &feeds.feed, 0.99, 1e3)
	r.setQuantile("query_p50_us", &queries.query, 0.50, 1e3)
	r.setQuantile("query_p99_us", &queries.query, 0.99, 1e3)
	attempted := feeds.attempted
	late, failed := feeds.late, feeds.failed
	if queries != feeds {
		attempted += queries.attempted
		late += queries.late
		failed += queries.failed
	}
	r.set("late_frac", float64(late)/float64(attempted), attempted)
	r.set("error_rate", float64(failed)/float64(attempted), attempted)
}

// runWorkload performs one run: set-up to steady state, the measured
// phase, the correctness checks and tear-down. A traced run measures at a
// quarter of the op counts, first with tracing off and then on, and then
// walks every layer for the per-layer ledger.
func runWorkload(spec workloadSpec, opt runOptions) (res *result, err error) {
	res = &result{
		Workload: spec.name, Seed: opt.seed, Scale: opt.scale, Traced: opt.traced,
		Ops: map[string]int{}, Metrics: map[string]metricValue{},
	}
	scale := opt.scale
	if opt.traced {
		scale /= 4
	}
	pl := spec.plan.scaled(scale)

	in := newInputs(spec.dataset, spec.queries, opt.seed, opt.window)
	warmQs := in.queries(4096)
	plainQs := in.queries(pl.queryCount())
	var tracedQs []latest.Query
	if opt.traced {
		tracedQs = in.queries(pl.queryCount())
	}
	base := heapLive()

	tmp, err := os.MkdirTemp(opt.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	cfg := stackConfig{
		shape: spec.shape, world: in.world, window: opt.window, seed: opt.seed,
		pretrain: opt.pretrainLen(enginePretrain), traced: opt.traced,
		traceDepth: 2 * (pl.queryCount()*(pl.feedsPerQuery+1) + 64),
	}
	var setupSecs []float64
	setUp := func(cursor *inputs) (*stack, error) {
		cfg.dir = filepath.Join(tmp, fmt.Sprintf("data-%d", len(setupSecs)))
		start := time.Now()
		s, err := buildStack(cfg)
		if err != nil {
			return nil, err
		}
		if err := warm(s, cursor, warmQs); err != nil {
			s.close()
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		return s, nil
	}
	// A plain run sets up setupRepeats times on identical inputs and reports
	// the median; the last deployment is the one measured.
	if !opt.traced {
		for i := 1; i < setupRepeats; i++ {
			s, err := setUp(in.replica())
			if err == nil {
				err = s.close()
			}
			if err != nil {
				return nil, err
			}
		}
	}
	st, err := setUp(in)
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			if cerr := st.close(); err == nil {
				err = cerr
			}
		}
	}()
	if !opt.traced {
		res.set("setup_s", median(setupSecs), len(setupSecs))
	}
	fmt.Fprintf(opt.log, "# %s: set up in %.2fs, measuring\n", spec.name, median(setupSecs))

	led := newLedgerRun(res, spec, st, in, opt)
	led.before()
	measureStart := time.Now()
	feeds, queries, err := measure(st, in, pl, plainQs, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(opt.log, "# %s: measured %d feeds, %d queries in %.2fs; %d switches since set-up began\n",
		spec.name, feeds.feed.n(), queries.query.n(), time.Since(measureStart).Seconds(), switchCount(st))
	led.after(feeds, queries)
	res.absorb(feeds)
	if queries != feeds {
		res.absorb(queries)
	}
	res.Ops["feeds"] = feeds.feed.n()
	res.Ops["feed_objects"] = feeds.feed.n() * pl.batch
	res.Ops["queries"] = queries.query.n()
	res.settle(st, in)
	if st.router != nil {
		s := st.router.Sample()
		res.check(s.ForwardSingle > 0 && s.ScatterMulti > 0 && s.Broadcasts > 0,
			"routing modes not all exercised: forward %d, scatter %d, broadcast %d",
			s.ForwardSingle, s.ScatterMulti, s.Broadcasts)
	}

	res.callerSide(feeds, queries)
	if !opt.traced {
		res.set("accuracy_mean", queries.accSum/float64(queries.accN), queries.accN)
		res.set("heap_live_mb", (mean(feeds.heap)-base)/(1<<20), len(feeds.heap))
		if st.durable != nil {
			// A plain run still proves the data directory recovers.
			rec, cerr := crashAndRecover(st, in, cfg, filepath.Join(tmp, "crash"))
			st = nil
			if cerr != nil {
				return nil, cerr
			}
			res.checkRecovery(rec)
		}
	} else {
		if st, err = led.traced(st, pl, tracedQs, feeds, queries, tmp); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
