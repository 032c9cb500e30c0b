// latest-loadgen drives a running latestd over the wire protocol with a
// mixed feed/query workload and reports throughput, latency percentiles,
// and error counts as JSON — the serving layer's benchmark harness and
// smoke-test driver.
//
// Closed loop (default): each connection keeps exactly one request
// outstanding and issues the next as soon as the previous answers, until
// -requests complete. Open loop: -qps paces request starts at a target
// rate regardless of completions, which surfaces queueing collapse the
// closed loop hides.
//
//	latest-loadgen -addr 127.0.0.1:7707 -requests 5000 -conns 4 -feed-frac 0.9
//	latest-loadgen -addr 127.0.0.1:7707 -qps 2000 -duration 30s -out bench.json
//	latest-loadgen -addr 127.0.0.1:7707,127.0.0.1:7717,127.0.0.1:7727 -conns 6
//
// -addr accepts a comma-separated target list: worker i drives target
// i mod N, and the report carries a per-target request/error/latency
// split alongside the aggregate — the harness for N-daemon scaling runs
// and for driving a cluster through several router replicas.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type loadOptions struct {
	addr     string
	conns    int
	requests int
	duration time.Duration
	qps      float64
	feedFrac float64
	batch    int
	dataset  string
	wlName   string
	seed     int64
	deadline time.Duration
	outPath  string
}

// latencyStats summarizes one client-side latency distribution in
// microseconds.
type latencyStats struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func latencyOf(hs telemetry.HistSnapshot) latencyStats {
	return latencyStats{
		P50:  float64(hs.P50().Microseconds()),
		P95:  float64(hs.P95().Microseconds()),
		P99:  float64(hs.P99().Microseconds()),
		Max:  float64(hs.Max.Microseconds()),
		Mean: float64(hs.Mean().Microseconds()),
	}
}

// report is the JSON result shape (-out writes one).
type report struct {
	Addr        string  `json:"addr"`
	Mode        string  `json:"mode"` // "closed" or "open"
	Conns       int     `json:"conns"`
	FeedFrac    float64 `json:"feed_frac"`
	BatchSize   int     `json:"batch_size"`
	Dataset     string  `json:"dataset"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Requests    uint64  `json:"requests"`
	Feeds       uint64  `json:"feeds"`
	FeedObjects uint64  `json:"feed_objects"`
	Queries     uint64  `json:"queries"`
	Errors      uint64  `json:"errors"`
	Drained     uint64  `json:"drained"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Throughput  float64 `json:"requests_per_sec"`
	// LatencyUS covers all successful requests; FeedLatencyUS and
	// QueryLatencyUS split it by operation.
	LatencyUS      latencyStats `json:"latency_us"`
	FeedLatencyUS  latencyStats `json:"feed_latency_us"`
	QueryLatencyUS latencyStats `json:"query_latency_us"`
	// ErrorCodes counts failed requests by wire error code name (plus
	// "timeout" for client-side deadline expiry and "conn" for transport
	// failures).
	ErrorCodes map[string]uint64 `json:"error_codes,omitempty"`
	// PerTarget splits the run by target address when -addr lists
	// several; one entry per target in flag order.
	PerTarget []targetReport `json:"per_target,omitempty"`
}

// targetReport is one target's slice of a multi-target run.
type targetReport struct {
	Addr      string       `json:"addr"`
	Requests  uint64       `json:"requests"`
	Errors    uint64       `json:"errors"`
	LatencyUS latencyStats `json:"latency_us"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latest-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o loadOptions
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7707", "latestd wire address, or a comma-separated list (worker i drives target i mod N)")
	fs.IntVar(&o.conns, "conns", 4, "concurrent connections (one worker each)")
	fs.IntVar(&o.requests, "requests", 5000, "total requests for closed-loop mode")
	fs.DurationVar(&o.duration, "duration", 0, "run length for open-loop mode (with -qps)")
	fs.Float64Var(&o.qps, "qps", 0, "open-loop target request rate; 0 = closed loop")
	fs.Float64Var(&o.feedFrac, "feed-frac", 0.9, "fraction of requests that are feed batches (rest are estimates)")
	fs.IntVar(&o.batch, "batch", 64, "objects per feed batch")
	fs.StringVar(&o.dataset, "dataset", "Twitter", "synthetic dataset preset for objects and query sampling")
	fs.StringVar(&o.wlName, "workload", "TwQW1", "query workload preset")
	fs.Int64Var(&o.seed, "seed", 42, "deterministic workload seed")
	fs.DurationVar(&o.deadline, "request-deadline", 5*time.Second, "per-request deadline")
	fs.StringVar(&o.outPath, "out", "", "write the JSON report here as well as stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.conns <= 0 || o.batch <= 0 || o.feedFrac < 0 || o.feedFrac > 1 {
		fmt.Fprintln(stderr, "latest-loadgen: invalid -conns/-batch/-feed-frac")
		return 2
	}
	if o.qps > 0 && o.duration <= 0 {
		fmt.Fprintln(stderr, "latest-loadgen: open loop (-qps) requires -duration")
		return 2
	}
	if !slices.Contains(datagen.Names(), o.dataset) {
		fmt.Fprintf(stderr, "latest-loadgen: unknown -dataset %q (one of %v)\n", o.dataset, datagen.Names())
		return 2
	}
	if !slices.Contains(workload.Names(), o.wlName) {
		fmt.Fprintf(stderr, "latest-loadgen: unknown -workload %q (one of %v)\n", o.wlName, workload.Names())
		return 2
	}

	rep, err := drive(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "latest-loadgen:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if o.outPath != "" {
		f, err := os.Create(o.outPath)
		if err != nil {
			fmt.Fprintln(stderr, "latest-loadgen:", err)
			return 1
		}
		je := json.NewEncoder(f)
		je.SetIndent("", "  ")
		je.Encode(rep)
		f.Close()
	}
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

// worker is one connection's request loop state.
type worker struct {
	c   *client.Client
	tc  *targetCounters
	rng *rand.Rand
	gen *datagen.Generator
	wl  *workload.Generator
	now int64
}

// targetCounters accumulates one target's slice of the run.
type targetCounters struct {
	addr     string
	requests atomic.Uint64
	errors   atomic.Uint64
	hist     telemetry.Histogram
}

// splitTargets parses the -addr list.
func splitTargets(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func drive(o loadOptions, stderr io.Writer) (*report, error) {
	rep := &report{
		Addr: o.addr, Conns: o.conns, FeedFrac: o.feedFrac, BatchSize: o.batch,
		Dataset: o.dataset, Workload: o.wlName, Seed: o.seed,
		Mode: "closed",
	}
	if o.qps > 0 {
		rep.Mode = "open"
	}

	var (
		requests, feeds, feedObjects, queries, errorsN, drained atomic.Uint64
		hist, feedHist, queryHist                               telemetry.Histogram
		remaining                                               atomic.Int64
		stop                                                    atomic.Bool

		errMu    sync.Mutex
		errCodes = map[string]uint64{}
	)
	remaining.Store(int64(o.requests))
	countErr := func(err error) {
		code := "conn"
		var se *client.ServerError
		switch {
		case errors.As(err, &se):
			code = se.Name
		case errors.Is(err, context.DeadlineExceeded):
			code = "timeout"
		}
		errMu.Lock()
		errCodes[code]++
		errMu.Unlock()
	}

	targets := splitTargets(o.addr)
	if len(targets) == 0 {
		return nil, errors.New("-addr lists no targets")
	}
	perTarget := make([]*targetCounters, len(targets))
	for i, addr := range targets {
		perTarget[i] = &targetCounters{addr: addr}
	}
	workers := make([]*worker, o.conns)
	for i := range workers {
		gen := datagen.ByName(o.dataset, o.seed+int64(i)*101, 1000)
		spec := workload.ByName(o.wlName)
		tc := perTarget[i%len(targets)]
		workers[i] = &worker{
			c:   client.Dial(tc.addr, client.Options{RequestTimeout: o.deadline}),
			tc:  tc,
			rng: rand.New(rand.NewSource(o.seed + int64(i)*977)),
			gen: gen,
			wl:  workload.NewGenerator(spec, gen, 1<<30),
		}
	}
	defer func() {
		for _, w := range workers {
			w.c.Close()
		}
	}()

	// one issues a single request and classifies the outcome.
	one := func(w *worker) {
		ctx, cancel := context.WithTimeout(context.Background(), o.deadline)
		defer cancel()
		start := time.Now()
		var err error
		isFeed := w.rng.Float64() < o.feedFrac
		if isFeed {
			objs := make([]latest.Object, o.batch)
			for j := range objs {
				objs[j] = w.gen.Next()
			}
			w.now = objs[len(objs)-1].Timestamp
			_, err = w.c.FeedBatch(ctx, objs)
			if err == nil {
				feeds.Add(1)
				feedObjects.Add(uint64(len(objs)))
			}
		} else {
			q := w.wl.Next(w.now)
			_, err = w.c.Estimate(ctx, q)
			if err == nil {
				queries.Add(1)
			}
		}
		requests.Add(1)
		w.tc.requests.Add(1)
		if err == nil {
			lat := time.Since(start)
			hist.Record(lat)
			w.tc.hist.Record(lat)
			if isFeed {
				feedHist.Record(lat)
			} else {
				queryHist.Record(lat)
			}
			return
		}
		if client.IsDraining(err) {
			// The server is going away cleanly: not a protocol error.
			drained.Add(1)
			stop.Store(true)
			return
		}
		countErr(err)
		errorsN.Add(1)
		w.tc.errors.Add(1)
		if errorsN.Load() <= 5 {
			fmt.Fprintln(stderr, "latest-loadgen: request error:", err)
		}
	}

	begin := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if o.qps > 0 {
				// Open loop: pace request starts; each worker owns an
				// interleaved slice of the global schedule.
				interval := time.Duration(float64(o.conns) / o.qps * float64(time.Second))
				end := begin.Add(o.duration)
				next := time.Now()
				for time.Now().Before(end) && !stop.Load() {
					one(w)
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				}
				return
			}
			// Closed loop: one outstanding request per connection.
			for remaining.Add(-1) >= 0 && !stop.Load() {
				one(w)
			}
		}(w)
	}
	wg.Wait()

	rep.Requests = requests.Load()
	rep.Feeds = feeds.Load()
	rep.FeedObjects = feedObjects.Load()
	rep.Queries = queries.Load()
	rep.Errors = errorsN.Load()
	rep.Drained = drained.Load()
	rep.ElapsedSec = time.Since(begin).Seconds()
	if rep.ElapsedSec > 0 {
		rep.Throughput = float64(rep.Requests) / rep.ElapsedSec
	}
	rep.LatencyUS = latencyOf(hist.Snapshot())
	rep.FeedLatencyUS = latencyOf(feedHist.Snapshot())
	rep.QueryLatencyUS = latencyOf(queryHist.Snapshot())
	if len(errCodes) > 0 {
		rep.ErrorCodes = errCodes
	}
	if len(perTarget) > 1 {
		for _, tc := range perTarget {
			rep.PerTarget = append(rep.PerTarget, targetReport{
				Addr:      tc.addr,
				Requests:  tc.requests.Load(),
				Errors:    tc.errors.Load(),
				LatencyUS: latencyOf(tc.hist.Snapshot()),
			})
		}
	}
	return rep, nil
}
