// Monitoring service: a long-running sharded deployment shape. Several
// producer goroutines ingest the stream in batches through
// latest.ShardedSystem (each shard has its own lock, window and estimator
// fleet), request handlers serve estimation queries concurrently, and the
// engine's own telemetry server — enabled with latest.WithTelemetry —
// exposes everything an SRE would wire into a metrics stack:
//
//	/metrics       Prometheus text (counters, gauges, latency histograms)
//	/statusz       JSON snapshot (switch-decision trace, q-error, percentiles)
//	/debug/vars    expvar
//	/debug/pprof/  runtime profiling
//
// The operations loop below plays the scraper: it polls /metrics and
// /statusz over plain HTTP, exactly as Prometheus or a curl-wielding
// operator would.
//
// Run with:
//
//	go run ./examples/monitoring
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest"
)

var world = latest.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}

// params sizes the deployment simulation; fastParams shrinks it for the
// smoke test.
type params struct {
	window       time.Duration
	shards       int
	producers    int
	handlers     int
	queriesPerH  int
	pretrain     int
	scrapeEvery  time.Duration
	logterminals io.Writer // switch/prefill log destination
}

func defaultParams() params {
	return params{
		window:       2 * time.Minute,
		shards:       4,
		producers:    4,
		handlers:     3,
		queriesPerH:  700,
		pretrain:     400,
		scrapeEvery:  500 * time.Millisecond,
		logterminals: os.Stderr,
	}
}

func fastParams() params {
	return params{
		window:       2 * time.Second,
		shards:       2,
		producers:    2,
		handlers:     2,
		queriesPerH:  40,
		pretrain:     30,
		scrapeEvery:  50 * time.Millisecond,
		logterminals: io.Discard,
	}
}

func main() {
	if err := run(os.Stdout, defaultParams()); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, p params) error {
	sys, err := latest.NewSharded(world, p.window,
		latest.WithShards(p.shards),
		latest.WithPretrainQueries(p.pretrain),
		latest.WithAccWindow(100),
		latest.WithSeed(21),
		// Port 0: let the kernel pick, read it back with TelemetryAddr.
		latest.WithTelemetry("127.0.0.1:0"),
		// Switch decisions and prefill activity as slog text lines
		// (time=… level=INFO msg=… component=shard-N key=value…).
		latest.WithLogger(slog.New(slog.NewTextHandler(p.logterminals, nil))),
	)
	if err != nil {
		return err
	}
	defer sys.Close()
	addr := sys.TelemetryAddr()
	fmt.Fprintf(out, "telemetry: http://%s/metrics and http://%s/statusz\n", addr, addr)

	// Virtual clock shared by the producers; queries read it atomically.
	var clock atomic.Int64

	// Producers: simulated social streams with two topic clusters, each
	// feeding batches so a shard's lock is taken once per batch.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for prod := 0; prod < p.producers; prod++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			topics := []string{"news", "traffic", "sports", "food", "music"}
			batch := make([]latest.Object, 0, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch = batch[:0]
				for i := 0; i < 64; i++ {
					ts := clock.Add(1)
					var loc latest.Point
					if rng.Float64() < 0.5 {
						loc = world.Clamp(latest.Pt(-74+rng.NormFloat64(), 40.7+rng.NormFloat64()))
					} else {
						loc = latest.Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height())
					}
					batch = append(batch, latest.Object{
						ID: uint64(ts), Loc: loc,
						Keywords:  []string{topics[rng.Intn(len(topics))]},
						Timestamp: ts,
					})
				}
				sys.FeedBatch(batch)
			}
		}(int64(21 + prod))
	}

	// Wait for one full window of data before serving.
	for clock.Load() < p.window.Milliseconds() {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Fprintf(out, "window primed: %d objects live across %d shards\n",
		sys.WindowSize(), sys.NumShards())

	// Request handlers: each serves a mix of dashboard queries.
	var served atomic.Int64
	total := int64(p.handlers * p.queriesPerH)
	for h := 0; h < p.handlers; h++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			topics := []string{"news", "traffic", "sports", "food", "music"}
			for i := 0; i < p.queriesPerH; i++ {
				area := latest.CenteredRect(
					latest.Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height()),
					4, 3)
				var q latest.Query
				switch rng.Intn(3) {
				case 0:
					q = latest.SpatialQuery(area, clock.Load())
				case 1:
					q = latest.KeywordQuery([]string{topics[rng.Intn(len(topics))]}, clock.Load())
				default:
					q = latest.HybridQuery(area, []string{topics[rng.Intn(len(topics))]}, clock.Load())
				}
				sys.EstimateAndExecute(&q)
				served.Add(1)
			}
		}(int64(100 + h))
	}

	// Operations loop: scrape the engine's own HTTP endpoints, as a
	// Prometheus server (or an operator with curl) would.
	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		ticker := time.NewTicker(p.scrapeEvery)
		defer ticker.Stop()
		for served.Load() < total {
			<-ticker.C
			fmt.Fprintf(out, "[scrape] served=%d\n", served.Load())
			for _, line := range scrapeMetrics(addr) {
				fmt.Fprintf(out, "  %s\n", line)
			}
			if s := scrapeStatusz(addr); s != "" {
				fmt.Fprintf(out, "  statusz: %s\n", s)
			}
		}
	}()
	<-opsDone
	close(stop)
	wg.Wait()

	st := sys.PerShardStats()
	fmt.Fprintf(out, "\nshutdown: %d requests served, active per shard [%s], %d switches total\n",
		served.Load(), strings.Join(sys.ActiveEstimators(), " "), st.Merged.Switches)
	for _, ev := range sys.Switches() {
		fmt.Fprintf(out, "  %v\n", ev)
	}
	// The merged decision trace says why each switch happened.
	for _, d := range st.Merged.Decisions {
		fmt.Fprintf(out, "  shard %d: %s->%s reason=%s confidence=%.2f\n",
			d.Shard, d.From, d.To, d.Reason, d.Confidence)
	}
	return nil
}

// scrapeMetrics GETs /metrics and returns a few representative sample
// lines (a real deployment points Prometheus at the endpoint instead).
func scrapeMetrics(addr string) []string {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return []string{"scrape failed: " + err.Error()}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return []string{"scrape failed: " + err.Error()}
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "latest_feeds_total") ||
			strings.HasPrefix(line, "latest_active_estimator") ||
			strings.HasPrefix(line, "latest_query_latency_seconds_count") {
			out = append(out, line)
		}
	}
	return out
}

// scrapeStatusz GETs /statusz and summarizes the JSON snapshot.
func scrapeStatusz(addr string) string {
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		return "scrape failed: " + err.Error()
	}
	defer resp.Body.Close()
	var snap struct {
		Phase     string `json:"phase"`
		Active    string `json:"active"`
		Switches  int    `json:"switches"`
		Decisions []struct {
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"decisions"`
		QError []struct {
			Estimator string  `json:"estimator"`
			QError    float64 `json:"qerror"`
		} `json:"qerror"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return "decode failed: " + err.Error()
	}
	qerr := make([]string, 0, len(snap.QError))
	for _, qe := range snap.QError {
		if qe.QError > 0 {
			qerr = append(qerr, fmt.Sprintf("%s=%.2f", qe.Estimator, qe.QError))
		}
	}
	return fmt.Sprintf("phase=%s active={%s} switches=%d decisions=%d qerror[%s]",
		snap.Phase, snap.Active, snap.Switches, len(snap.Decisions), strings.Join(qerr, " "))
}
