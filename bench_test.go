package latest

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation section (regenerating the artifact and reporting its
// headline numbers as custom metrics) plus ablation benchmarks for the
// design decisions called out in DESIGN.md §4.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes a scaled-down run per iteration; use
// `latest-lab fig` for the full-size artifacts.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/asptree"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/experiments"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/hoeffding"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
	queryload "github.com/spatiotext/latest/internal/workload"
)

// benchCfg scales the experiments down so a full -bench=. pass stays in
// minutes. The shapes survive the scaling; EXPERIMENTS.md records the
// full-size numbers.
func benchCfg() experiments.RunConfig {
	return experiments.RunConfig{Queries: 800, PretrainQueries: 200}
}

// benchTimeline runs a switch-timeline experiment per iteration.
func benchTimeline(b *testing.B, id string) {
	b.Helper()
	var acc float64
	var switches int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		tl := res.(*experiments.TimelineResult)
		acc = tl.ModuleAccuracy
		switches = len(tl.Switches)
	}
	b.ReportMetric(acc, "module-accuracy")
	b.ReportMetric(float64(switches), "switches")
}

func BenchmarkFig3(b *testing.B)  { benchTimeline(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchTimeline(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchTimeline(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchTimeline(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchTimeline(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchTimeline(b, "fig8") }
func BenchmarkFig12(b *testing.B) { benchTimeline(b, "fig12") }

func BenchmarkTable1(b *testing.B) {
	var maxOverhead float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Queries = 400
		res, err := experiments.Run("table1", cfg)
		if err != nil {
			b.Fatal(err)
		}
		maxOverhead = 0
		for _, row := range res.(*experiments.OverheadResult).Rows {
			if row.OverheadFactor > maxOverhead {
				maxOverhead = row.OverheadFactor
			}
		}
	}
	b.ReportMetric(maxOverhead, "max-index-overhead-x")
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		if _, err := experiments.Run("table2", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep runs a sweep experiment per iteration and reports the chosen
// estimator's accuracy at the last point.
func benchSweep(b *testing.B, id string) {
	b.Helper()
	var choiceAcc float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Queries, cfg.PretrainQueries = 400, 120
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sw := res.(*experiments.SweepResult)
		last := sw.Points[len(sw.Points)-1]
		choiceAcc = last.Accuracy[last.Choice]
	}
	b.ReportMetric(choiceAcc, "choice-accuracy")
}

func BenchmarkFig9(b *testing.B)  { benchSweep(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchSweep(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchSweep(b, "fig11") }
func BenchmarkFig13(b *testing.B) { benchSweep(b, "fig13") }

// BenchmarkAblationSlices sweeps the time-slice ring granularity of the
// windowed quadtree (DESIGN.md §4.1): fewer slices mean coarser expiry and
// worse window tracking; more slices mean more per-advance work.
func BenchmarkAblationSlices(b *testing.B) {
	for _, slices := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("slices=%d", slices), func(b *testing.B) {
			const (
				spanMS = 10_000
				horizn = 40 * spanMS
			)
			sliceDur := spanMS / slices
			var meanErr float64
			for i := 0; i < b.N; i++ {
				tr := asptree.New(geo.UnitSquare, asptree.Config{
					SplitThreshold: 64, Slices: slices,
				})
				rng := rand.New(rand.NewSource(1))
				// Poisson-ish arrivals at ~1/ms; probe the tree against the
				// exact continuous-time window mid-slice, where bucketed
				// expiry is most stale. Few slices ⇒ coarse expiry ⇒ higher
				// window error; many slices ⇒ tighter tracking at more
				// per-advance cost (the reported ns/op).
				var arrivals []int64
				head := 0
				var errSum float64
				samples := 0
				ts := int64(0)
				nextRotate := int64(sliceDur)
				for ts < horizn {
					ts += int64(rng.Intn(3)) // mean ~1ms
					for ts >= nextRotate {
						tr.AdvanceSlice()
						nextRotate += int64(sliceDur)
					}
					tr.Insert(geo.Pt(rng.Float64(), rng.Float64()), nil)
					arrivals = append(arrivals, ts)
					if len(arrivals)%997 == 0 && ts > spanMS {
						for head < len(arrivals) && arrivals[head] <= ts-spanMS {
							head++
						}
						exact := len(arrivals) - head
						est := tr.EstimateRange(geo.UnitSquare)
						errSum += metrics.RelativeError(est, float64(exact))
						samples++
					}
				}
				meanErr = errSum / float64(samples)
			}
			b.ReportMetric(meanErr, "window-rel-err")
		})
	}
}

// BenchmarkAblationBeta sweeps the pre-fill earliness β (DESIGN.md §4.2):
// late pre-fill (β→1) means colder switch targets; early pre-fill means
// longer double maintenance.
func BenchmarkAblationBeta(b *testing.B) {
	for _, beta := range []float64{0.5, 0.8, 0.95} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg()
				cfg.Workload, cfg.Dataset = "TwQW6", "Twitter"
				cfg.Beta = beta
				res, err := experiments.Run("fig4", cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.(*experiments.TimelineResult).ModuleAccuracy
			}
			b.ReportMetric(acc, "module-accuracy")
		})
	}
}

// BenchmarkAblationGracePeriod sweeps the grace period of the EFDT tree the
// engine ships (DESIGN.md §4, decision 4): smaller periods attempt and
// re-test splits more often (slower learning steps, earlier structure);
// larger ones delay adaptation.
func BenchmarkAblationGracePeriod(b *testing.B) {
	for _, grace := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("grace=%d", grace), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				tr := hoeffding.New(
					[]hoeffding.Attribute{
						{Name: "qtype", Kind: hoeffding.Nominal, NumValues: 3},
						{Name: "size", Kind: hoeffding.Numeric},
					},
					[]string{"a", "b", "c"},
					hoeffding.Config{GracePeriod: grace},
				)
				rng := rand.New(rand.NewSource(2))
				correct, total := 0, 0
				for n := 0; n < 30_000; n++ {
					qt := rng.Intn(3)
					size := rng.Float64()
					want := qt
					if qt == 1 && size > 0.5 {
						want = 2
					}
					x := []float64{float64(qt), size}
					if n > 15_000 { // prequential accuracy on the back half
						if tr.Predict(x) == want {
							correct++
						}
						total++
					}
					tr.Learn(x, want)
				}
				acc = float64(correct) / float64(total)
			}
			b.ReportMetric(acc, "prequential-accuracy")
		})
	}
}

// BenchmarkSystemFeed measures the public API's ingest hot path.
func BenchmarkSystemFeed(b *testing.B) {
	sys, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, time.Minute, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	kws := []string{"a", "b", "c", "d"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.FeedBatch([]Object{{
			ID:        uint64(i),
			Loc:       Pt(rng.Float64(), rng.Float64()),
			Keywords:  kws[:1+i%3],
			Timestamp: int64(i / 2),
		}})
	}
}

// benchFill pre-generates n objects uniformly over the unit square.
func benchFill(n int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	kws := []string{"a", "b", "c", "d"}
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			ID:        uint64(i),
			Loc:       Pt(rng.Float64(), rng.Float64()),
			Keywords:  kws[:1+i%3],
			Timestamp: int64(i / 2),
		}
	}
	return objs
}

// BenchmarkParallelFeed compares multi-producer ingest throughput of the
// single-lock NewConcurrent engine against a spatially-partitioned
// NewSharded one. Run with -cpu to vary producer counts, e.g.
//
//	go test -bench ParallelFeed -cpu 1,2,4,8
//
// Producers feed pre-generated batches; on a multicore host the sharded
// variant scales with producers while the single lock serializes them.
func BenchmarkParallelFeed(b *testing.B) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	const batchLen = 256
	objs := benchFill(1<<16, 1)

	b.Run("concurrent", func(b *testing.B) {
		cs, err := NewConcurrent(world, time.Minute, WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			off := 0
			for pb.Next() {
				cs.FeedBatch(objs[off : off+batchLen])
				off = (off + batchLen) % (len(objs) - batchLen)
			}
		})
	})

	b.Run("sharded", func(b *testing.B) {
		ss, err := NewSharded(world, time.Minute, WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		defer ss.Shutdown(context.Background())
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			off := 0
			for pb.Next() {
				ss.FeedBatch(objs[off : off+batchLen])
				off = (off + batchLen) % (len(objs) - batchLen)
			}
		})
	})
}

// BenchmarkDurableFeedBatch measures what the durable layer adds to a feed
// batch — framing, the write, the fsync it owes — over an engine that does
// nothing, on a MemStore and on a FileStore in the test's temp directory
// (that disk, not a device). A 16-object batch fsyncs on every fourth call
// at the default WALSyncEvery, a 256-object one on every call. The log is
// rotated off the clock every 256 KiB: MemStore republishes the whole file
// on each append, so an ever-growing one would time that copy instead.
func BenchmarkDurableFeedBatch(b *testing.B) {
	stores := []struct {
		name string
		open func(b *testing.B) Store
	}{
		{"MemStore", func(*testing.B) Store { return NewMemStore() }},
		{"FileStore", func(b *testing.B) Store {
			fs, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return fs
		}},
	}
	for _, n := range []int{16, 256} {
		for _, st := range stores {
			b.Run(fmt.Sprintf("%d/%s", n, st.name), func(b *testing.B) {
				d := quietDurable(b, &discardEngine{}, st.open(b), 0)
				objs := testObjects(0, n)
				rotateEvery := (256 << 10) / (n * 64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%rotateEvery == rotateEvery-1 {
						b.StopTimer()
						if err := d.SnapshotNow(context.Background()); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					d.FeedBatch(objs)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/obj")
				if err := d.Shutdown(context.Background()); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkSystemEstimate measures the public API's query hot path on the
// default estimator.
func BenchmarkSystemEstimate(b *testing.B) {
	sys, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, time.Minute,
		WithPretrainQueries(50), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ts := int64(0)
	for i := 0; i < 60_000; i++ {
		ts++
		sys.FeedBatch([]Object{{ID: uint64(i), Loc: Pt(rng.Float64(), rng.Float64()),
			Keywords: []string{fmt.Sprintf("kw%d", i%20)}, Timestamp: ts}})
	}
	for i := 0; i < 60; i++ {
		q := HybridQuery(CenteredRect(Pt(0.5, 0.5), 0.2, 0.2), []string{"kw3"}, ts)
		sys.EstimateAndExecute(&q)
	}
	q := HybridQuery(CenteredRect(Pt(0.5, 0.5), 0.2, 0.2), []string{"kw3"}, ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Estimate(&q)
		sys.ObserveActual(120)
	}
}

// BenchmarkShardSetup sets up the repository benchmark's embed deployment
// at 1, 2, 4 and 8 shards: Twitter at 2 objects per virtual millisecond
// against a 60 s window, TwQW1 queries, WithPretrainQueries(1000) and a
// constant latency per estimator. It fills the window, then issues queries
// with 16 objects between them until every shard has left pre-training,
// and reports that set-up time. It then reports the mean accuracy of the
// next 600 queries and the estimator MemoryBytes summed over the shards.
// One set-up per shard count:
//
//	go test -run '^$' -bench ShardSetup -benchtime 1x
func BenchmarkShardSetup(b *testing.B) {
	const (
		rate, spanMS = 2, 60_000
		window       = rate * spanMS
		pretrain     = 1000
		measured     = 600
	)
	src := datagen.ByName("Twitter", 1, rate)
	pool := make([]Object, 2*window)
	for i := range pool {
		pool[i] = src.Next()
	}
	gen := queryload.NewGenerator(queryload.ByName("TwQW1"), src, 1<<14)
	qs := make([]Query, 1<<14)
	for i := range qs {
		qs[i] = gen.Next(0)
	}
	latency := WithLatencyModel(setupLatency)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var setup, acc float64
			var mem int
			for it := 0; it < b.N; it++ {
				next := 0
				feed := func(s *ShardedSystem, k int) {
					batch := make([]Object, k)
					for j := range batch {
						batch[j] = pool[next%len(pool)]
						batch[j].ID, batch[j].Timestamp = uint64(next), int64(next/rate)
						next++
					}
					s.FeedBatch(batch)
				}
				start := time.Now()
				s := MustNewSharded(src.World(), spanMS*time.Millisecond, WithShards(n),
					WithPretrainQueries(pretrain), WithSeed(1), latency)
				for next < window {
					feed(s, 256)
				}
				qi := 0
				for ; s.Phase() != PhaseIncremental; qi++ {
					q := qs[qi%len(qs)]
					q.Timestamp = int64((next - 1) / rate)
					s.EstimateAndExecute(&q)
					feed(s, 16)
				}
				setup = time.Since(start).Seconds()
				acc = 0
				for k := 0; k < measured; k, qi = k+1, qi+1 {
					q := qs[qi%len(qs)]
					q.Timestamp = int64((next - 1) / rate)
					est, actual := s.EstimateAndExecute(&q)
					acc += metrics.Accuracy(est, float64(actual)) / measured
					feed(s, 16)
				}
				mem = s.Stats().MemoryBytes
				s.Shutdown(context.Background())
			}
			b.ReportMetric(setup, "setup-s")
			b.ReportMetric(acc, "accuracy-mean")
			b.ReportMetric(float64(mem)/(1<<20), "estimator-MB")
		})
	}
}

// setupLatency is the embed benchmarks' constant latency per estimator,
// which keeps the wall clock out of switching decisions.
func setupLatency(name string, _ *Query, _ time.Duration) time.Duration {
	us := map[string]int{EstimatorH4096: 50, EstimatorAASP: 80, EstimatorRSH: 120,
		EstimatorFFN: 200, EstimatorSPN: 300, EstimatorRSL: 400}[name]
	return time.Duration(us) * time.Microsecond
}

// BenchmarkSwitchStall measures what switching costs the queries that pay
// for it: one shard over Twitter at 2 objects per virtual millisecond and a
// 60 s window (120 000 live objects), WithPretrainQueries(500) and
// BenchmarkShardSetup's constant latency model, under TwQW1, TwQW3 and
// TwQW6. After pre-training it issues 3 000 queries with 16 objects between
// them. Per workload it reports the slowest query cycles (observe-max-ms,
// observe-p99.9-ms), the switches, the candidates a pre-fill began warming
// (prefills-started) and the switches that adopted one (prefills-adopted),
// and the window fills run on the query path, pre-fills
// and cold-switch targets, by how they ran (prefills-drawn,
// prefills-replayed). On the final window it then times one fill of each
// fleet member as the shard runs it (<estimator>-fill-ms: a draw for RSL,
// RSH and SPN, a replay for the rest) and, for each sampler, a replay of
// the same window (<estimator>-replay-ms), each the median of five:
//
//	go test -run '^$' -bench SwitchStall -benchtime 1x
func BenchmarkSwitchStall(b *testing.B) {
	const (
		rate, spanMS = 2, 60_000
		window       = rate * spanMS
		pretrain     = 500
		measured     = 3000
		perQuery     = 16
	)
	for _, wl := range []string{"TwQW1", "TwQW3", "TwQW6"} {
		b.Run(wl, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				src := datagen.ByName("Twitter", 1, rate)
				gen := queryload.NewGenerator(queryload.ByName(wl), src, pretrain+measured)
				s := MustNewSharded(src.World(), spanMS*time.Millisecond, WithShards(1),
					WithPretrainQueries(pretrain), WithSeed(1), WithLatencyModel(setupLatency))
				next := 0
				feed := func(k int) {
					batch := make([]Object, k)
					for j := range batch {
						batch[j] = src.Next()
						batch[j].ID, batch[j].Timestamp = uint64(next), int64(next/rate)
						next++
					}
					s.FeedBatch(batch)
				}
				query := func() time.Duration {
					q := gen.Next(int64((next - 1) / rate))
					start := time.Now()
					s.EstimateAndExecute(&q)
					d := time.Since(start)
					feed(perQuery)
					return d
				}
				for next < window {
					feed(256)
				}
				for s.Phase() != PhaseIncremental {
					query()
				}
				stalls := make([]time.Duration, measured)
				for i := range stalls {
					stalls[i] = query()
				}
				sort.Slice(stalls, func(i, j int) bool { return stalls[i] < stalls[j] })
				ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
				b.ReportMetric(ms(stalls[len(stalls)-1]), "observe-max-ms")
				b.ReportMetric(ms(stalls[(len(stalls)*999+999)/1000-1]), "observe-p99.9-ms")
				st, g := s.Stats(), s.shards[0].gauges.Snapshot()
				b.ReportMetric(float64(st.Switches), "switches")
				b.ReportMetric(float64(st.PrefillsStarted), "prefills-started")
				b.ReportMetric(float64(st.PrefillsAdopted), "prefills-adopted")
				b.ReportMetric(float64(g.PrefillsDrawn), "prefills-drawn")
				b.ReportMetric(float64(g.PrefillsReplayed), "prefills-replayed")
				b.ReportMetric(float64(g.PrefillObjectsDrawn), "prefill-objects-drawn")
				b.ReportMetric(float64(g.PrefillObjectsReplayed), "prefill-objects-replayed")
				reportFillTimes(b, s.shards[0])
				s.Shutdown(context.Background())
			}
		})
	}
}

// reportFillTimes times, on the shard's window, one fill of each fleet
// member from fresh as the shard's refill runs it, and one replay for each
// member that drew; each figure is the median of five, each fill timed from
// a fresh collection.
func reportFillTimes(b *testing.B, sh *shard) {
	cfg := sh.module.Config()
	p := estimator.Params{World: cfg.World, Span: cfg.Span, Scale: cfg.Scale, Seed: cfg.Seed}
	median := func(name string, fill func(e estimator.Estimator)) float64 {
		var ds [5]time.Duration
		for i := range ds {
			e, err := cfg.Registry.Build(name, p)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC() // no fill pays for the garbage of the one before
			start := time.Now()
			fill(e)
			ds[i] = time.Since(start)
		}
		sort.Slice(ds[:], func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[2]) / float64(time.Millisecond)
	}
	replay := func(e estimator.Estimator) {
		sh.window.Each(func(o *stream.Object) bool { e.Insert(o); return true })
	}
	for _, name := range cfg.Estimators {
		drawn := false
		fill := func(e estimator.Estimator) { drawn, _ = estimator.Fill(e, sh.window) }
		b.ReportMetric(median(name, fill), name+"-fill-ms")
		if drawn {
			b.ReportMetric(median(name, replay), name+"-replay-ms")
		}
	}
}
