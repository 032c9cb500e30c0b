package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/check"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/wire"
)

// probes replays the workload's own inputs through stand-alone replicas of
// the inner layers, timing each call into a layer's public functions.
// Every replica is asked the same queries, strided over qs so that each
// walks the workload's whole phase schedule.
func (l *ledgerRun) probes(qs []latest.Query, k float64, tmp string) error {
	l.probeWire(qs, k)
	l.probePlan(qs, k)
	l.probeStream(qs, k)
	if err := l.probeFleet(qs, k); err != nil {
		return err
	}
	if err := l.probeCore(qs, k); err != nil {
		return err
	}
	if err := l.probeShapes(qs, k); err != nil {
		return err
	}
	return l.probeWAL(k, filepath.Join(tmp, "wal-probe"))
}

// count scales a probe's op count, keeping a floor the medians can use.
func count(n int, k float64) int {
	if v := int(math.Round(float64(n) * k)); v > 8 {
		return v
	}
	return 8
}

// span records a replica call and returns its duration in ns.
func (l *ledgerRun) span(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	l.rec.add(name, 0, -1, start, end)
	return float64(end.Sub(start))
}

// fillReplica feeds a replica its first window's worth of objects.
func fillReplica(in *inputs, insert func(o *latest.Object)) {
	buf := make([]latest.Object, 256)
	for in.next < in.windowObjs() {
		for _, o := range in.stamp(buf, len(buf)) {
			o := o
			insert(&o)
		}
	}
}

// probeWire calls the codec directly on the workload's batches and queries.
func (l *ledgerRun) probeWire(qs []latest.Query, k float64) {
	n := count(400, k)
	in := l.in.replica()
	batchLen := l.spec.plan.batch
	buf := make([]latest.Object, batchLen)
	var frame []byte
	var dst []stream.Object
	var enc, dec []float64
	bytes := 0
	for i := 0; i < n; i++ {
		batch := in.stamp(buf, batchLen)
		enc = append(enc, l.span("wire.feed_encode", func() {
			frame = wire.AppendFeedBatch(frame[:0], uint64(i), batch)
		})/float64(batchLen))
		bytes += len(frame)
		dec = append(dec, l.span("wire.feed_decode", func() {
			dst, _ = wire.DecodeFeedBatch(frame[wire.HeaderSize:], dst[:0])
		})/float64(batchLen))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		dst, _ = wire.DecodeFeedBatch(frame[wire.HeaderSize:], dst[:0])
	}
	runtime.ReadMemStats(&m1)

	var qenc, qdec time.Duration
	frames := make([][]byte, n)
	start := time.Now()
	for i := range frames {
		q := pick(qs, i, n)
		frames[i] = wire.AppendEstimate(nil, uint64(i), 25, &q)
	}
	qenc = time.Since(start)
	start = time.Now()
	for i := range frames {
		_, _, _ = wire.DecodeEstimate(frames[i][wire.HeaderSize:])
	}
	qdec = time.Since(start)

	r := l.res
	r.set("wire.feed_encode_ns_per_obj", median(enc), n)
	r.set("wire.feed_decode_ns_per_obj", median(dec), n)
	r.set("wire.feed_decode_allocs_per_obj", float64(m1.Mallocs-m0.Mallocs)/float64(n*batchLen), n)
	r.set("wire.feed_bytes_per_obj", float64(bytes)/float64(n*batchLen), n)
	r.set("wire.query_encode_ns", float64(qenc)/float64(n), n)
	r.set("wire.query_decode_ns", float64(qdec)/float64(n), n)
}

// probePlan times the router's query planner on the workload's ranges.
func (l *ledgerRun) probePlan(qs []latest.Query, k float64) {
	m, err := cluster.Uniform(l.in.world, clusterCols, clusterRows, []string{"a", "b", "c"}, 1)
	if err != nil {
		panic(err) // constant, valid arguments
	}
	const block = 8 // one clock read per block: a plan costs less than the read
	var ns []float64
	for i := 0; i+block <= len(qs); i += block {
		start := time.Now()
		for _, q := range qs[i : i+block] {
			if q.HasRange {
				m.PlanQuery(q.Range)
			}
		}
		ns = append(ns, float64(time.Since(start))/block)
	}
	l.res.set("cluster.plan_ns_p50", median(ns), len(ns)*block)
}

// probeStream drives a replica of the exact window store alone.
func (l *ledgerRun) probeStream(qs []latest.Query, k float64) {
	in := l.in.replica()
	w := stream.NewWindow(in.world, in.spanMS, 4096)
	fillReplica(in, func(o *latest.Object) { w.Insert(*o) })
	n := count(600, k)
	buf := make([]latest.Object, l.spec.plan.batch)
	var insert, answer []float64
	byType := map[stream.QueryType][]float64{}
	for c := 0; c < n; c++ {
		batch := in.stamp(buf, len(buf))
		insert = append(insert, l.span("stream.insert", func() {
			for i := range batch {
				w.Insert(batch[i])
			}
		})/float64(len(batch)))
		q := pick(qs, c, n)
		q.Timestamp = in.now()
		d := l.span("stream.answer", func() { w.Answer(&q) })
		answer = append(answer, d)
		byType[q.Type()] = append(byType[q.Type()], d)
	}
	r := l.res
	r.set("stream.insert_ns_per_obj", median(insert), n)
	r.set("stream.answer_us_p50", median(answer)/1e3, n)
	r.set("stream.answer_us_p99", percentile(answer, 0.99)/1e3, n)
	for t, name := range map[stream.QueryType]string{
		stream.SpatialQuery: "spatial", stream.KeywordQuery: "keyword", stream.HybridQuery: "hybrid",
	} {
		r.set("stream.answer_"+name+"_us_p50", median(byType[t])/1e3, len(byType[t]))
	}
	r.set("stream.window_objs", float64(w.Size()), 0)
	r.set("stream.distinct_keywords", float64(w.DistinctKeywords()), 0)
}

// probeFleet runs each of the six estimators, built alone from the default
// registry, side by side on the same objects and queries: the latency ×
// accuracy table ROADMAP 4(i) asks for. A window store alongside supplies
// the truth.
func (l *ledgerRun) probeFleet(qs []latest.Query, k float64) error {
	in := l.in.replica()
	w := stream.NewWindow(in.world, in.spanMS, 4096)
	reg := estimator.DefaultRegistry()
	ests := make([]estimator.Estimator, len(fleet))
	for i, x := range fleet {
		e, err := reg.Build(x, estimator.Params{World: in.world, Span: in.spanMS, Seed: l.opt.seed})
		if err != nil {
			return err
		}
		ests[i] = e
	}
	fillReplica(in, func(o *latest.Object) {
		w.Insert(*o)
		for _, e := range ests {
			e.Insert(o)
		}
	})
	n := count(300, k)
	buf := make([]latest.Object, l.spec.plan.batch)
	insert := make([][]float64, len(ests))
	estimate := make([][]float64, len(ests))
	acc := make([]float64, len(ests))
	for c := 0; c < 2*n; c++ {
		// The first pass only trains the workload-driven estimators, as
		// pre-training would have.
		measured := c >= n
		batch := in.stamp(buf, len(buf))
		for i := range batch {
			w.Insert(batch[i])
		}
		for i, e := range ests {
			d := l.span("estimator."+fleet[i]+".insert", func() {
				for j := range batch {
					e.Insert(&batch[j])
				}
			})
			if measured {
				insert[i] = append(insert[i], d/float64(len(batch)))
			}
		}
		q := pick(qs, c%n, n)
		q.Timestamp = in.now()
		truth := float64(w.Answer(&q))
		for i, e := range ests {
			var est float64
			d := l.span("estimator."+fleet[i]+".estimate", func() { est = e.Estimate(&q) })
			if measured {
				estimate[i] = append(estimate[i], d)
				acc[i] += metrics.Accuracy(est, truth)
			}
			e.Observe(&q, truth)
		}
	}
	r := l.res
	for i, x := range fleet {
		r.set("estimator."+x+".insert_ns_per_obj", median(insert[i]), n)
		r.set("estimator."+x+".estimate_us_p50", median(estimate[i])/1e3, n)
		r.set("estimator."+x+".estimate_us_p99", percentile(estimate[i], 0.99)/1e3, n)
		r.set("estimator."+x+".accuracy_mean", acc[i]/float64(n), n)
		r.set("estimator."+x+".memory_kb", float64(ests[i].MemoryBytes())/1024, 0)
	}
	return nil
}

// probeCore drives a replica core.Module plus window store the way
// latest.System does, timing Estimate and Observe separately.
func (l *ledgerRun) probeCore(qs []latest.Query, k float64) error {
	in := l.in.replica()
	w := stream.NewWindow(in.world, in.spanMS, 4096)
	pretrainLen := l.opt.pretrainLen(companionPretrain)
	m, err := core.New(core.Config{
		World: in.world, Span: in.spanMS, Seed: l.opt.seed,
		PretrainQueries: pretrainLen,
		LatencyOf:       check.DeterministicLatencyModel,
		Oracle:          func(q *stream.Query) float64 { return float64(w.Answer(q)) },
		Refill: func(e estimator.Estimator) {
			w.Each(func(o *stream.Object) bool {
				e.Insert(o)
				return true
			})
		},
	})
	if err != nil {
		return err
	}
	feed := func(o *latest.Object) {
		w.Insert(*o)
		m.Insert(o)
	}
	fillReplica(in, feed)
	buf := make([]latest.Object, l.spec.plan.batch)
	n := count(600, k)
	var pretrain, estimate, observe []float64
	for c := 0; len(estimate) < n && c < 8*pretrainLen+n; c++ {
		pretraining := m.Phase() != core.PhaseIncremental
		q := qs[c%len(qs)]
		if !pretraining {
			q = pick(qs, len(estimate), n)
		}
		q.Timestamp = in.now()
		var actual int
		e := l.span("core.estimate", func() { m.Estimate(&q) })
		a := l.span("stream.answer", func() { actual = w.Answer(&q) })
		o := l.span("core.observe", func() { m.Observe(float64(actual)) })
		if pretraining {
			pretrain = append(pretrain, e+a+o)
		} else {
			estimate = append(estimate, e)
			observe = append(observe, o)
		}
		for _, obj := range in.stamp(buf, len(buf)) {
			obj := obj
			feed(&obj)
		}
	}
	if len(estimate) < n {
		return fmt.Errorf("core replica still pre-training after %d queries", len(pretrain))
	}
	r := l.res
	r.set("core.estimate_us_p50", median(estimate)/1e3, len(estimate))
	r.set("core.estimate_us_p99", percentile(estimate, 0.99)/1e3, len(estimate))
	r.set("core.observe_us_p50", median(observe)/1e3, len(observe))
	r.set("core.observe_us_p99", percentile(observe, 0.99)/1e3, len(observe))
	r.set("core.pretrain_query_us_p50", median(pretrain)/1e3, len(pretrain))
	return nil
}

// probeShapes runs the three other engine shapes on identical inputs
// (ROADMAP 3b: which of them are distinguishable). A feed is timed until it
// is applied, so the pipelined shape includes its drain.
func (l *ledgerRun) probeShapes(qs []latest.Query, k float64) error {
	opts := []latest.Option{
		latest.WithSeed(l.opt.seed),
		latest.WithLatencyModel(check.DeterministicLatencyModel),
		latest.WithPretrainQueries(l.opt.pretrainLen(companionPretrain)),
	}
	world := l.in.world
	type shaped struct {
		name  string
		build func() (latest.Engine, func() latest.Phase, func(), error)
	}
	shapes := []shaped{
		{"system", func() (latest.Engine, func() latest.Phase, func(), error) {
			e, err := latest.New(world, l.opt.window, opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return e, e.Phase, func() {}, nil
		}},
		{"concurrent", func() (latest.Engine, func() latest.Phase, func(), error) {
			e, err := latest.NewConcurrent(world, l.opt.window, opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return e, e.Phase, func() {}, nil
		}},
		{"sharded1", func() (latest.Engine, func() latest.Phase, func(), error) {
			e, err := latest.NewSharded(world, l.opt.window, append(opts[:len(opts):len(opts)], latest.WithShards(1))...)
			if err != nil {
				return nil, nil, nil, err
			}
			return e, e.Phase, e.Drain, nil
		}},
	}
	pl := l.miniPlan(200, k)
	for _, sh := range shapes {
		eng, phase, drain, err := sh.build()
		if err != nil {
			return err
		}
		in := l.in.replica()
		buf := make([]latest.Object, 256)
		for in.next < in.windowObjs() {
			eng.FeedBatch(in.stamp(buf, len(buf)))
		}
		qi := 0
		for ; phase() != latest.PhaseIncremental && qi < 8*l.opt.pretrainLen(companionPretrain); qi++ {
			q := qs[qi%len(qs)]
			q.Timestamp = in.now()
			eng.EstimateAndExecute(&q)
			eng.FeedBatch(in.stamp(buf, 16))
		}
		if phase() != latest.PhaseIncremental {
			eng.Shutdown(context.Background())
			return fmt.Errorf("%s replica still pre-training after %d queries", sh.name, qi)
		}
		var feedNS, queryNS []float64
		batch := make([]latest.Object, pl.batch)
		for c := 0; c < pl.cycles; c++ {
			for f := 0; f < pl.feedsPerQuery; f++ {
				b := in.stamp(batch, pl.batch)
				feedNS = append(feedNS, l.span("latest."+sh.name+".feed", func() {
					eng.FeedBatch(b)
					drain()
				})/float64(pl.batch))
			}
			q := pick(qs, c, pl.cycles)
			q.Timestamp = in.now()
			queryNS = append(queryNS, l.span("latest."+sh.name+".query", func() { eng.EstimateAndExecute(&q) }))
		}
		if err := eng.Shutdown(context.Background()); err != nil {
			return err
		}
		l.res.set("latest."+sh.name+".feed_ns_per_obj", median(feedNS), len(feedNS))
		l.res.set("latest."+sh.name+".query_us_p50", median(queryNS)/1e3, len(queryNS))
	}
	return nil
}

// walObserver collects the WAL's own per-operation measurements.
type walObserver struct {
	appendNS, syncNS []float64
	bytes            int
}

func (o *walObserver) WALAppend(bytes int, d time.Duration) {
	o.appendNS = append(o.appendNS, float64(d))
	o.bytes += bytes
}

func (o *walObserver) WALSync(d time.Duration) { o.syncNS = append(o.syncNS, float64(d)) }

// probeWAL appends the workload's objects to a write-ahead log opened
// directly on a FileStore, at the default fsync batching. The numbers are
// this sandbox's disk, not a device's.
func (l *ledgerRun) probeWAL(k float64, dir string) error {
	fs, err := persist.NewFileStore(dir)
	if err != nil {
		return err
	}
	wal, _, _, err := persist.OpenWAL(fs, persist.WALName(0), 0)
	if err != nil {
		return err
	}
	obs := &walObserver{}
	wal.SetObserver(obs)
	in := l.in.replica()
	n := count(20000, k)
	buf := make([]latest.Object, 256)
	for done := 0; done < n; done += len(buf) {
		batch := in.stamp(buf, len(buf))
		start := time.Now()
		for i := range batch {
			var e persist.Enc
			stream.EncodeObject(&e, &batch[i])
			if err := wal.Append(e.Data()); err != nil {
				wal.Close()
				return err
			}
		}
		l.rec.add("persist.wal_append", 0, -1, start, time.Now())
	}
	if err := wal.Close(); err != nil {
		return err
	}
	appended := len(obs.appendNS)
	r := l.res
	r.set("persist.wal_append_ns_per_obj", median(obs.appendNS), appended)
	r.set("persist.wal_sync_us_p50", median(obs.syncNS)/1e3, len(obs.syncNS))
	r.set("persist.wal_bytes_per_obj", float64(obs.bytes)/float64(appended), appended)
	r.set("persist.wal_syncs_per_kobj", float64(len(obs.syncNS))/(float64(appended)/1000), appended)
	return nil
}
