package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/telemetry"
)

// ledgerRow is one line of the per-request ledger: a layer's median self
// time on one op and its share of the caller-observed median.
type ledgerRow struct {
	Op     string  `json:"op"`
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

// ledgerRun carries a traced run's per-layer bookkeeping. On a plain run
// every method is a no-op.
type ledgerRun struct {
	res  *result
	spec workloadSpec
	own  *stack
	in   *inputs
	opt  runOptions
	rec  *recorder

	mem0      runtime.MemStats
	pressure0 uint64
	switches0 int

	// bareFeedNS is the pipelined engine's FeedBatch call cost per object,
	// the baseline the durable layer's overhead is measured against.
	bareFeedNS float64
}

func newLedgerRun(res *result, spec workloadSpec, st *stack, in *inputs, opt runOptions) *ledgerRun {
	return &ledgerRun{res: res, spec: spec, own: st, in: in, opt: opt}
}

func backpressure(st *stack) (n uint64) {
	for _, e := range st.engines {
		for _, sh := range e.PerShardStats().Shards {
			n += sh.Gauges.IngestBackpressure
		}
	}
	return n
}

func switchCount(st *stack) (n int) {
	for _, e := range st.engines {
		n += len(e.Switches())
	}
	return n
}

// before snapshots the runtime and engine counters the plain phase's
// deltas are taken against.
func (l *ledgerRun) before() {
	if !l.opt.traced {
		return
	}
	l.pressure0 = backpressure(l.own)
	l.switches0 = switchCount(l.own)
	runtime.ReadMemStats(&l.mem0)
}

// after turns the plain phase's runtime deltas into the go.* metrics.
func (l *ledgerRun) after(feeds, queries *phase) {
	if !l.opt.traced {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	objs := float64(feeds.feed.n() * l.spec.plan.batch)
	qn := float64(queries.query.n())
	mallocs := float64(m.Mallocs - l.mem0.Mallocs)
	r := l.res
	r.set("go.alloc_bytes_per_obj", float64(m.TotalAlloc-l.mem0.TotalAlloc)/objs, int(objs))
	r.set("go.allocs_per_obj", mallocs/objs, int(objs))
	r.set("go.allocs_per_query", mallocs/qn, int(qn))
	// Less the collections the phase forced for its own heap samples.
	r.set("go.gc_cycles", float64(m.NumGC-l.mem0.NumGC)-float64(len(feeds.heap)), 0)
	r.set("go.gc_pause_ms", float64(m.PauseTotalNs-l.mem0.PauseTotalNs)/1e6, 0)
	r.set("latest.backpressure", float64(backpressure(l.own)-l.pressure0), 0)
}

// traced runs the same plan again with tracing on, then walks every layer:
// the four deployment shapes (this workload's own stack for its shape, a
// short-lived companion fed the same inputs for the others) and the
// stand-alone replicas of the inner layers. It returns the own stack, or
// nil once the durable walk has consumed it.
func (l *ledgerRun) traced(st *stack, pl plan, qs []latest.Query, plainFeeds, plainQueries *phase, tmp string) (*stack, error) {
	r := l.res
	l.rec = newRecorder(time.Now())
	st.setTracing(true)
	feeds, queries, err := measure(st, l.in, pl, qs, l.rec)
	st.setTracing(false)
	if err != nil {
		return st, err
	}
	r.absorb(feeds)
	if queries != feeds {
		r.absorb(queries)
	}
	perCall := func(a, b *phase) float64 {
		t, n := a.inCall, a.calls
		if b != a {
			t, n = t+b.inCall, n+b.calls
		}
		return float64(t) / float64(n)
	}
	r.set("trace.overhead_frac", perCall(feeds, queries)/perCall(plainFeeds, plainQueries)-1, feeds.calls)

	r.set("core.switches", float64(switchCount(st)-l.switches0), 0)
	nodes := 0
	for _, e := range st.engines {
		nodes += e.Stats().TreeNodes
	}
	r.set("core.tree_nodes", float64(nodes), 0)
	total := 0
	for _, n := range queries.activeCount {
		total += n
	}
	for _, x := range fleet {
		r.set("core.active_share."+x, float64(queries.activeCount[x])/math.Max(float64(total), 1), total)
	}

	// Companion runs are sized off the untraced scale, so the ledger's
	// sample counts do not shrink with the traced quarter.
	k := l.opt.scale
	companionQs := l.in.queries(2048)
	for _, sh := range []shape{shapeEmbed, shapeServed, shapeCluster, shapeDurable} {
		cst, cin := st, l.in
		if sh != l.spec.shape {
			cin = l.in.replica()
			cst, err = buildStack(stackConfig{
				shape: sh, world: l.in.world, window: l.opt.window, seed: l.opt.seed,
				pretrain: l.opt.pretrainLen(companionPretrain),
				traced:   true, traceDepth: 1 << 14, dir: filepath.Join(tmp, "companion-data"),
			})
			if err == nil {
				err = warm(cst, cin, companionQs)
			}
			if err != nil {
				if cst != nil {
					cst.close()
				}
				return st, fmt.Errorf("%v companion: %w", sh, err)
			}
		}
		switch sh {
		case shapeEmbed:
			l.walkEmbed(cst, cin, companionQs, k)
		case shapeServed:
			if cst == st {
				err = l.readServed(cst, feeds, queries)
			} else {
				err = l.walkServed(cst, cin, companionQs, k)
			}
		case shapeCluster:
			err = l.walkCluster(cst, cin, companionQs, k)
		case shapeDurable:
			// Consumes the stack: the walk ends by crashing it.
			err = l.walkDurable(cst, cin, cst.cfg, filepath.Join(tmp, "companion-crash"), k)
			if cst == st {
				st = nil
			}
			cst = nil
		}
		if cst != nil && cst != st {
			if cerr := cst.close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return st, fmt.Errorf("%v walk: %w", sh, err)
		}
	}
	if err := l.probes(companionQs, k, tmp); err != nil {
		return st, err
	}
	path, err := writeSpans(l.opt.outDir, l.spec.name, l.rec.spans)
	r.SpanFile = path
	return st, err
}

// pick strides through qs so that total picks walk the workload's whole
// phase schedule, however few they are.
func pick(qs []latest.Query, i, total int) latest.Query {
	if total > len(qs) {
		return qs[i%len(qs)]
	}
	return qs[i*len(qs)/total]
}

// miniPlan is the short closed loop a companion or replica runs: this
// workload's batch size and feed-to-query ratio, cycles at scale 1.
func (l *ledgerRun) miniPlan(cycles int, k float64) plan {
	pl := plan{batch: l.spec.plan.batch, feedsPerQuery: l.spec.plan.feedsPerQuery, cycles: cycles}
	return pl.scaled(k)
}

// walkEmbed takes the pipelined engine apart from outside. Pattern A is
// the pipeline as a caller uses it — FeedBatch returns once the batch is
// routed and queued, and an explicit Drain before each query exposes the
// apply work still outstanding. Pattern B drains after every feed, so
// FeedBatch + Drain is the full cost of applying a batch.
func (l *ledgerRun) walkEmbed(st *stack, in *inputs, qs []latest.Query, k float64) {
	eng := st.engines[0]
	pl := l.miniPlan(240, k)
	buf := make([]latest.Object, pl.batch)
	var route, apply, drainWait, query []float64
	fanout, rects := 0, eng.ShardRects()
	timed := func(name string, fn func()) float64 {
		start := time.Now()
		fn()
		end := time.Now()
		l.rec.add(name, 0, -1, start, end)
		return float64(end.Sub(start))
	}
	for c := 0; c < pl.cycles; c++ {
		patternB := c >= pl.cycles/2
		for f := 0; f < pl.feedsPerQuery; f++ {
			batch := in.stamp(buf, pl.batch)
			d := timed("latest.route", func() { eng.FeedBatch(batch) })
			if patternB {
				d += timed("latest.drain", eng.Drain)
				apply = append(apply, d/float64(pl.batch))
			} else {
				route = append(route, d/float64(pl.batch))
			}
		}
		q := pick(qs, c, pl.cycles)
		q.Timestamp = in.now()
		w := timed("latest.drain", eng.Drain)
		d := timed("latest.query", func() { eng.EstimateAndExecute(&q) })
		if !patternB {
			drainWait = append(drainWait, w)
			query = append(query, d)
		}
		for _, r := range rects {
			if !q.HasRange || r.Intersects(q.Range) {
				fanout++
			}
		}
	}
	r := l.res
	l.bareFeedNS = median(route)
	r.set("latest.route_ns_per_obj", l.bareFeedNS, len(route))
	r.set("latest.apply_ns_per_obj", median(apply), len(apply))
	r.set("latest.drain_wait_us_p50", median(drainWait)/1e3, len(drainWait))
	r.set("latest.query_us_p50", median(query)/1e3, len(query))
	r.set("latest.fanout_shards_per_query", float64(fanout)/float64(pl.cycles), pl.cycles)
}

// walkServed runs serve-stream's open loop for a couple of seconds with the
// program's own tracing on and reads the spans back.
func (l *ledgerRun) walkServed(st *stack, in *inputs, qs []latest.Query, k float64) error {
	pl, _ := workloadByName("serve-stream")
	p := pl.plan
	p.duration = 2 * time.Second
	p = p.scaled(k)
	st.setTracing(true)
	feeds, queries, err := measure(st, in, p, qs, l.rec)
	if err != nil {
		return err
	}
	return l.readServed(st, feeds, queries)
}

// joinTraces imports the client's and the server's exported traces of one
// op into the recorder as children of the benchmark's own call spans:
// call > client.<op> > client.wait > server.<op> > stages. It returns the
// client and server traces that were joined, in call order.
func (l *ledgerRun) joinTraces(op, callName string, cl, srv []telemetry.Trace) (joinedCl, joinedSrv []telemetry.Trace) {
	byID := make(map[telemetry.TraceID]telemetry.Trace, len(srv))
	for _, t := range srv {
		byID[t.ID] = t
	}
	var calls []int
	for i, s := range l.rec.spans {
		if s.Name == callName && s.Parent < 0 {
			calls = append(calls, i)
		}
	}
	sort.Slice(cl, func(a, b int) bool { return cl[a].StartUnixNS < cl[b].StartUnixNS })
	ci := 0
	for _, t := range cl {
		if t.Op != op || t.Error != "" {
			continue
		}
		at := time.Unix(0, t.StartUnixNS).Sub(l.rec.epoch).Nanoseconds()
		for ci < len(calls) && l.rec.spans[calls[ci]].End < at {
			ci++
		}
		if ci == len(calls) || l.rec.spans[calls[ci]].Start > at {
			continue // a set-up or check request, not a measured call
		}
		st, ok := byID[t.ID]
		if !ok {
			continue
		}
		// The server's "estimator" stage carries the latency the pinned
		// model reports to the switch, not wall time; leave it out.
		stages := st.Spans[:0:0]
		for _, sp := range st.Spans {
			if sp.Name != "estimator" {
				stages = append(stages, sp)
			}
		}
		st.Spans = stages
		root := l.rec.addTrace("client", t, calls[ci])
		wait := -1
		for i := root + 1; i < len(l.rec.spans) && l.rec.spans[i].Parent == root; i++ {
			if l.rec.spans[i].Name == "client.wait" {
				wait = i
			}
		}
		sroot := l.rec.addTrace("server", st, wait)
		// A multi-shard fan-out runs inside the engine call, which records
		// its own span only once it returns.
		engine := -1
		for i := sroot + 1; i < len(l.rec.spans); i++ {
			if l.rec.spans[i].Name == "server.engine" {
				engine = i
			}
		}
		for i := sroot + 1; i < len(l.rec.spans) && engine >= 0; i++ {
			if l.rec.spans[i].Name == "server.fanout" {
				l.rec.spans[i].Parent = engine
			}
		}
		joinedCl, joinedSrv = append(joinedCl, t), append(joinedSrv, st)
		ci++
	}
	return joinedCl, joinedSrv
}

// stageDurs collects one stage's durations, in ns, across traces.
func stageDurs(ts []telemetry.Trace, stage string) []float64 {
	var out []float64
	for _, t := range ts {
		for _, s := range t.Spans {
			if s.Name == stage {
				out = append(out, float64(s.DurNS))
			}
		}
	}
	return out
}

// readServed folds the served stack's exported traces into the client.*,
// server.* and loadgen.* metrics and the per-request ledger.
func (l *ledgerRun) readServed(st *stack, feeds, queries *phase) error {
	r := l.res
	srv := st.servers[0].Traces().Snapshot()
	fcl, fsrv := l.joinTraces("feed", "feed", st.tracedClients[0].Traces().Snapshot(), srv)
	_, qsrv := l.joinTraces("estimate", "query", st.tracedClients[1].Traces().Snapshot(), srv)

	// Codec and socket stages are read on feeds, where they carry 64
	// objects; queue and engine on estimates, the op that has both.
	for _, stage := range []string{"encode", "write", "wait", "decode"} {
		d := stageDurs(fcl, stage)
		r.set("client."+stage+"_us_p50", median(d)/1e3, len(d))
	}
	for _, stage := range []string{"read", "encode", "write"} {
		d := stageDurs(fsrv, stage)
		r.set("server."+stage+"_us_p50", median(d)/1e3, len(d))
	}
	queue := stageDurs(qsrv, "queue")
	r.set("server.queue_us_p50", median(queue)/1e3, len(queue))
	r.set("server.queue_us_p99", percentile(queue, 0.99)/1e3, len(queue))
	engine := stageDurs(qsrv, "engine")
	r.set("server.engine_us_p50", median(engine)/1e3, len(engine))

	snap, err := st.statusz()
	if err != nil {
		return err
	}
	if s := snap.Server; s != nil {
		var feedReqs uint64
		for _, op := range s.Ops {
			if op.Op == "feed" {
				feedReqs = op.Requests
			}
		}
		batches := math.Max(float64(feedReqs)-float64(s.CoalescedFeeds), 1)
		r.set("server.coalesce_objs_per_batch", float64(s.FeedObjects)/batches, int(feedReqs))
		r.set("server.refused", float64(s.Errors.Total()), 0)
	}

	lag := append(append([]float64(nil), feeds.lag...), queries.lag...)
	r.set("loadgen.lag_p99_us", percentile(lag, 0.99)/1e3, len(lag))
	inflight := feeds.backlogMax
	if queries.backlogMax > inflight {
		inflight = queries.backlogMax
	}
	r.set("loadgen.inflight_max", float64(inflight), 0)

	r.Ledger = append(r.Ledger, foldLedger(l.rec.spans, "feed")...)
	r.Ledger = append(r.Ledger, foldLedger(l.rec.spans, "query")...)
	return nil
}

// foldLedger reduces the joined span trees of one op to rows: each layer's
// median self time and its share of the caller-observed median, largest
// first. Time no stage covers — the call's, the client trace's and the
// server trace's own self time — is "unattributed"; the client's wait minus
// the server's spans is "transit": kernel, loopback and goroutine wake-ups.
func foldLedger(spans []span, callName string) []ledgerRow {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	joined := map[int]bool{}
	for i, s := range spans {
		root[i] = i
		for spans[root[i]].Parent >= 0 {
			root[i] = spans[root[i]].Parent
		}
		if s.Parent >= 0 {
			if p := spans[s.Parent]; p.Parent < 0 && p.Name == callName && strings.HasPrefix(s.Name, "client.") {
				joined[s.Parent] = true
			}
		}
	}
	sums := map[int]map[string]float64{}
	for i, s := range spans {
		r := root[i]
		if !joined[r] {
			continue
		}
		if sums[r] == nil {
			sums[r] = map[string]float64{}
		}
		name := s.Name
		switch name {
		case "server.read":
			// Waiting for the frame, socket idle included: it ends where
			// the server's clock starts, so it is not on this path.
			continue
		case callName, "client.feed", "client.estimate", "server.feed", "server.estimate":
			name = "unattributed"
		case "client.wait":
			name = "transit (client.wait self)"
		}
		sums[r][name] += float64(self[i])
	}
	perLayer := map[string][]float64{}
	var totals []float64
	for r, m := range sums {
		totals = append(totals, float64(spans[r].End-spans[r].Start))
		for name, v := range m {
			perLayer[name] = append(perLayer[name], v)
		}
	}
	total := median(totals)
	var rows []ledgerRow
	for name, vs := range perLayer {
		// A stage some requests lack contributes zero there.
		for len(vs) < len(totals) {
			vs = append(vs, 0)
		}
		m := median(vs)
		rows = append(rows, ledgerRow{Op: callName, Layer: name, SelfUS: m / 1e3, Share: m / math.Max(total, 1)})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Share != rows[b].Share {
			return rows[a].Share > rows[b].Share
		}
		return rows[a].Layer < rows[b].Layer
	})
	return append([]ledgerRow{{Op: callName, Layer: "caller-observed", SelfUS: total / 1e3, Share: 1}}, rows...)
}

// walkCluster sends the same requests through the proxy and through an
// embedded Router, so the proxy hop is their difference, and reads the
// routing counters back.
func (l *ledgerRun) walkCluster(st *stack, in *inputs, qs []latest.Query, k float64) error {
	ctx := context.Background()
	m := st.router.Map()
	embedded := cluster.NewRouter(m, func(addr string) cluster.Node {
		return client.Dial(addr, client.Options{})
	}, cluster.Options{})
	defer embedded.Close()
	proxied := st.clients[0]

	pl := l.miniPlan(400, k)
	buf := make([]latest.Object, pl.batch)
	before := st.router.Sample()
	beforeEmb := embedded.Sample()
	var routerFeed, routerQuery, proxyQuery []float64
	subbatches := 0
	for c := 0; c < pl.cycles; c++ {
		// Feeds alternate between the two paths; queries go down both.
		batch := in.stamp(buf, pl.batch)
		owners := map[int]bool{}
		for i := range batch {
			owners[m.OwnerOf(batch[i].Loc)] = true
		}
		subbatches += len(owners)
		start := time.Now()
		var err error
		if c%2 == 0 {
			_, err = embedded.FeedBatch(ctx, batch)
			routerFeed = append(routerFeed, float64(time.Since(start)))
			l.rec.add("cluster.router_feed", uint64(c), -1, start, time.Now())
		} else {
			_, err = proxied.FeedBatch(ctx, batch)
		}
		if err != nil {
			return err
		}
		// The second asker finds the nodes' caches warm, so the order
		// alternates.
		q := pick(qs, c, pl.cycles)
		q.Timestamp = in.now()
		paths := [2]struct {
			name string
			ask  func() error
			ns   *[]float64
		}{
			{"cluster.router_query", func() error { _, err := embedded.Estimate(ctx, q); return err }, &routerQuery},
			{"cluster.proxy_query", func() error { _, err := proxied.Estimate(ctx, q); return err }, &proxyQuery},
		}
		for i := range paths {
			p := paths[(i+c)%2]
			start := time.Now()
			if err := p.ask(); err != nil {
				return err
			}
			end := time.Now()
			l.rec.add(p.name, uint64(c), -1, start, end)
			*p.ns = append(*p.ns, float64(end.Sub(start)))
		}
	}
	after, afterEmb := st.router.Sample(), embedded.Sample()
	d := func(f func(telemetry.ClusterSample) uint64) float64 {
		return float64(f(after) - f(before) + f(afterEmb) - f(beforeEmb))
	}
	forward := d(func(s telemetry.ClusterSample) uint64 { return s.ForwardSingle })
	scatter := d(func(s telemetry.ClusterSample) uint64 { return s.ScatterMulti })
	broadcast := d(func(s telemetry.ClusterSample) uint64 { return s.Broadcasts })
	routed := math.Max(forward+scatter+broadcast, 1)
	r := l.res
	r.set("cluster.router_feed_us_p50", median(routerFeed)/1e3, len(routerFeed))
	r.set("cluster.router_query_us_p50", median(routerQuery)/1e3, len(routerQuery))
	r.set("cluster.proxy_hop_us_p50", (median(proxyQuery)-median(routerQuery))/1e3, len(proxyQuery))
	r.set("cluster.subqueries_per_query", d(func(s telemetry.ClusterSample) uint64 { return s.Subqueries })/routed, int(routed))
	r.set("cluster.subbatches_per_feed", float64(subbatches)/float64(pl.cycles), pl.cycles)
	r.set("cluster.forward_frac", forward/routed, int(routed))
	r.set("cluster.scatter_frac", scatter/routed, int(routed))
	r.set("cluster.broadcast_frac", broadcast/routed, int(routed))
	r.set("cluster.not_owner", d(func(s telemetry.ClusterSample) uint64 { return s.NotOwner }), 0)
	r.set("cluster.retries", d(func(s telemetry.ClusterSample) uint64 { return s.Retries }), 0)
	return nil
}

// walkDurable times durable feeds against the bare engine's, one snapshot,
// and recovery from the directory a crash would leave. It consumes st.
func (l *ledgerRun) walkDurable(st *stack, in *inputs, cfg stackConfig, crashDir string, k float64) error {
	pl := l.miniPlan(60, k)
	buf := make([]latest.Object, pl.batch)
	var feedNS []float64
	feedSome := func() {
		for i := 0; i < pl.cycles*pl.feedsPerQuery; i++ {
			batch := in.stamp(buf, pl.batch)
			start := time.Now()
			st.durable.FeedBatch(batch)
			end := time.Now()
			l.rec.add("durable.feed", 0, -1, start, end)
			feedNS = append(feedNS, float64(end.Sub(start))/float64(pl.batch))
		}
	}
	feedSome()
	start := time.Now()
	if err := st.durable.SnapshotNow(context.Background()); err != nil {
		st.close()
		return err
	}
	end := time.Now()
	l.rec.add("durable.snapshot", 0, -1, start, end)
	snapBytes := uint64(0)
	if s := st.durable.TelemetrySnapshot().Durable; s != nil {
		snapBytes = s.LastSnapshotBytes
	}
	feedSome()
	rec, err := crashAndRecover(st, in, cfg, crashDir)
	if err != nil {
		return err
	}
	r := l.res
	r.checkRecovery(rec)
	r.set("durable.feed_overhead_ns_per_obj", median(feedNS)-l.bareFeedNS, len(feedNS))
	r.set("durable.snapshot_ms", float64(end.Sub(start))/1e6, 0)
	r.set("durable.snapshot_mb", float64(snapBytes)/(1<<20), 0)
	r.set("durable.recovery_ms", float64(rec.elapsed)/1e6, 0)
	r.set("durable.replayed_records", float64(rec.replayed), 0)
	return nil
}
