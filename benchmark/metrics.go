package main

import (
	"encoding/json"
	"strings"

	"github.com/spatiotext/latest/internal/estimator"
)

// metricDecl declares one metric of the benchmark's vocabulary. Later
// issues state their claims in these names.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old median by which the metric may worsen
	// before -compare calls it worse. For an end-to-end metric the
	// acceptance driver gates on it too; per-layer metrics have none.
	Bound float64
	// Moves says what the metric is, or for a layer metric names the
	// end-to-end metric and workload it should move — written down before
	// anything was measured.
	Moves string
}

// endToEnd is the gated list: what a user of the system sees, held to a
// bound by the acceptance driver. Every workload reports every one. It is
// what calibration left of the issue's eleven: a metric whose spread over
// ten seeds exceeded its bound was demoted, not given a wider bound.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "build + fill + pre-train (+ listen): median of three set-ups on identical inputs"},
	{Name: "accuracy_mean", Unit: "frac", Better: "higher", Bound: 0.10, Moves: "paper accuracy metrics.Accuracy(est, actual) averaged over measured queries"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25, Moves: "HeapAlloc after forced collections through the phase, less the pre-engine baseline: window + summaries + model"},
}

// demoted is the rest of the issue's eleven, reported by every run under
// the issue's names and compared by -compare at the issue's one tenth, but
// not gated by the driver. The six timings follow this host's speed, which
// drifts by a fifth over minutes (README.md, "Calibration"); the two shares
// are zero on a healthy run, so a relative bound cannot hold them — the
// run's failed count does.
var demoted = []metricDecl{
	{Name: "ingest_objs_per_s", Unit: "obj/s", Better: "higher", Bound: 0.10, Moves: "closed loop: stream rate the deployment keeps up with; open loop: rate achieved against the schedule"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Moves: "closed loop: query rate; open loop: rate achieved against the schedule"},
	{Name: "feed_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Moves: "one FeedBatch call or ack as the caller sees it (open loop: from the due time)"},
	{Name: "feed_p99_us", Unit: "us", Better: "lower", Bound: 0.10, Moves: "the same, tail; embed-durable's snapshot stall lands here"},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Moves: "one EstimateAndExecute or client.Estimate as the caller sees it (open loop: from the due time)"},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.10, Moves: "the same, tail; switches and pre-fills land here"},
	{Name: "late_frac", Unit: "frac", Better: "lower", Moves: "share of requests past their limit (10 ms feed, 25 ms query), refusals and failures included"},
	{Name: "error_rate", Unit: "frac", Better: "lower", Moves: "failed or refused ops over attempted, correctness checks included"},
}

var fleet = []string{
	estimator.NameH4096, estimator.NameRSL, estimator.NameRSH,
	estimator.NameAASP, estimator.NameFFN, estimator.NameSPN,
}

// perLayer is the ledger: one or more metrics per layer boundary.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	const (
		serveFeed  = "feed_p50_us on serve-stream"
		serveBoth  = "feed_p50_us, query_p50_us on serve-stream"
		serveTail  = "feed_p99_us, query_p99_us, late_frac on serve-stream"
		cluster    = "query_p50_us, queries_per_s on cluster-scatter"
		ingest     = "ingest_objs_per_s on embed-ingest"
		queryPath  = "query_p50_us, query_p99_us on embed-query"
		durableAll = "ingest_objs_per_s, feed_p50_us, feed_p99_us on embed-durable"
		tails      = "every _p99 and heap_live_mb"
		validity   = "validity of the instrument, not the program"
	)
	d := append([]metricDecl(nil), demoted...)
	d = append(d, []metricDecl{
		{Name: "client.encode_us_p50", Unit: "us", Better: "lower", Moves: serveBoth},
		{Name: "client.write_us_p50", Unit: "us", Better: "lower", Moves: serveBoth},
		{Name: "client.wait_us_p50", Unit: "us", Better: "lower", Moves: serveBoth},
		{Name: "client.decode_us_p50", Unit: "us", Better: "lower", Moves: serveBoth},

		{Name: "wire.feed_encode_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: serveFeed + "; twice per op on cluster-scatter; none on embed-*"},
		{Name: "wire.feed_decode_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: serveFeed + "; twice per op on cluster-scatter; none on embed-*"},
		{Name: "wire.feed_decode_allocs_per_obj", Unit: "1/obj", Better: "lower", Moves: serveFeed + " and its go.allocs_per_obj"},
		{Name: "wire.feed_bytes_per_obj", Unit: "B/obj", Better: "lower", Moves: serveFeed},
		{Name: "wire.query_encode_ns", Unit: "ns", Better: "lower", Moves: "query_p50_us on serve-stream, cluster-scatter"},
		{Name: "wire.query_decode_ns", Unit: "ns", Better: "lower", Moves: "query_p50_us on serve-stream, cluster-scatter"},

		{Name: "server.read_us_p50", Unit: "us", Better: "lower", Moves: serveFeed + " (includes socket idle before the frame)"},
		{Name: "server.queue_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_us on serve-stream"},
		{Name: "server.queue_us_p99", Unit: "us", Better: "lower", Moves: serveTail},
		{Name: "server.engine_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_us on serve-stream"},
		{Name: "server.encode_us_p50", Unit: "us", Better: "lower", Moves: serveFeed},
		{Name: "server.write_us_p50", Unit: "us", Better: "lower", Moves: serveFeed},
		{Name: "server.coalesce_objs_per_batch", Unit: "obj", Better: "higher", Moves: serveTail},
		{Name: "server.refused", Unit: "count", Better: "lower", Moves: serveTail},

		{Name: "cluster.plan_ns_p50", Unit: "ns", Better: "lower", Moves: cluster},
		{Name: "cluster.router_feed_us_p50", Unit: "us", Better: "lower", Moves: "feed_p50_us on cluster-scatter"},
		{Name: "cluster.router_query_us_p50", Unit: "us", Better: "lower", Moves: cluster},
		{Name: "cluster.proxy_hop_us_p50", Unit: "us", Better: "lower", Moves: cluster},
		{Name: "cluster.subqueries_per_query", Unit: "count", Better: "lower", Moves: "multiplies node tail into query_p99_us on cluster-scatter"},
		{Name: "cluster.subbatches_per_feed", Unit: "count", Better: "lower", Moves: "feed_p50_us on cluster-scatter"},
		{Name: "cluster.forward_frac", Unit: "frac", Better: "higher", Moves: cluster},
		{Name: "cluster.scatter_frac", Unit: "frac", Better: "lower", Moves: cluster},
		{Name: "cluster.broadcast_frac", Unit: "frac", Better: "lower", Moves: cluster},
		{Name: "cluster.not_owner", Unit: "count", Better: "lower", Moves: cluster},
		{Name: "cluster.retries", Unit: "count", Better: "lower", Moves: cluster},

		{Name: "latest.route_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: "feed_p50_us on embed-ingest"},
		{Name: "latest.apply_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: ingest + "; query_p50_us there through the drain wait, feed_p50_us flat"},
		{Name: "latest.drain_wait_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_us on embed-ingest far more than on embed-query"},
		{Name: "latest.query_us_p50", Unit: "us", Better: "lower", Moves: queryPath},
		{Name: "latest.fanout_shards_per_query", Unit: "count", Better: "lower", Moves: queryPath},
		{Name: "latest.backpressure", Unit: "count", Better: "lower", Moves: "feed_p99_us on embed-ingest"},
	}...)
	for _, shape := range []string{"system", "concurrent", "sharded1"} {
		d = append(d,
			metricDecl{Name: "latest." + shape + ".feed_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: "ROADMAP 3b: the three shapes on identical inputs"},
			metricDecl{Name: "latest." + shape + ".query_us_p50", Unit: "us", Better: "lower", Moves: "ROADMAP 3b: the three shapes on identical inputs"},
		)
	}
	d = append(d,
		metricDecl{Name: "stream.insert_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: ingest},
		metricDecl{Name: "stream.answer_us_p50", Unit: "us", Better: "lower", Moves: queryPath},
		metricDecl{Name: "stream.answer_us_p99", Unit: "us", Better: "lower", Moves: "query_p99_us on embed-query"},
		metricDecl{Name: "stream.answer_spatial_us_p50", Unit: "us", Better: "lower", Moves: queryPath},
		metricDecl{Name: "stream.answer_keyword_us_p50", Unit: "us", Better: "lower", Moves: queryPath},
		metricDecl{Name: "stream.answer_hybrid_us_p50", Unit: "us", Better: "lower", Moves: queryPath},
		metricDecl{Name: "stream.window_objs", Unit: "count", Better: "lower", Moves: "heap_live_mb"},
		metricDecl{Name: "stream.distinct_keywords", Unit: "count", Better: "lower", Moves: "heap_live_mb"},

		metricDecl{Name: "core.estimate_us_p50", Unit: "us", Better: "lower", Moves: queryPath},
		metricDecl{Name: "core.estimate_us_p99", Unit: "us", Better: "lower", Moves: "query_p99_us on embed-query"},
		metricDecl{Name: "core.observe_us_p50", Unit: "us", Better: "lower", Moves: queryPath + " (VFDT training; hoeffding has no public entry of its own)"},
		metricDecl{Name: "core.observe_us_p99", Unit: "us", Better: "lower", Moves: "query_p99_us on embed-query (switch + pre-fill land here)"},
		metricDecl{Name: "core.pretrain_query_us_p50", Unit: "us", Better: "lower", Moves: "setup_s everywhere"},
		metricDecl{Name: "core.switches", Unit: "count", Better: "lower", Moves: "query_p99_us, accuracy_mean on embed-query"},
		metricDecl{Name: "core.tree_nodes", Unit: "count", Better: "lower", Moves: "heap_live_mb; core.observe_us_*"},
	)
	for _, x := range fleet {
		d = append(d, metricDecl{Name: "core.active_share." + x, Unit: "frac", Better: "higher",
			Moves: "weights estimator." + x + ".* into query_p50_us, accuracy_mean on embed-query (direction nominal)"})
	}
	for _, x := range fleet {
		weighted := "weighted by core.active_share." + x + ": "
		d = append(d,
			metricDecl{Name: "estimator." + x + ".insert_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: weighted + ingest},
			metricDecl{Name: "estimator." + x + ".estimate_us_p50", Unit: "us", Better: "lower", Moves: weighted + "query_p50_us on embed-query"},
			metricDecl{Name: "estimator." + x + ".estimate_us_p99", Unit: "us", Better: "lower", Moves: weighted + "query_p99_us on embed-query"},
			metricDecl{Name: "estimator." + x + ".accuracy_mean", Unit: "frac", Better: "higher", Moves: weighted + "accuracy_mean on embed-query"},
			metricDecl{Name: "estimator." + x + ".memory_kb", Unit: "KB", Better: "lower", Moves: weighted + "heap_live_mb"},
		)
	}
	d = append(d,
		metricDecl{Name: "persist.wal_append_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: durableAll},
		metricDecl{Name: "persist.wal_sync_us_p50", Unit: "us", Better: "lower", Moves: durableAll + " (this sandbox's disk)"},
		metricDecl{Name: "persist.wal_bytes_per_obj", Unit: "B/obj", Better: "lower", Moves: durableAll},
		metricDecl{Name: "persist.wal_syncs_per_kobj", Unit: "1/kobj", Better: "lower", Moves: durableAll},
		metricDecl{Name: "durable.feed_overhead_ns_per_obj", Unit: "ns/obj", Better: "lower", Moves: durableAll},
		metricDecl{Name: "durable.snapshot_ms", Unit: "ms", Better: "lower", Moves: "feed_p99_us on embed-durable"},
		metricDecl{Name: "durable.snapshot_mb", Unit: "MB", Better: "lower", Moves: "durable.snapshot_ms, durable.recovery_ms"},
		metricDecl{Name: "durable.recovery_ms", Unit: "ms", Better: "lower", Moves: "restart time after a crash (no end-to-end metric; setup_s does not include it)"},
		metricDecl{Name: "durable.replayed_records", Unit: "count", Better: "lower", Moves: "durable.recovery_ms"},

		metricDecl{Name: "go.alloc_bytes_per_obj", Unit: "B/obj", Better: "lower", Moves: tails},
		metricDecl{Name: "go.allocs_per_obj", Unit: "1/obj", Better: "lower", Moves: tails},
		metricDecl{Name: "go.allocs_per_query", Unit: "count", Better: "lower", Moves: tails},
		metricDecl{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: tails},
		metricDecl{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Moves: tails},

		metricDecl{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower", Moves: validity + ": above a tenth of a limit the run is invalid, not slow"},
		metricDecl{Name: "loadgen.inflight_max", Unit: "count", Better: "lower", Moves: validity},
		metricDecl{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: validity},
	)
	return d
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// unitOf panics on an undeclared name: a metric printed without a
// declaration is a bug in the benchmark.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	return u
}

// manifest renders BENCHMARK.json in the layout the acceptance driver
// prescribes, from the declarations above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
