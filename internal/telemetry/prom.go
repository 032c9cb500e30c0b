package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// prom.go is the one place a metric family is declared and the one place
// the Prometheus text format is written. A family is a row (name, type,
// help, collect) of snapshotFamilies or runtimeFamilies; renderFamilies
// writes the header once per row and hands collect an emitter, which
// formats every sample and escapes every label value. To add a family: one
// row here, `go test ./internal/telemetry -run Golden -update`, review the
// golden diff.

const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// family is one metric family over an input of type T. collect emits the
// family's series in exposition order: sample for a counter or gauge, hist
// for a histogram.
type family[T any] struct {
	name    string
	typ     string
	help    string
	collect func(in *T, e *emitter)
}

// familyGroup is a run of consecutive families that render only when
// present reports true of the input (nil: always) — a layer the process
// does not run publishes no families, not zero-valued ones.
type familyGroup[T any] struct {
	present  func(in *T) bool
	families []family[T]
}

// emitter writes the series of the family being rendered. Labels are
// (name, value) pairs, rendered in the order given.
type emitter struct {
	b    strings.Builder
	name string
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func labelString(kv []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i] + `="` + labelEscaper.Replace(kv[i+1]) + `"`)
	}
	return b.String()
}

func (e *emitter) sample(v float64, kv ...string) {
	e.b.WriteString(e.name)
	if len(kv) > 0 {
		e.b.WriteString("{" + labelString(kv) + "}")
	}
	e.b.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
}

func (e *emitter) hist(h HistSnapshot, kv ...string) {
	promHistogramOne(&e.b, e.name, labelString(kv), h)
}

func renderFamilies[T any](groups []familyGroup[T], in *T) []byte {
	var e emitter
	for _, g := range groups {
		if g.present != nil && !g.present(in) {
			continue
		}
		for _, f := range g.families {
			e.name = f.name
			e.b.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.typ + "\n")
			f.collect(in, &e)
		}
	}
	return []byte(e.b.String())
}

// WriteProm renders a Snapshot in the Prometheus text exposition format.
// Exported separately from the server so tests and offline tooling can
// render without a listener.
func WriteProm(w interface{ Write([]byte) (int, error) }, snap Snapshot) {
	w.Write(renderFamilies(snapshotFamilies, &snap))
}

// WriteGoRuntimeProm renders the sample as latest_go_* metric families.
// handleMetrics appends this after the Snapshot families.
func WriteGoRuntimeProm(w io.Writer, s GoRuntimeSample) {
	w.Write(renderFamilies(runtimeFamilies, &s))
}

// promHistogramOne renders one histogram series (no HELP/TYPE preamble —
// the caller owns the family header). An empty label renders an unlabeled
// series. Buckets are cumulative as the exposition format requires; empty
// trailing buckets are folded into +Inf to keep scrapes small.
func promHistogramOne(b *strings.Builder, name, label string, h HistSnapshot) {
	prefix := label // bucket-line label prefix, "le" appended after it
	if label != "" {
		prefix += ","
	}
	hi := -1
	for i, n := range h.Buckets {
		if n > 0 {
			hi = i
		}
	}
	var cum uint64
	for i := 0; i <= hi && i < NumBuckets-1; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(BucketBound(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, prefix, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, h.Count)
	suffix := ""
	if label != "" {
		suffix = "{" + label + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix,
		strconv.FormatFloat(h.Sum.Seconds(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.Count)
}

func boolValue(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// perShard is the collector of a family with one series per shard.
func perShard(v func(sh *ShardSample) float64) func(*Snapshot, *emitter) {
	return func(s *Snapshot, e *emitter) {
		for i := range s.Shards {
			e.sample(v(&s.Shards[i]), "shard", strconv.Itoa(s.Shards[i].Index))
		}
	}
}

func perShardHist(h func(sh *ShardSample) HistSnapshot) func(*Snapshot, *emitter) {
	return func(s *Snapshot, e *emitter) {
		for i := range s.Shards {
			e.hist(h(&s.Shards[i]), "shard", strconv.Itoa(s.Shards[i].Index))
		}
	}
}

// perNode is the collector of a family with one series per backend node.
func perNode(v func(n *ClusterNode) float64) func(*Snapshot, *emitter) {
	return func(s *Snapshot, e *emitter) {
		for i := range s.Cluster.PerNode {
			e.sample(v(&s.Cluster.PerNode[i]), "node", s.Cluster.PerNode[i].Addr)
		}
	}
}

// snapshotFamilies is every family WriteProm can render, in exposition
// order.
var snapshotFamilies = []familyGroup[Snapshot]{
	{families: []family[Snapshot]{
		{"latest_feeds_total", counter, "Lifetime ingested objects per shard.", perShard(func(sh *ShardSample) float64 { return float64(sh.Feeds) })},
		{"latest_batches_total", counter, "Lifetime ingested batches per shard.", perShard(func(sh *ShardSample) float64 { return float64(sh.Batches) })},
		{"latest_queries_total", counter, "Lifetime estimate/execute cycles per shard.", perShard(func(sh *ShardSample) float64 { return float64(sh.Queries) })},
		{"latest_reordered_total", counter, "Objects whose timestamps were clamped forward per shard.", perShard(func(sh *ShardSample) float64 { return float64(sh.Reordered) })},
		{"latest_prefills_total", counter, "Estimator pre-fills per shard by mode: draw when a sampler drew its sample from the window, replay when the window was replayed into the estimator.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					shard := strconv.Itoa(sh.Index)
					e.sample(float64(sh.PrefillsDrawn), "shard", shard, "mode", "draw")
					e.sample(float64(sh.PrefillsReplayed), "shard", shard, "mode", "replay")
				}
			}},
		{"latest_prefill_objects_total", counter, "Window objects read by estimator pre-fills per shard by mode: draw counts the objects samplers drew, replay those replayed into an estimator.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					shard := strconv.Itoa(sh.Index)
					e.sample(float64(sh.PrefillObjectsDrawn), "shard", shard, "mode", "draw")
					e.sample(float64(sh.PrefillObjectsReplayed), "shard", shard, "mode", "replay")
				}
			}},
		{"latest_switches_total", counter, "Estimator switches per shard.", perShard(func(sh *ShardSample) float64 { return float64(sh.Switches) })},
		{"latest_prefill_candidates_total", counter, "Switch candidates per shard by outcome: started when a pre-fill began warming one, adopted when a switch took a warmed one.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					shard := strconv.Itoa(sh.Index)
					e.sample(float64(sh.PrefillsStarted), "shard", shard, "outcome", "started")
					e.sample(float64(sh.PrefillsAdopted), "shard", shard, "outcome", "adopted")
				}
			}},
		{"latest_window_occupancy", gauge, "Live objects in the shard's exact window store.", perShard(func(sh *ShardSample) float64 { return float64(sh.Occupancy) })},
		{"latest_window_bytes", gauge, "Footprint of the shard's exact window store, all of it its own: object arena with keyword IDs, index rings, and the keyword dictionary with its words.", perShard(func(sh *ShardSample) float64 { return float64(sh.WindowBytes) })},
		// A shard whose window is empty has no reading, so no series.
		{"latest_accuracy_avg", gauge, "Sliding accuracy average the adaptor monitors, per shard.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					if sh.AccuracySamples > 0 {
						e.sample(sh.AccuracyAvg, "shard", strconv.Itoa(sh.Index))
					}
				}
			}},
		{"latest_memory_bytes", gauge, "Estimator memory footprint per shard.", perShard(func(sh *ShardSample) float64 { return float64(sh.MemoryBytes) })},
		{"latest_active_estimator", gauge, "1 for the estimator currently serving each shard.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					e.sample(1, "shard", strconv.Itoa(sh.Index), "estimator", sh.Active)
				}
			}},
		{"latest_qerror", gauge, "Rolling q-error per estimator (1 is perfect), merged across shards.",
			func(s *Snapshot, e *emitter) {
				for _, qe := range s.QError {
					if qe.Samples > 0 {
						e.sample(qe.QError, "estimator", qe.Estimator)
					}
				}
			}},
	}},
	{families: []family[Snapshot]{
		{"latest_validation_total", counter, "Inputs handled by the validation policy per shard, by outcome.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					e.sample(float64(sh.ValidationRejected), "shard", strconv.Itoa(sh.Index), "outcome", "rejected")
					e.sample(float64(sh.ValidationClamped), "shard", strconv.Itoa(sh.Index), "outcome", "clamped")
				}
			}},
		{"latest_ingest_rate", gauge, "Trailing mean feed rate per shard (objects/second over the last ten completed seconds).", perShard(func(sh *ShardSample) float64 { return sh.IngestRatePerSec })},
		{"latest_sanitized_total", counter, "Estimates that were NaN, infinite or negative and were served as 0, per shard and estimator.",
			func(s *Snapshot, e *emitter) {
				for _, sh := range s.Shards {
					names := make([]string, 0, len(sh.Sanitized))
					for name := range sh.Sanitized {
						names = append(names, name)
					}
					sort.Strings(names)
					for _, name := range names {
						e.sample(float64(sh.Sanitized[name]), "shard", strconv.Itoa(sh.Index), "estimator", name)
					}
				}
			}},
		{"latest_batch_latency_seconds", histogram, "Per-batch ingest latency.", perShardHist(func(sh *ShardSample) HistSnapshot { return sh.Batch })},
		{"latest_query_latency_seconds", histogram, "Full estimate+execute+observe cycle latency.", perShardHist(func(sh *ShardSample) HistSnapshot { return sh.Query })},
		{"latest_estimate_latency_seconds", histogram, "Active estimator's approximate-answer latency.", perShardHist(func(sh *ShardSample) HistSnapshot { return sh.Estimate })},
	}},
	{present: func(s *Snapshot) bool { return s.Server != nil }, families: []family[Snapshot]{
		{"latest_server_draining", gauge, "1 while the server is draining for shutdown.", func(s *Snapshot, e *emitter) { e.sample(boolValue(s.Server.Draining)) }},
		{"latest_server_connections", gauge, "Currently open wire-protocol connections.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Server.ConnsActive)) }},
		{"latest_server_connections_total", counter, "Lifetime connection outcomes.",
			func(s *Snapshot, e *emitter) {
				e.sample(float64(s.Server.ConnsAccepted), "outcome", "accepted")
				e.sample(float64(s.Server.ConnsRejected), "outcome", "rejected")
			}},
		{"latest_server_bytes_total", counter, "Wire bytes by direction.",
			func(s *Snapshot, e *emitter) {
				e.sample(float64(s.Server.BytesIn), "dir", "in")
				e.sample(float64(s.Server.BytesOut), "dir", "out")
			}},
		{"latest_server_frames_total", counter, "Wire frames by direction.",
			func(s *Snapshot, e *emitter) {
				e.sample(float64(s.Server.FramesIn), "dir", "in")
				e.sample(float64(s.Server.FramesOut), "dir", "out")
			}},
		{"latest_server_inflight", gauge, "Requests currently being served.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Server.InFlight)) }},
		{"latest_server_feed_objects_total", counter, "Stream objects ingested over the wire.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Server.FeedObjects)) }},
		{"latest_server_coalesced_feeds_total", counter, "Pipelined feed frames merged into one engine batch.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Server.CoalescedFeeds)) }},
		{"latest_server_requests_total", counter, "Successfully answered requests by operation.",
			func(s *Snapshot, e *emitter) {
				for _, op := range s.Server.Ops {
					e.sample(float64(op.Requests), "op", op.Op)
				}
			}},
		{"latest_server_request_errors_total", counter, "Typed request rejections by wire error code.",
			func(s *Snapshot, e *emitter) {
				errs := &s.Server.Errors
				e.sample(float64(errs.Malformed), "code", "malformed")
				e.sample(float64(errs.TooLarge), "code", "too_large")
				e.sample(float64(errs.VersionSkew), "code", "version_skew")
				e.sample(float64(errs.UnknownType), "code", "unknown_type")
				e.sample(float64(errs.Backpressure), "code", "backpressure")
				e.sample(float64(errs.Draining), "code", "draining")
				e.sample(float64(errs.Deadline), "code", "deadline_exceeded")
				e.sample(float64(errs.Internal), "code", "internal")
				e.sample(float64(errs.NotOwner), "code", "not_owner")
			}},
		{"latest_server_request_latency_seconds", histogram, "Server-side request latency by operation.",
			func(s *Snapshot, e *emitter) {
				for _, op := range s.Server.Ops {
					e.hist(op.Latency, "op", op.Op)
				}
			}},
		{"latest_server_conn_duration_seconds", histogram, "Lifetime of closed wire connections.", func(s *Snapshot, e *emitter) { e.hist(s.Server.ConnDuration) }},
		{"latest_server_traces_total", counter, "Trace-flagged requests observed and retained for /debug/requests.",
			func(s *Snapshot, e *emitter) {
				e.sample(float64(s.Server.TracesSeen), "outcome", "seen")
				e.sample(float64(s.Server.TracesSampled), "outcome", "sampled")
			}},
	}},
	{present: func(s *Snapshot) bool { return s.Durable != nil }, families: []family[Snapshot]{
		{"latest_wal_appends_total", counter, "Records appended to the feed WAL.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.WALAppends)) }},
		{"latest_wal_bytes_total", counter, "Framed bytes written to the feed WAL.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.WALBytes)) }},
		{"latest_wal_fsyncs_total", counter, "Fsync batches issued on the feed WAL.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.WALSyncs)) }},
		{"latest_wal_rotations_total", counter, "WAL generation rollovers (one per committed snapshot).", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.WALRotations)) }},
		{"latest_wal_append_latency_seconds", histogram, "WAL write latency, one sample per write: a whole feed batch framed and written (fsync excluded).", func(s *Snapshot, e *emitter) { e.hist(s.Durable.AppendLatency) }},
		{"latest_wal_fsync_latency_seconds", histogram, "WAL fsync-batch latency.", func(s *Snapshot, e *emitter) { e.hist(s.Durable.SyncLatency) }},
		{"latest_durable_state", gauge, "Degraded-mode state machine position (0 healthy, 1 degraded).", func(s *Snapshot, e *emitter) { e.sample(boolValue(s.Durable.State == DurableDegraded)) }},
		{"latest_durable_state_seconds", gauge, "Seconds in the current durability state.", func(s *Snapshot, e *emitter) { e.sample(s.Durable.StateSeconds) }},
		{"latest_durable_degradations_total", counter, "Healthy-to-degraded transitions.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.Degradations)) }},
		{"latest_durable_repair_attempts_total", counter, "Snapshot-based repair attempts while degraded.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.RepairAttempts)) }},
		{"latest_durable_repairs_total", counter, "Successful repairs (degraded back to healthy).", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.Repairs)) }},
		{"latest_durable_dropped_appends_total", counter, "Feeds not WAL-logged while degraded (durable again after the repair snapshot).", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.DroppedAppends)) }},
		{"latest_durable_wal_errors_total", counter, "Failed WAL operations (append, fsync, close, recovery truncation).", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.WALErrors)) }},
		{"latest_durable_store_errors_total", counter, "Failed store housekeeping operations.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.StoreErrors)) }},
		{"latest_durable_errors_total", counter, "All persistence errors recorded.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.ErrorsTotal)) }},
		{"latest_snapshots_total", counter, "Snapshots committed by this process.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.Snapshots)) }},
		{"latest_snapshot_errors_total", counter, "Snapshot attempts that failed (engine keeps serving).", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.SnapshotErrors)) }},
		{"latest_snapshot_generation", gauge, "Current snapshot generation.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.Generation)) }},
		{"latest_snapshot_bytes", gauge, "Serialized size of the most recent committed snapshot.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.LastSnapshotBytes)) }},
		{"latest_snapshot_duration_seconds", histogram, "Full snapshot commit latency (serialize, rename, WAL rotation).", func(s *Snapshot, e *emitter) { e.hist(s.Durable.SnapshotLatency) }},
		{"latest_recovery_seconds", gauge, "Startup restore plus WAL replay wall time.", func(s *Snapshot, e *emitter) { e.sample(s.Durable.RecoverySeconds) }},
		{"latest_recovery_wal_records", gauge, "WAL records replayed at startup.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.RecoveryWALRecords)) }},
		{"latest_recovery_truncated_bytes", gauge, "Torn-tail bytes truncated from the live WAL at startup.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.RecoveryTruncatedBytes)) }},
		{"latest_recovery_from_snapshot", gauge, "1 when startup restored from a snapshot.", func(s *Snapshot, e *emitter) { e.sample(boolValue(s.Durable.RecoveredSnapshot)) }},
		{"latest_recovery_generation", gauge, "Snapshot generation startup restored from.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Durable.RecoveredGeneration)) }},
		{"latest_recovery_fallback", gauge, "1 when recovery fell back past a corrupt newest snapshot generation.", func(s *Snapshot, e *emitter) { e.sample(boolValue(s.Durable.RecoveredFallback)) }},
	}},
	{present: func(s *Snapshot) bool { return s.Cluster != nil }, families: []family[Snapshot]{
		{"latest_cluster_epoch", gauge, "Partition-map epoch the router currently holds.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.Epoch)) }},
		{"latest_cluster_nodes", gauge, "Backend nodes in the held partition map.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.Nodes)) }},
		{"latest_cluster_cells", gauge, "Partition-map grid cells (cols x rows).", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.Cols * s.Cluster.Rows)) }},
		{"latest_cluster_feed_objects_total", counter, "Objects routed to owning nodes.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.FeedObjects)) }},
		{"latest_cluster_requests_total", counter, "Caller-visible operations by kind.",
			func(s *Snapshot, e *emitter) {
				e.sample(float64(s.Cluster.FeedBatches), "op", "feed")
				e.sample(float64(s.Cluster.Estimates), "op", "estimate")
				e.sample(float64(s.Cluster.Queries), "op", "query")
			}},
		{"latest_cluster_routing_total", counter, "Query routing decisions by mode.",
			func(s *Snapshot, e *emitter) {
				e.sample(float64(s.Cluster.ForwardSingle), "mode", "forward")
				e.sample(float64(s.Cluster.ScatterMulti), "mode", "scatter")
				e.sample(float64(s.Cluster.Broadcasts), "mode", "broadcast")
			}},
		{"latest_cluster_subqueries_total", counter, "Node-bound sub-requests issued for queries.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.Subqueries)) }},
		{"latest_cluster_not_owner_total", counter, "Not-owner refusals observed from nodes.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.NotOwner)) }},
		{"latest_cluster_map_refetches_total", counter, "Partition-map refetches.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.MapRefetches)) }},
		{"latest_cluster_retries_total", counter, "Transparent re-routes after a map refetch.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.Retries)) }},
		{"latest_cluster_node_errors_total", counter, "Hard node failures surfaced to callers.", func(s *Snapshot, e *emitter) { e.sample(float64(s.Cluster.NodeErrors)) }},
		{"latest_cluster_node_requests_total", counter, "Sub-requests per backend node.", perNode(func(n *ClusterNode) float64 { return float64(n.Requests) })},
		{"latest_cluster_node_request_errors_total", counter, "Failed sub-requests per backend node.", perNode(func(n *ClusterNode) float64 { return float64(n.Errors) })},
		{"latest_cluster_node_latency_seconds", histogram, "Router-observed round-trip latency per backend node.",
			func(s *Snapshot, e *emitter) {
				for _, n := range s.Cluster.PerNode {
					e.hist(n.Latency, "node", n.Addr)
				}
			}},
	}},
}

// runtimeFamilies is every family WriteGoRuntimeProm renders.
var runtimeFamilies = []familyGroup[GoRuntimeSample]{{families: []family[GoRuntimeSample]{
	{"latest_go_goroutines", gauge, "Live goroutine count.", func(s *GoRuntimeSample, e *emitter) { e.sample(float64(s.Goroutines)) }},
	{"latest_go_heap_bytes", gauge, "Bytes of live heap objects.", func(s *GoRuntimeSample, e *emitter) { e.sample(float64(s.HeapBytes)) }},
	{"latest_go_gc_cycles_total", counter, "Completed GC cycles.", func(s *GoRuntimeSample, e *emitter) { e.sample(float64(s.GCCycles)) }},
	{"latest_go_gc_pause_seconds", gauge, "Stop-the-world GC pause quantiles over the process lifetime.",
		func(s *GoRuntimeSample, e *emitter) {
			e.sample(s.GCPauseP50, "quantile", "0.5")
			e.sample(s.GCPauseP95, "quantile", "0.95")
			e.sample(s.GCPauseP99, "quantile", "0.99")
		}},
}}}
