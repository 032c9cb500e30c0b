package metrics

import (
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

// ShardGauges is a set of lock-free per-shard operational counters and
// latency histograms. A sharded deployment keeps one per shard; the ingest
// and query paths update them with atomic adds (never taking the shard
// lock longer than needed), and Stats() readers take a consistent-enough
// Snapshot without stopping traffic.
//
// Latencies are kept as log-bucketed histograms (telemetry.Histogram), so
// snapshots carry p50/p95/p99/max — not just lifetime means.
type ShardGauges struct {
	feeds         atomic.Uint64
	reordered     atomic.Uint64
	occupancy     atomic.Int64
	windowBytes   atomic.Int64
	prefillDraw   atomic.Uint64
	prefillReplay atomic.Uint64
	drawnObjs     atomic.Uint64
	replayedObjs  atomic.Uint64

	validationRejected atomic.Uint64
	validationClamped  atomic.Uint64

	// ingestRate is the rolling per-second feed rate, merged from its ring
	// only at read time.
	ingestRate RollingCounter

	batchHist telemetry.Histogram // whole FeedBatch calls
	queryHist telemetry.Histogram // estimate/execute cycles
}

// RecordBatch counts one ingested batch of n objects and its duration.
func (g *ShardGauges) RecordBatch(n int, d time.Duration) {
	g.feeds.Add(uint64(n))
	g.ingestRate.Add(time.Now(), n)
	g.batchHist.Record(d)
}

// RecordQuery counts one estimate/execute cycle and its duration.
func (g *ShardGauges) RecordQuery(d time.Duration) { g.queryHist.Record(d) }

// RecordPrefill counts one estimator pre-fill, run on the query that asked
// for it, and the objects it read from the window: drawn when a sampler
// drew its sample, else replayed.
func (g *ShardGauges) RecordPrefill(drawn bool, objects int) {
	if drawn {
		g.prefillDraw.Add(1)
		g.drawnObjs.Add(uint64(objects))
	} else {
		g.prefillReplay.Add(1)
		g.replayedObjs.Add(uint64(objects))
	}
}

// RecordReordered counts an object whose timestamp had to be clamped to
// the shard's high-water mark (out-of-order arrival across producers).
func (g *ShardGauges) RecordReordered() { g.reordered.Add(1) }

// RecordValidationRejected counts one object or query refused by the input
// validation policy (NaN/Inf coordinates, unrepairable geometry, or any
// non-conforming input under the strict policy).
func (g *ShardGauges) RecordValidationRejected() { g.validationRejected.Add(1) }

// RecordValidationClamped counts one object or query the clamp policy
// repaired in place (coordinates pulled into the world, inverted rectangle
// corners swapped, regressed timestamp clamped forward).
func (g *ShardGauges) RecordValidationClamped() { g.validationClamped.Add(1) }

// SetWindow publishes the shard's live window size and the window store's
// footprint in bytes.
func (g *ShardGauges) SetWindow(objs, bytes int) {
	g.occupancy.Store(int64(objs))
	g.windowBytes.Store(int64(bytes))
}

// GaugeSnapshot is a point-in-time copy of a shard's gauges. It is a plain
// comparable value (the histograms use fixed-size bucket arrays).
type GaugeSnapshot struct {
	// Feeds is the lifetime ingested-object count.
	Feeds uint64
	// Batches is the lifetime ingested-batch count.
	Batches uint64
	// Queries is the lifetime estimate/execute count.
	Queries uint64
	// Reordered counts objects whose timestamps were clamped forward.
	Reordered uint64
	// PrefillsDrawn counts estimator pre-fills a sampler drew from the
	// window and PrefillsReplayed those that replayed it; both run on the
	// query path. PrefillObjectsDrawn and PrefillObjectsReplayed count the
	// objects those pre-fills read.
	PrefillsDrawn          uint64
	PrefillsReplayed       uint64
	PrefillObjectsDrawn    uint64
	PrefillObjectsReplayed uint64
	// ValidationRejected counts inputs refused by the validation policy and
	// ValidationClamped inputs it repaired in place.
	ValidationRejected uint64
	ValidationClamped  uint64
	// IngestRatePerSec is the trailing mean feed rate (objects/second over
	// the last RollingWindowSeconds completed seconds).
	IngestRatePerSec float64
	// IngestBackpressure is always zero: feeds apply on the caller, so no
	// hand-off ever finds a queue full.
	//
	// Deprecated: nothing sets it; stop reading it.
	IngestBackpressure uint64
	// AvgBatchLatency is the mean wall-clock duration per ingested batch,
	// kept for dashboards that want a single number (derived from the
	// histogram).
	AvgBatchLatency time.Duration
	// AvgQueryLatency is the mean wall-clock duration per query.
	AvgQueryLatency time.Duration
	// Occupancy is the last published live window size.
	Occupancy int
	// WindowBytes is the last published footprint of the window store.
	WindowBytes int
	// BatchLatency holds per-batch ingest latencies and QueryLatency full
	// estimate/execute cycles.
	BatchLatency telemetry.HistSnapshot
	QueryLatency telemetry.HistSnapshot
}

// Snapshot reads the gauges. Each field is read atomically; fields are not
// mutually consistent under concurrent updates, which is fine for
// monitoring.
func (g *ShardGauges) Snapshot() GaugeSnapshot {
	s := GaugeSnapshot{
		Feeds:                  g.feeds.Load(),
		Reordered:              g.reordered.Load(),
		PrefillsDrawn:          g.prefillDraw.Load(),
		PrefillsReplayed:       g.prefillReplay.Load(),
		PrefillObjectsDrawn:    g.drawnObjs.Load(),
		PrefillObjectsReplayed: g.replayedObjs.Load(),
		ValidationRejected:     g.validationRejected.Load(),
		ValidationClamped:      g.validationClamped.Load(),
		IngestRatePerSec:       g.ingestRate.RateAt(time.Now()),
		Occupancy:              int(g.occupancy.Load()),
		WindowBytes:            int(g.windowBytes.Load()),
		BatchLatency:           g.batchHist.Snapshot(),
		QueryLatency:           g.queryHist.Snapshot(),
	}
	s.Batches = s.BatchLatency.Count
	s.Queries = s.QueryLatency.Count
	s.AvgBatchLatency = s.BatchLatency.Mean()
	s.AvgQueryLatency = s.QueryLatency.Mean()
	return s
}
