package latest

import (
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/telemetry"
)

// This file adapts engine snapshots into the telemetry exposition types.
// The telemetry server itself lives in internal/telemetry; the builders
// here are what a WithTelemetry-enabled engine hands it as the scrape
// source.

// shardSample flattens one module's stats plus its operational gauges into
// a telemetry.ShardSample. A monolithic engine reports itself as shard 0.
func shardSample(index int, st Stats, g metrics.GaugeSnapshot) telemetry.ShardSample {
	return telemetry.ShardSample{
		Index:              index,
		Active:             st.Active,
		Phase:              st.Phase.String(),
		Feeds:              g.Feeds,
		Batches:            g.Batches,
		Queries:            g.Queries,
		Reordered:          g.Reordered,
		PrefillsInline:     g.PrefillsInline,
		Occupancy:          g.Occupancy,
		WindowBytes:        g.WindowBytes,
		Switches:           st.Switches,
		ValidationRejected: g.ValidationRejected,
		ValidationClamped:  g.ValidationClamped,
		IngestRatePerSec:   g.IngestRatePerSec,
		Resilience:         st.Resilience,
		AccuracyAvg:        st.AccuracyAvg,
		MemoryBytes:        st.MemoryBytes,
		Feed:               g.FeedLatency,
		Batch:              g.BatchLatency,
		Query:              g.QueryLatency,
		Estimate:           st.EstimateLatency,
	}
}

// TelemetrySnapshot returns the /statusz view of a single-goroutine
// System, reporting itself as shard 0 of a one-shard engine. Unlike the
// concurrent shapes it must not be called while another goroutine drives
// traffic — System's general concurrency contract. In -race builds that
// contract is enforced: a scrape overlapping any other System method
// panics immediately, naming the violation, instead of leaving it to the
// race detector's sampling. Scrape a System from the goroutine that owns
// it, or wrap the engine with NewConcurrent / NewSharded.
func (s *System) TelemetrySnapshot() telemetry.Snapshot {
	st := s.Stats()
	g := s.gauges.Snapshot()
	return telemetry.Snapshot{
		Engine:      "system",
		Phase:       st.Phase.String(),
		Active:      st.Active,
		Switches:    st.Switches,
		AccuracyAvg: st.AccuracyAvg,
		MemoryBytes: st.MemoryBytes,
		WindowSize:  s.WindowSize(),
		WindowBytes: g.WindowBytes,
		Shards:      []telemetry.ShardSample{shardSample(0, st, g)},
		Decisions:   st.Decisions,
		QError:      st.QError,
		Drift:       st.Drift,
		Resilience:  st.Resilience,
	}
}

// TelemetrySnapshot returns the same point-in-time view the /statusz
// endpoint serves: per-shard samples plus the merged module view, each
// shard's lock taken briefly in turn. Exported so an external scrape source
// — the serving layer's admin plane, an embedding application's own
// exposition server — can publish an engine built without WithTelemetry.
func (s *ShardedSystem) TelemetrySnapshot() telemetry.Snapshot {
	st := s.PerShardStats()
	snap := telemetry.Snapshot{
		Engine:      s.engine,
		Phase:       st.Merged.Phase.String(),
		Active:      st.Merged.Active,
		Switches:    st.Merged.Switches,
		AccuracyAvg: st.Merged.AccuracyAvg,
		MemoryBytes: st.Merged.MemoryBytes,
		Shards:      make([]telemetry.ShardSample, len(st.Shards)),
		Decisions:   st.Merged.Decisions,
		QError:      st.Merged.QError,
		Drift:       st.Merged.Drift,
		Resilience:  st.Merged.Resilience,
	}
	for i, sh := range st.Shards {
		snap.Shards[i] = shardSample(sh.Index, sh.Core, sh.Gauges)
		snap.WindowSize += sh.WindowSize
		snap.WindowBytes += sh.Gauges.WindowBytes
	}
	return snap
}
