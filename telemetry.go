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
// a telemetry.ShardSample.
func shardSample(index int, st Stats, g metrics.GaugeSnapshot) telemetry.ShardSample {
	return telemetry.ShardSample{
		Index:                  index,
		Active:                 st.Active,
		Phase:                  st.Phase.String(),
		Feeds:                  g.Feeds,
		Batches:                g.Batches,
		Queries:                g.Queries,
		Reordered:              g.Reordered,
		PrefillsDrawn:          g.PrefillsDrawn,
		PrefillsReplayed:       g.PrefillsReplayed,
		PrefillObjectsDrawn:    g.PrefillObjectsDrawn,
		PrefillObjectsReplayed: g.PrefillObjectsReplayed,
		Occupancy:              g.Occupancy,
		WindowBytes:            g.WindowBytes,
		Switches:               st.Switches,
		PrefillsStarted:        st.PrefillsStarted,
		PrefillsAdopted:        st.PrefillsAdopted,
		ValidationRejected:     g.ValidationRejected,
		ValidationClamped:      g.ValidationClamped,
		IngestRatePerSec:       g.IngestRatePerSec,
		Sanitized:              st.Sanitized,
		AccuracyAvg:            st.AccuracyAvg,
		AccuracySamples:        st.AccuracySamples,
		MemoryBytes:            st.MemoryBytes,
		Batch:                  g.BatchLatency,
		Query:                  g.QueryLatency,
		Estimate:               st.EstimateLatency,
	}
}

// telemetryReport builds the /statusz view of an engine from its merged
// module view and its per-shard slices.
func telemetryReport(engine string, merged Stats, shards []ShardStats) telemetry.Snapshot {
	snap := telemetry.Snapshot{
		Engine:      engine,
		Phase:       merged.Phase.String(),
		Active:      merged.Active,
		Switches:    merged.Switches,
		AccuracyAvg: merged.AccuracyAvg,
		MemoryBytes: merged.MemoryBytes,
		Shards:      make([]telemetry.ShardSample, len(shards)),
		Decisions:   merged.Decisions,
		QError:      merged.QError,
	}
	for i, sh := range shards {
		snap.Shards[i] = shardSample(sh.Index, sh.Core, sh.Gauges)
		snap.WindowSize += sh.WindowSize
		snap.WindowBytes += sh.Gauges.WindowBytes
	}
	return snap
}

// TelemetrySnapshot returns the same point-in-time view the /statusz
// endpoint serves: per-shard samples plus the merged module view, each
// shard's lock taken briefly in turn. Exported so an external scrape source
// — the serving layer's admin plane, an embedding application's own
// exposition server — can publish an engine built without WithTelemetry.
func (s *ShardedSystem) TelemetrySnapshot() telemetry.Snapshot {
	st := s.PerShardStats()
	return telemetryReport("sharded", st.Merged, st.Shards)
}
