package core

import (
	"slices"
	"sort"
	"strings"

	"github.com/spatiotext/latest/internal/telemetry"
)

// MergeStats folds per-shard module snapshots into one system-level Stats.
// A sharded deployment runs one Module per spatial shard; operators want a
// single dashboard row, so counters sum, the lifecycle phase is the
// earliest any shard is in (the system is not incremental until every
// shard is), and the accuracy average weighs each shard by its window's
// live length, so a shard whose window was just emptied adds nothing.
// Estimation-latency histograms merge bucket-wise (log bucketing commutes
// with summation, so the merged percentiles describe the whole system's
// distribution), per-estimator q-error merges weighted by observation
// count, and the decision traces interleave by wall time keeping the most
// recent telemetry.DefaultTraceDepth.
func MergeStats(parts []Stats) Stats {
	if len(parts) == 0 {
		return Stats{}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	out := Stats{Phase: parts[0].Phase, Sanitized: make(map[string]uint64, len(parts[0].Sanitized))}
	var accWeighted float64
	actives := make([]string, 0, len(parts))
	prefills := make([]string, 0, len(parts))
	qerrIdx := make(map[string]int)
	qerrWeighted := make([]float64, 0, 8)
	for _, p := range parts {
		if p.Phase < out.Phase {
			out.Phase = p.Phase
		}
		if !slices.Contains(actives, p.Active) {
			actives = append(actives, p.Active)
		}
		if p.Prefilling != "" && !slices.Contains(prefills, p.Prefilling) {
			prefills = append(prefills, p.Prefilling)
		}
		out.PretrainSeen += p.PretrainSeen
		out.IncrementalSeen += p.IncrementalSeen
		out.Switches += p.Switches
		out.PrefillsStarted += p.PrefillsStarted
		out.PrefillsAdopted += p.PrefillsAdopted
		out.TrainingRecords += p.TrainingRecords
		out.TreeNodes += p.TreeNodes
		out.TreeSplits += p.TreeSplits
		out.MemoryBytes += p.MemoryBytes
		accWeighted += p.AccuracyAvg * float64(p.AccuracySamples)
		out.AccuracySamples += p.AccuracySamples
		out.EstimateLatency.Merge(p.EstimateLatency)
		for _, qe := range p.QError {
			i, ok := qerrIdx[qe.Estimator]
			if !ok {
				i = len(out.QError)
				qerrIdx[qe.Estimator] = i
				out.QError = append(out.QError, telemetry.QErrorSample{Estimator: qe.Estimator})
				qerrWeighted = append(qerrWeighted, 0)
			}
			out.QError[i].Samples += qe.Samples
			qerrWeighted[i] += qe.QError * float64(qe.Samples)
		}
		out.Decisions = append(out.Decisions, p.Decisions...)
		for name, n := range p.Sanitized {
			out.Sanitized[name] += n
		}
	}
	out.Active = strings.Join(actives, ",")
	out.Prefilling = strings.Join(prefills, ",")
	if out.AccuracySamples > 0 {
		out.AccuracyAvg = accWeighted / float64(out.AccuracySamples)
	}
	for i := range out.QError {
		if out.QError[i].Samples > 0 {
			out.QError[i].QError = qerrWeighted[i] / float64(out.QError[i].Samples)
		}
	}
	sort.SliceStable(out.Decisions, func(i, j int) bool {
		return out.Decisions[i].WallTime < out.Decisions[j].WallTime
	})
	if n := len(out.Decisions); n > telemetry.DefaultTraceDepth {
		out.Decisions = out.Decisions[n-telemetry.DefaultTraceDepth:]
	}
	return out
}
