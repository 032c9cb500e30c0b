package telemetry

import "runtime/metrics"

// runtime.go exports Go runtime health — goroutine count, live heap bytes,
// GC cycle count and GC pause quantiles — via the runtime/metrics API, so
// serving-path tail latency can be correlated with GC activity from the
// same /metrics scrape. The collection is read live per scrape by
// handleMetrics and deliberately kept OUT of WriteProm: the snapshot
// renderer stays a pure function of its Snapshot argument (golden-testable
// byte for byte), while runtime state is inherently nondeterministic.

// runtime/metrics names probed at init. The GC pause histogram moved from
// /gc/pauses:seconds to /sched/pauses/total/gc:seconds in Go 1.22; both are
// tried so the collector degrades gracefully across toolchains.
var (
	goroutinesMetric = "/sched/goroutines:goroutines"
	heapMetric       = "/memory/classes/heap/objects:bytes"
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
	gcPauseMetrics   = []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}
)

// GoRuntimeSample is one reading of the process's runtime health.
type GoRuntimeSample struct {
	// Goroutines is the live goroutine count.
	Goroutines uint64 `json:"goroutines"`
	// HeapBytes is the bytes of live heap objects.
	HeapBytes uint64 `json:"heap_bytes"`
	// GCCycles counts completed GC cycles.
	GCCycles uint64 `json:"gc_cycles"`
	// GCPauseP50/P95/P99 are stop-the-world pause quantiles in seconds over
	// the process lifetime (0 when the toolchain exposes no pause
	// histogram or no GC has run).
	GCPauseP50 float64 `json:"gc_pause_p50"`
	GCPauseP95 float64 `json:"gc_pause_p95"`
	GCPauseP99 float64 `json:"gc_pause_p99"`
}

// ReadGoRuntime samples the runtime. Cheap enough for per-scrape use.
func ReadGoRuntime() GoRuntimeSample {
	names := []string{goroutinesMetric, heapMetric, gcCyclesMetric}
	names = append(names, gcPauseMetrics...)
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)

	var out GoRuntimeSample
	u64 := func(s metrics.Sample) uint64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return s.Value.Uint64()
		}
		return 0
	}
	out.Goroutines = u64(samples[0])
	out.HeapBytes = u64(samples[1])
	out.GCCycles = u64(samples[2])
	for _, s := range samples[3:] {
		if s.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		h := s.Value.Float64Histogram()
		out.GCPauseP50 = histQuantile(h, 0.50)
		out.GCPauseP95 = histQuantile(h, 0.95)
		out.GCPauseP99 = histQuantile(h, 0.99)
		break
	}
	return out
}

// histQuantile estimates the q-quantile of a runtime/metrics histogram by
// linear interpolation within the containing bucket; 0 when empty.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if c > 0 && rank <= next {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			// The first/last runtime buckets can be infinite; collapse to
			// the finite edge.
			if lo < 0 || lo != lo || lo < h.Buckets[0] {
				lo = 0
			}
			if hi > 1e9 || hi != hi { // +Inf catch-all
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.Buckets[len(h.Buckets)-1]
}
