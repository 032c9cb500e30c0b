package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	samples := []time.Duration{
		100 * time.Nanosecond, 200 * time.Nanosecond, 400 * time.Nanosecond,
		time.Microsecond, 10 * time.Microsecond, time.Millisecond,
	}
	var sum time.Duration
	for _, d := range samples {
		h.Record(d)
		sum += d
	}
	s := h.Snapshot()
	if s.Count != uint64(len(samples)) {
		t.Errorf("count = %d, want %d", s.Count, len(samples))
	}
	if s.Sum != sum {
		t.Errorf("sum = %v, want %v", s.Sum, sum)
	}
	if s.Max != time.Millisecond {
		t.Errorf("max = %v, want 1ms", s.Max)
	}
	if s.Mean() != sum/time.Duration(len(samples)) {
		t.Errorf("mean = %v", s.Mean())
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Errorf("bucket total = %d, count = %d", total, s.Count)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	var h Histogram
	h.Record(5 * time.Nanosecond) // bits.Len64(5) = 3 → bucket 3, bound 8ns
	s := h.Snapshot()
	if s.Buckets[3] != 1 {
		t.Errorf("5ns landed in %v, want bucket 3", s.Buckets)
	}
	if BucketBound(3) != 8*time.Nanosecond {
		t.Errorf("BucketBound(3) = %v, want 8ns", BucketBound(3))
	}
	// Bounds must be strictly increasing up to the catch-all.
	for i := 1; i < NumBuckets-1; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 99 samples at ~1µs, 1 sample at ~1ms: p50 must sit near 1µs and p99+
	// must reach toward the outlier's bucket.
	for i := 0; i < 99; i++ {
		h.Record(time.Microsecond)
	}
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if p50 := s.P50(); p50 < 512*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs", p50)
	}
	if p99 := s.P99(); p99 > time.Millisecond || p99 < 512*time.Nanosecond {
		t.Errorf("p99 = %v out of range", p99)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("q1 = %v, want max %v", q, s.Max)
	}
	var empty HistSnapshot
	if empty.P95() != 0 || empty.Mean() != 0 {
		t.Errorf("empty snapshot percentiles nonzero")
	}
}

func TestHistogramNegativeAndHuge(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)        // clamps to 0
	h.Record(30 * 24 * time.Hour) // beyond the last bound: catch-all
	s := h.Snapshot()
	if s.Buckets[0] != 1 {
		t.Errorf("negative sample not clamped to bucket 0: %v", s.Buckets)
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Errorf("huge sample not in catch-all: %v", s.Buckets)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Record(time.Microsecond)
		b.Record(time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != 20 {
		t.Errorf("merged count = %d", merged.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Errorf("merged sum = %v", merged.Sum)
	}
	if merged.Max != sb.Max {
		t.Errorf("merged max = %v", merged.Max)
	}
	for i := range merged.Buckets {
		if merged.Buckets[i] != sa.Buckets[i]+sb.Buckets[i] {
			t.Fatalf("bucket %d not summed", i)
		}
	}
}

// TestHistogramConcurrent hammers Record from many goroutines while a
// reader snapshots continuously. Counts are exact because every update is
// atomic. Run with -race.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, each = 8, 5000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count > workers*each {
					t.Error("count overshoot")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Errorf("count = %d, want %d", s.Count, workers*each)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Errorf("bucket total = %d, count = %d", total, s.Count)
	}
}

// BenchmarkHistogramRecord proves the hot-path claim: no allocation, a few
// atomic adds.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Nanosecond)
	}
}
