package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestShardGauges(t *testing.T) {
	var g ShardGauges
	g.RecordBatch(7, 70*time.Millisecond)
	g.RecordBatch(3, 30*time.Millisecond)
	g.RecordQuery(10 * time.Millisecond)
	g.RecordQuery(30 * time.Millisecond)
	g.RecordReordered()
	g.SetWindow(42, 4200)

	s := g.Snapshot()
	if s.Feeds != 10 || s.Batches != 2 || s.Queries != 2 || s.Reordered != 1 || s.Occupancy != 42 || s.WindowBytes != 4200 {
		t.Errorf("snapshot counts = %+v", s)
	}
	if got := s.BatchLatency.Mean(); got != 50*time.Millisecond {
		t.Errorf("mean batch latency = %v", got)
	}
	if got := s.QueryLatency.Mean(); got != 20*time.Millisecond {
		t.Errorf("mean query latency = %v", got)
	}
}

func TestShardGaugesZero(t *testing.T) {
	var g ShardGauges
	s := g.Snapshot()
	if s != (GaugeSnapshot{}) {
		t.Errorf("zero gauges snapshot = %+v", s)
	}
}

// TestShardGaugesHistograms verifies the latency histograms expose
// percentiles and maxima.
func TestShardGaugesHistograms(t *testing.T) {
	var g ShardGauges
	for i := 0; i < 99; i++ {
		g.RecordQuery(100 * time.Microsecond)
	}
	g.RecordQuery(10 * time.Millisecond)
	s := g.Snapshot()
	if s.Queries != 100 {
		t.Fatalf("queries = %d", s.Queries)
	}
	if s.QueryLatency.Max != 10*time.Millisecond {
		t.Errorf("max = %v", s.QueryLatency.Max)
	}
	if p50 := s.QueryLatency.P50(); p50 > time.Millisecond {
		t.Errorf("p50 = %v, want ~100µs", p50)
	}
	if p99 := s.QueryLatency.P99(); p99 < s.QueryLatency.P50() {
		t.Errorf("p99 %v below p50", p99)
	}
}

func TestShardGaugesPrefills(t *testing.T) {
	var g ShardGauges
	g.RecordPrefill(true, 500)
	g.RecordPrefill(false, 1200)
	g.RecordPrefill(false, 1300)
	if s := g.Snapshot(); s.PrefillsDrawn != 1 || s.PrefillsReplayed != 2 || s.PrefillObjectsDrawn != 500 || s.PrefillObjectsReplayed != 2500 {
		t.Errorf("prefills drawn %d of %d objects, replayed %d of %d, want 1 of 500 and 2 of 2500",
			s.PrefillsDrawn, s.PrefillObjectsDrawn, s.PrefillsReplayed, s.PrefillObjectsReplayed)
	}
}

// TestShardGaugesConcurrent hammers the gauges from many goroutines; the
// assertions are exact because every update is atomic. Run with -race.
func TestShardGaugesConcurrent(t *testing.T) {
	var g ShardGauges
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				g.RecordBatch(1, time.Microsecond)
				g.RecordQuery(time.Microsecond)
				g.SetWindow(i, 100*i)
			}
		}()
	}
	wg.Wait()
	s := g.Snapshot()
	if s.Feeds != workers*each || s.Queries != workers*each {
		t.Errorf("feeds=%d queries=%d, want %d each", s.Feeds, s.Queries, workers*each)
	}
}
