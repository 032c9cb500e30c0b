package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestShardGauges(t *testing.T) {
	var g ShardGauges
	for range 3 {
		g.RecordFeed()
	}
	g.RecordBatch(7, 70*time.Millisecond)
	g.RecordBatch(3, 30*time.Millisecond)
	g.RecordQuery(10 * time.Millisecond)
	g.RecordQuery(30 * time.Millisecond)
	g.RecordReordered()
	g.SetWindow(42, 4200)

	s := g.Snapshot()
	if s.Feeds != 13 || s.Batches != 2 || s.Queries != 2 || s.Reordered != 1 || s.Occupancy != 42 || s.WindowBytes != 4200 {
		t.Errorf("snapshot counts = %+v", s)
	}
	if s.AvgBatchLatency != 50*time.Millisecond {
		t.Errorf("avg batch latency = %v", s.AvgBatchLatency)
	}
	if s.AvgQueryLatency != 20*time.Millisecond {
		t.Errorf("avg query latency = %v", s.AvgQueryLatency)
	}
}

func TestShardGaugesZero(t *testing.T) {
	var g ShardGauges
	s := g.Snapshot()
	if s != (GaugeSnapshot{}) {
		t.Errorf("zero gauges snapshot = %+v", s)
	}
}

// TestShardGaugesFeedSampling verifies the 1-in-N single-feed sampling
// cadence rides the feed counter exactly.
func TestShardGaugesFeedSampling(t *testing.T) {
	var g ShardGauges
	sampled := 0
	const n = 4 * FeedSampleInterval
	for i := 0; i < n; i++ {
		if g.RecordFeed() {
			sampled++
			g.RecordFeedLatency(time.Microsecond)
		}
	}
	if sampled != n/FeedSampleInterval {
		t.Errorf("sampled %d of %d feeds, want %d", sampled, n, n/FeedSampleInterval)
	}
	s := g.Snapshot()
	if s.Feeds != n {
		t.Errorf("feeds = %d, want %d", s.Feeds, n)
	}
	if s.FeedLatency.Count != uint64(sampled) {
		t.Errorf("feed histogram count = %d, want %d", s.FeedLatency.Count, sampled)
	}
}

// TestShardGaugesHistograms verifies the latency histograms behind the
// derived averages expose percentiles and maxima.
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
	g.RecordPrefill()
	g.RecordPrefill()
	if s := g.Snapshot(); s.PrefillsInline != 2 {
		t.Errorf("prefills = %d, want 2", s.PrefillsInline)
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
				g.RecordFeed()
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
