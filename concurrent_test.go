package latest

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestConcurrentBasics(t *testing.T) {
	cs, err := NewConcurrent(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithPretrainQueries(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConcurrent(Rect{}, 0); err == nil {
		t.Error("bad world/window accepted")
	}
	rng := rand.New(rand.NewSource(1))
	ts := int64(0)
	for i := 0; i < 2000; i++ {
		ts++
		cs.FeedBatch([]Object{{ID: uint64(i), Loc: Pt(rng.Float64(), rng.Float64()),
			Keywords: []string{"a"}, Timestamp: ts}})
	}
	q := HybridQuery(CenteredRect(Pt(0.5, 0.5), 0.4, 0.4), []string{"a"}, ts)
	est, actual := cs.EstimateAndExecute(&q)
	if est < 0 || actual <= 0 {
		t.Errorf("est %v actual %d", est, actual)
	}
	if cs.WindowSize() == 0 || cs.ActiveEstimators()[0] == "" {
		t.Error("accessors broken")
	}
	if cs.Phase() != PhasePretrain {
		t.Errorf("phase = %v", cs.Phase())
	}
	if len(cs.Switches()) != 0 {
		t.Errorf("switches = %v", cs.Switches())
	}
	if cs.Stats().TrainingRecords == 0 {
		t.Error("no training records")
	}
}

// newConcurrent builds NewConcurrent's engine or fails the test.
func newConcurrent(t testing.TB, world Rect, window time.Duration, opts ...Option) *ShardedSystem {
	t.Helper()
	s, err := NewConcurrent(world, window, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentIsInline checks that every engine ingests inline:
// NewConcurrent and NewSharded start no goroutine, and with one shard a
// FeedBatch of one object or of 64 applies on the caller under the shard's
// mutex without copying the batch — it allocates exactly what New's engine does for the same
// objects.
func TestConcurrentIsInline(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	const window = 50 * time.Millisecond
	allocs := func(eng Engine) (feed, feedBatch float64) {
		objs := make([]Object, 64)
		for i := range objs {
			objs[i] = Object{ID: uint64(i), Loc: Pt(float64(i)/64, 0.5), Keywords: []string{"a"}}
		}
		var ts int64
		batch := func() {
			ts++
			for i := range objs {
				objs[i].Timestamp = ts
			}
			eng.FeedBatch(objs)
		}
		for i := 0; i < 500; i++ { // turn the 50 ms window over: steady state
			batch()
		}
		feedBatch = testing.AllocsPerRun(200, batch)
		feed = testing.AllocsPerRun(200, func() {
			ts++
			objs[0].Timestamp = ts
			eng.FeedBatch(objs[:1])
		})
		return feed, feedBatch
	}
	sysFeed, sysBatch := allocs(MustNew(world, window, WithSeed(1)))
	for _, tc := range []struct {
		name  string
		build func() Engine
	}{
		{"NewConcurrent", func() Engine { return newConcurrent(t, world, window, WithSeed(1)) }},
		{"NewSharded1", func() Engine { return MustNewSharded(world, window, WithSeed(1), WithShards(1)) }},
		{"NewSharded4", func() Engine { return MustNewSharded(world, window, WithSeed(1), WithShards(4)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng := tc.build()
			defer eng.Shutdown(context.Background())
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("construction raised the goroutine count from %d to %d", before, after)
			}
			if eng.(interface{ NumShards() int }).NumShards() != 1 {
				return
			}
			feed, batch := allocs(eng)
			if feed != sysFeed || batch != sysBatch {
				t.Errorf("allocations per call: FeedBatch of 1 %v, of 64 %v; New's %v and %v",
					feed, batch, sysFeed, sysBatch)
			}
		})
	}
}

// TestConcurrentSystemScrape: a System built WithTelemetry is scraped while
// traffic flows. One goroutine feeds and queries it — through the split
// calls and the fused one — while the test goroutine reads
// TelemetrySnapshot and /statusz; run with -race.
func TestConcurrentSystemScrape(t *testing.T) {
	sys, err := New(testWorld(), time.Minute, WithSeed(4),
		WithPretrainQueries(40), WithAccWindow(20), WithTelemetry("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	objs := shardWorkload(9, 6000)
	qs := shardQueries(10, len(objs)/25, objs[len(objs)-1].Timestamp)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range objs {
			sys.FeedBatch(objs[i : i+1])
			if i%25 != 0 {
				continue
			}
			q := qs[i/25]
			if i%50 == 0 {
				sys.Estimate(&q)
				sys.Execute(&q)
			} else {
				sys.EstimateAndExecute(&q)
			}
		}
	}()
	scrapes := 0
	for running := true; running; scrapes++ {
		select {
		case <-done:
			running = false
		default:
		}
		_ = sys.TelemetrySnapshot()
		telemetryGet(t, sys.TelemetryAddr(), "/statusz")
	}
	snap := sys.TelemetrySnapshot()
	if snap.WindowSize != len(objs) || snap.Shards[0].Feeds != uint64(len(objs)) {
		t.Errorf("after %d scrapes: window %d, feeds %d; want %d each",
			scrapes, snap.WindowSize, snap.Shards[0].Feeds, len(objs))
	}
	if st := sys.Stats(); st.PretrainSeen+st.IncrementalSeen != len(qs) {
		t.Errorf("module saw %d queries, want %d", st.PretrainSeen+st.IncrementalSeen, len(qs))
	}
}

// TestConcurrentParallel hammers the engine from many goroutines;
// run with -race to verify the locking. One producer owns the clock (the
// stream contract requires non-decreasing timestamps); many consumers
// query concurrently.
func TestConcurrentParallel(t *testing.T) {
	cs, err := NewConcurrent(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithPretrainQueries(50), WithAccWindow(30), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	// Seed data first so queries see a populated window.
	rng := rand.New(rand.NewSource(2))
	var clock int64
	for i := 0; i < 5000; i++ {
		clock++
		cs.FeedBatch([]Object{{ID: uint64(i), Loc: Pt(rng.Float64(), rng.Float64()),
			Keywords: []string{fmt.Sprintf("kw%d", i%10)}, Timestamp: clock}})
	}

	stop := make(chan struct{})
	var producer sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		prng := rand.New(rand.NewSource(3))
		var localClock int64 = clock
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			localClock++
			cs.FeedBatch([]Object{{ID: uint64(10000 + i), Loc: Pt(prng.Float64(), prng.Float64()),
				Keywords: []string{fmt.Sprintf("kw%d", i%10)}, Timestamp: localClock}})
		}
	}()

	var queriers sync.WaitGroup
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(seed int64) {
			defer queriers.Done()
			qrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				// Query at the already-seeded clock: older than live feeds,
				// but within the window — valid and race-free.
				q := HybridQuery(
					CenteredRect(Pt(qrng.Float64(), qrng.Float64()), 0.3, 0.3),
					[]string{fmt.Sprintf("kw%d", qrng.Intn(10))},
					clock)
				est, _ := cs.EstimateAndExecute(&q)
				if est < 0 {
					t.Errorf("negative estimate %v", est)
					return
				}
				_ = cs.Stats()
			}
		}(int64(10 + g))
	}
	queriers.Wait()
	close(stop)
	producer.Wait()

	// Tree records can reset on a drift retrain; the query counters are the
	// stable invariant.
	st := cs.Stats()
	if st.PretrainSeen != 50 || st.IncrementalSeen != 800-50 {
		t.Errorf("query accounting: pretrain=%d incremental=%d", st.PretrainSeen, st.IncrementalSeen)
	}
}

// TestConcurrentMultiProducer runs several batch producers at once.
// Producer interleavings inevitably present regressed timestamps; the
// shard clamps them to its high-water mark instead of letting the window
// store panic. Run with -race.
func TestConcurrentMultiProducer(t *testing.T) {
	cs, err := NewConcurrent(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, time.Minute,
		WithPretrainQueries(50), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const producers, batches, batchLen = 4, 25, 40
	var clock int64
	var mu sync.Mutex
	nextTS := func() int64 { mu.Lock(); clock++; ts := clock; mu.Unlock(); return ts }

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				batch := make([]Object, batchLen)
				for i := range batch {
					ts := nextTS()
					batch[i] = Object{ID: uint64(ts), Loc: Pt(prng.Float64(), prng.Float64()),
						Keywords: []string{"kw"}, Timestamp: ts}
				}
				// Sleep-free jitter: interleave batches of one with whole
				// batches.
				if b%5 == 0 {
					for i := range batch {
						cs.FeedBatch(batch[i : i+1])
					}
				} else {
					cs.FeedBatch(batch)
				}
			}
		}(int64(40 + p))
	}
	wg.Wait()

	want := producers * batches * batchLen
	if got := cs.WindowSize(); got != want {
		t.Fatalf("window holds %d objects, want %d", got, want)
	}
	qs := []Query{
		KeywordQuery([]string{"kw"}, clock),
		SpatialQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, clock),
	}
	for i := range qs {
		if _, act := cs.EstimateAndExecute(&qs[i]); act != want {
			t.Errorf("query %d: exact count %d, want %d", i, act, want)
		}
	}
}
