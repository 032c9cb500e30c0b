package latest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// shard_stress_test.go hammers the shards' inline ingest with concurrent
// producers and verifies the one invariant that matters for a
// partitioned exact store: every object fed is applied to exactly one
// shard — none lost, none duplicated — no matter how feeds, batches,
// queries and shutdowns interleave. The suite runs under -race in the CI
// chaos job (test names carry the ShardStress marker the job greps for).

// stressFeed drives one producer's share of the workload with randomized
// batch sizes, from one object to 97.
func stressFeed(s *ShardedSystem, objs []Object, rng *rand.Rand) {
	for len(objs) > 0 {
		n := min(1+rng.Intn(97), len(objs))
		batch := make([]Object, n)
		// Producers own their slices; copy so FeedBatch's caller-reuse
		// contract is exercised with a buffer we immediately re-append
		// to on the next iteration.
		copy(batch, objs[:n])
		s.FeedBatch(batch)
		objs = objs[n:]
	}
}

// stressCheckIntegrity asserts the zero-lost/zero-duplicated invariant
// once every producer has returned: window occupancy (global and
// per-shard), the per-shard feed gauges, and a full-world exact count must
// all equal total.
func stressCheckIntegrity(t *testing.T, s *ShardedSystem, total int, maxTS int64) {
	t.Helper()
	if got := s.WindowSize(); got != total {
		t.Errorf("WindowSize = %d, want %d", got, total)
	}
	st := s.PerShardStats()
	occ, feeds := 0, uint64(0)
	for _, sh := range st.Shards {
		occ += sh.WindowSize
		feeds += sh.Gauges.Feeds
	}
	if occ != total {
		t.Errorf("per-shard occupancy sums to %d, want %d", occ, total)
	}
	if feeds != uint64(total) {
		t.Errorf("per-shard feed gauges sum to %d, want %d", feeds, total)
	}
	q := SpatialQuery(testWorld(), maxTS)
	if _, actual := s.EstimateAndExecute(&q); actual != total {
		t.Errorf("full-world exact count = %d, want %d", actual, total)
	}
}

// TestShardStressIngestIntegrity: N producers × M shards, randomized batch
// sizes, no object lost or duplicated.
func TestShardStressIngestIntegrity(t *testing.T) {
	perProducer := 4000
	if testing.Short() {
		perProducer = 1000
	}
	const producers = 4
	for _, shards := range []int{1, 2, 4, 6} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := MustNewSharded(testWorld(), time.Hour,
				WithSeed(7), WithShards(shards))
			defer s.Shutdown(context.Background())
			objs := shardWorkload(int64(100+shards), producers*perProducer)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000*shards + p)))
					stressFeed(s, objs[p*perProducer:(p+1)*perProducer], rng)
				}(p)
			}
			wg.Wait()
			stressCheckIntegrity(t, s, producers*perProducer, int64(len(objs)+1))
		})
	}
}

// TestShardStressFeedQueryRace runs producers, queriers and stats scrapers
// concurrently: nothing may race (the -race build checks), and the ingest
// invariant must hold once the dust settles.
func TestShardStressFeedQueryRace(t *testing.T) {
	perProducer := 3000
	if testing.Short() {
		perProducer = 800
	}
	const producers = 3
	s := MustNewSharded(testWorld(), time.Hour,
		WithSeed(8), WithShards(4))
	defer s.Shutdown(context.Background())
	objs := shardWorkload(42, producers*perProducer)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7700 + p)))
			stressFeed(s, objs[p*perProducer:(p+1)*perProducer], rng)
		}(p)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			qs := shardQueries(int64(q), 64, int64(len(objs)))
			for i := 0; ; i = (i + 1) % len(qs) {
				select {
				case <-stop:
					return
				default:
				}
				qq := qs[i]
				s.EstimateAndExecute(&qq)
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Stats()
			s.TelemetrySnapshot()
			s.WindowSize()
		}
	}()

	// Wait for producers by polling window size up to a deadline, then
	// stop the readers and check integrity.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(2 * time.Minute)
	for {
		if s.WindowSize() == len(objs) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("producers did not finish: window=%d want %d", s.WindowSize(), len(objs))
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	stressCheckIntegrity(t, s, len(objs), int64(len(objs)+1))
}

// TestShardStressShutdownDuringFeeds shuts the engine down while producers
// are mid-flight: feeds before and after Shutdown must apply without
// panicking, and the surviving state must stay internally consistent
// (per-shard occupancy sums to the global window, nothing duplicated).
func TestShardStressShutdownDuringFeeds(t *testing.T) {
	const producers, perProducer = 4, 2000
	s := MustNewSharded(testWorld(), time.Hour,
		WithSeed(10), WithShards(3))
	objs := shardWorkload(44, producers*perProducer)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9900 + p)))
			stressFeed(s, objs[p*perProducer:(p+1)*perProducer], rng)
		}(p)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	wg.Wait()
	// Every feed call returned, so the full workload must be present
	// exactly once.
	stressCheckIntegrity(t, s, producers*perProducer, int64(len(objs)+1))
}
