package latest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func testWorld() Rect { return Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1} }

func shardWorkload(seed int64, n int) []Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{
			ID:        uint64(i + 1),
			Loc:       Pt(rng.Float64(), rng.Float64()),
			Keywords:  []string{fmt.Sprintf("kw%d", rng.Intn(20))},
			Timestamp: int64(i + 1),
		}
	}
	return objs
}

func shardQueries(seed int64, n int, ts int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, n)
	for i := range qs {
		area := CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.3, 0.3)
		switch i % 3 {
		case 0:
			qs[i] = SpatialQuery(area, ts)
		case 1:
			qs[i] = KeywordQuery([]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		default:
			qs[i] = HybridQuery(area, []string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
		}
	}
	return qs
}

func TestShardedRejectsBadConfig(t *testing.T) {
	if _, err := NewSharded(testWorld(), 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSharded(Rect{}, time.Second); err == nil {
		t.Error("empty world accepted")
	}
	if _, err := NewSharded(testWorld(), time.Second, WithShards(-1)); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestShardedPartition pins the grid construction: shards tile the world
// with exact outer edges, and routing agrees with the shard rectangles.
func TestShardedPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 7, 8, 12} {
		s, err := NewSharded(testWorld(), time.Minute, WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		rects := s.ShardRects()
		if len(rects) != n || s.NumShards() != n {
			t.Fatalf("shards=%d, want %d", len(rects), n)
		}
		var area float64
		for _, r := range rects {
			area += r.Area()
		}
		if diff := area - testWorld().Area(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("n=%d: shard areas sum to %v, want %v", n, area, testWorld().Area())
		}
		if n == 1 && rects[0] != testWorld() {
			t.Errorf("1-shard rect = %v, want world", rects[0])
		}
		// Routing must land every point inside its shard's rectangle —
		// including boundary and out-of-world points.
		rng := rand.New(rand.NewSource(int64(n)))
		probe := func(p Point) {
			si := s.shardOf(p)
			r := rects[si]
			in := testWorld().Contains(p)
			if in && !r.Contains(p) {
				t.Fatalf("n=%d: point %v routed to shard %d rect %v which excludes it", n, p, si, r)
			}
		}
		for i := 0; i < 2000; i++ {
			probe(Pt(rng.Float64(), rng.Float64()))
		}
		for _, r := range rects {
			probe(Pt(r.MinX, r.MinY))
			probe(r.Center())
		}
		probe(Pt(-5, -5))
		probe(Pt(5, 5))
		s.Shutdown(context.Background())
	}
}

// TestShardRectsKeepTheirBits: the shard rectangles of the embedded
// layouts — 1, 2 and 4 shards on the dataset and unit worlds — are
// lo + (hi-lo)·i/n bit for bit, the rectangles the stored snapshot images
// and the seeded benchmark runs were made with.
func TestShardRectsKeepTheirBits(t *testing.T) {
	edge := func(lo, hi float64, i, n int) float64 {
		if i == n {
			return hi
		}
		return lo + (hi-lo)*float64(i)/float64(n)
	}
	conus := Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}
	for _, w := range []Rect{conus, {MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}} {
		for _, n := range []int{1, 2, 4} {
			s := MustNewSharded(w, time.Minute, WithShards(n))
			rows, cols := shardGridDims(n)
			for i, got := range s.ShardRects() {
				r, c := i/cols, i%cols
				want := Rect{
					MinX: edge(w.MinX, w.MaxX, c, cols), MinY: edge(w.MinY, w.MaxY, r, rows),
					MaxX: edge(w.MinX, w.MaxX, c+1, cols), MaxY: edge(w.MinY, w.MaxY, r+1, rows),
				}
				if got != want {
					t.Errorf("%v, %d shards: shard %d rect %v, want %v", w, n, i, got, want)
				}
			}
			s.Shutdown(context.Background())
		}
	}
}

// TestShardedOneShardDeterminism: New and NewSharded(WithShards(1)) build
// the same machine, so a seeded workload must produce bit-identical
// estimates and exact counts. A constant latency model keeps the wall
// clock out of switching, so opportunity switches stay exercised.
func TestShardedOneShardDeterminism(t *testing.T) {
	opts := []Option{
		WithPretrainQueries(120), WithAccWindow(60), WithSeed(1),
		WithLatencyModel(func(string, *Query, time.Duration) time.Duration { return time.Microsecond }),
	}
	mono, err := New(testWorld(), time.Minute, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(testWorld(), time.Minute,
		append(opts[:len(opts):len(opts)], WithShards(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Shutdown(context.Background())

	objs := shardWorkload(7, 6000)
	for i := range objs {
		mono.FeedBatch(objs[i : i+1])
		sharded.FeedBatch(objs[i : i+1])
	}
	ts := objs[len(objs)-1].Timestamp
	for i, q := range shardQueries(8, 400, ts) {
		qm, qs := q, q
		em, am := mono.EstimateAndExecute(&qm)
		es, as := sharded.EstimateAndExecute(&qs)
		if em != es || am != as {
			t.Fatalf("query %d: mono (%v, %d) vs 1-shard (%v, %d)", i, em, am, es, as)
		}
	}
	if a, b := mono.ActiveEstimator(), sharded.ActiveEstimators()[0]; a != b {
		t.Errorf("active estimators diverge: %q vs %q", a, b)
	}
	if a, b := mono.WindowSize(), sharded.WindowSize(); a != b {
		t.Errorf("window sizes diverge: %d vs %d", a, b)
	}
}

// TestRangedQueryAllocs: a ranged query that hits one shard routes through
// a sub-slice of the shard list, so the fused call allocates no more than
// the shard's own estimate/observe cycle — on a one-shard and on a
// four-shard engine. A freshly allocated target list cost one allocation
// more (3 against 2 with RSH active). Switching weighs accuracy only and a
// constant latency model keeps the wall clock out of it, so the two
// measurements see the same estimator.
func TestRangedQueryAllocs(t *testing.T) {
	opts := []Option{WithSeed(1), WithPretrainQueries(40), WithAccWindow(30), WithAlpha(0),
		WithLatencyModel(func(string, *Query, time.Duration) time.Duration { return time.Microsecond })}
	for name, eng := range map[string]*ShardedSystem{
		"New":         MustNew(testWorld(), time.Minute, opts...).ShardedSystem,
		"NewSharded4": MustNewSharded(testWorld(), time.Minute, append(opts, WithShards(4))...),
	} {
		objs := shardWorkload(21, 4000)
		eng.FeedBatch(objs)
		ts := objs[len(objs)-1].Timestamp
		for i, q := range shardQueries(22, 400, ts) {
			if eng.Phase() == PhaseIncremental && i > 100 {
				break
			}
			eng.EstimateAndExecute(&q)
		}
		q := SpatialQuery(CenteredRect(Pt(0.25, 0.25), 0.1, 0.1), ts)
		targets := eng.targets(&q)
		if len(targets) != 1 {
			t.Fatalf("%s: query routes to %d shards, want 1", name, len(targets))
		}
		cycle := testing.AllocsPerRun(200, func() {
			qq := q
			targets[0].query(&qq, nil)
		})
		fused := testing.AllocsPerRun(200, func() {
			qq := q
			eng.EstimateAndExecute(&qq)
		})
		if fused > cycle {
			t.Errorf("%s: a one-target ranged query allocates %v times, its shard's cycle %v", name, fused, cycle)
		}
	}
}

// TestShardedExactCounts pins the count decomposition: objects are routed
// disjointly, queries fan out unclipped, so merged exact counts equal a
// one-shard engine's for every query shape — on any shard count.
func TestShardedExactCounts(t *testing.T) {
	objs := shardWorkload(11, 8000)
	ts := objs[len(objs)-1].Timestamp
	mono, err := New(testWorld(), time.Minute, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	mono.FeedBatch(append([]Object(nil), objs...))

	for _, n := range []int{2, 3, 4, 7} {
		sharded, err := NewSharded(testWorld(), time.Minute, WithSeed(2), WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		sharded.FeedBatch(append([]Object(nil), objs...))
		if a, b := mono.WindowSize(), sharded.WindowSize(); a != b {
			t.Fatalf("n=%d: window sizes diverge: %d vs %d", n, a, b)
		}
		qs := shardQueries(12, 300, ts)
		// Include queries straddling shard boundaries and covering the world.
		qs = append(qs,
			SpatialQuery(testWorld(), ts),
			SpatialQuery(CenteredRect(Pt(0.5, 0.5), 1e-6, 1e-6), ts),
			SpatialQuery(Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}, ts),
			SpatialQuery(Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}, ts), // outside world
		)
		for i := range qs {
			qm, qsh := qs[i], qs[i]
			_, wantAct := mono.EstimateAndExecute(&qm)
			_, gotAct := sharded.EstimateAndExecute(&qsh)
			if gotAct != wantAct {
				t.Fatalf("n=%d query %d (%v): sharded count %d, mono %d",
					n, i, qs[i].Type(), gotAct, wantAct)
			}
		}
		sharded.Shutdown(context.Background())
	}
}

// TestShardedParallel hammers a ShardedSystem with concurrent batch
// producers and queriers; run with -race. Covers inline pre-fills racing
// the producers' inline feeds (switches happen under the query load) and
// the timestamp clamp.
func TestShardedParallel(t *testing.T) {
	s, err := NewSharded(testWorld(), time.Minute,
		WithShards(4), WithPretrainQueries(50), WithAccWindow(30), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	// Seed one window of data so queries observe live objects.
	seedObjs := shardWorkload(13, 5000)
	s.FeedBatch(seedObjs)
	baseTS := seedObjs[len(seedObjs)-1].Timestamp

	const producers, queriers = 4, 4
	stop := make(chan struct{})
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(seed int64) {
			defer prodWG.Done()
			rng := rand.New(rand.NewSource(seed))
			ts := baseTS
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]Object, 64)
				for j := range batch {
					ts++
					batch[j] = Object{ID: uint64(ts), Loc: Pt(rng.Float64(), rng.Float64()),
						Keywords: []string{fmt.Sprintf("kw%d", rng.Intn(10))}, Timestamp: ts}
				}
				s.FeedBatch(batch)
			}
		}(int64(20 + p))
	}

	var queryWG sync.WaitGroup
	for g := 0; g < queriers; g++ {
		queryWG.Add(1)
		go func(seed int64) {
			defer queryWG.Done()
			for i, q := range shardQueries(seed, 150, baseTS) {
				est, actual := s.EstimateAndExecute(&q)
				if est < 0 || actual < 0 {
					t.Errorf("query %d: est %v actual %d", i, est, actual)
					return
				}
				if i%25 == 0 {
					_ = s.Stats()
					_ = s.Phase()
				}
			}
		}(int64(30 + g))
	}
	queryWG.Wait()
	close(stop)
	prodWG.Wait()

	st := s.PerShardStats()
	if got := st.Merged.PretrainSeen + st.Merged.IncrementalSeen; got == 0 {
		t.Error("no queries accounted across shards")
	}
	var feeds uint64
	for _, sh := range st.Shards {
		feeds += sh.Gauges.Feeds
	}
	if feeds < uint64(len(seedObjs)) {
		t.Errorf("gauges recorded %d feeds, want >= %d", feeds, len(seedObjs))
	}
	if len(st.Shards) != 4 {
		t.Errorf("stats cover %d shards", len(st.Shards))
	}
}

// TestShardedCloseUnderSwitches drives a hostile workload that provokes
// estimator switches (eleven on an uninstrumented build; the switch weighs
// wall-clock latency, so a count is not asserted) and verifies Close runs
// without deadlock, twice, and leaves a usable engine.
func TestShardedCloseUnderSwitches(t *testing.T) {
	s, err := NewSharded(testWorld(), 5*time.Second,
		WithShards(2), WithPretrainQueries(40), WithAccWindow(20), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ts := int64(0)
	for round := 0; round < 30; round++ {
		batch := make([]Object, 80)
		for j := range batch {
			ts++
			batch[j] = Object{ID: uint64(ts), Loc: Pt(rng.Float64(), rng.Float64()),
				Keywords: []string{fmt.Sprintf("kw%d", round%7)}, Timestamp: ts}
		}
		s.FeedBatch(batch)
		// Alternate query shapes every round to destabilize accuracy and
		// provoke τ switches (and therefore prefills).
		for i := 0; i < 20; i++ {
			var q Query
			if round%2 == 0 {
				q = KeywordQuery([]string{fmt.Sprintf("kw%d", rng.Intn(7))}, ts)
			} else {
				q = SpatialQuery(CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.05, 0.05), ts)
			}
			if est, _ := s.EstimateAndExecute(&q); est < 0 {
				t.Fatalf("negative estimate %v", est)
			}
		}
	}
	s.Shutdown(context.Background())
	s.Shutdown(context.Background()) // idempotent
	// Operation after Shutdown stays safe.
	q := KeywordQuery([]string{"kw1"}, ts)
	if est, _ := s.EstimateAndExecute(&q); est < 0 {
		t.Fatalf("post-shutdown estimate %v", est)
	}
}

// TestFeedBatchEmpty pins the no-op contract: an empty (or nil) batch
// must not touch any shard state or gauges.
func TestFeedBatchEmpty(t *testing.T) {
	s := MustNewSharded(testWorld(), time.Hour, WithSeed(3), WithShards(4))
	defer s.Shutdown(context.Background())
	s.FeedBatch(nil)
	s.FeedBatch([]Object{})
	if got := s.WindowSize(); got != 0 {
		t.Errorf("WindowSize after empty batches = %d, want 0", got)
	}
	for _, sh := range s.PerShardStats().Shards {
		if sh.Gauges.Feeds != 0 || sh.Gauges.Batches != 0 {
			t.Errorf("shard %d gauges touched by empty batch: %+v", sh.Index, sh.Gauges)
		}
	}
}

// TestFeedBatchAllOneShard routes a whole batch into a single shard: the
// single-pass router must produce exactly one sub-batch (one batch gauge
// tick on the owning shard, none elsewhere).
func TestFeedBatchAllOneShard(t *testing.T) {
	s := MustNewSharded(testWorld(), time.Hour, WithSeed(4), WithShards(4))
	defer s.Shutdown(context.Background())
	rects := s.ShardRects()
	target := 2
	c := rects[target].Center()
	objs := make([]Object, 64)
	for i := range objs {
		objs[i] = Object{ID: uint64(i + 1), Loc: c, Timestamp: int64(i + 1)}
	}
	s.FeedBatch(objs)
	for _, sh := range s.PerShardStats().Shards {
		wantFeeds, wantBatches := uint64(0), uint64(0)
		if sh.Index == target {
			wantFeeds, wantBatches = uint64(len(objs)), 1
		}
		if sh.Gauges.Feeds != wantFeeds || sh.Gauges.Batches != wantBatches {
			t.Errorf("shard %d: feeds=%d batches=%d, want feeds=%d batches=%d",
				sh.Index, sh.Gauges.Feeds, sh.Gauges.Batches, wantFeeds, wantBatches)
		}
	}
	if got := s.WindowSize(); got != len(objs) {
		t.Errorf("WindowSize = %d, want %d", got, len(objs))
	}
}

// TestFeedBatchPartitionEdges feeds objects whose coordinates sit exactly
// on the partition edges (including the world corners): each must land in
// exactly one shard — the one whose rectangle routing assigns — and be
// counted exactly once by a full-world query and by its shard's own
// rectangle query.
func TestFeedBatchPartitionEdges(t *testing.T) {
	s := MustNewSharded(testWorld(), time.Hour, WithSeed(5), WithShards(4)) // 2x2 grid
	defer s.Shutdown(context.Background())
	edges := []float64{0, 0.5, 1} // 2x2 over the unit square
	var objs []Object
	id := uint64(0)
	for _, x := range edges {
		for _, y := range edges {
			id++
			objs = append(objs, Object{ID: id, Loc: Pt(x, y), Timestamp: int64(id)})
		}
	}
	s.FeedBatch(objs)
	if got := s.WindowSize(); got != len(objs) {
		t.Fatalf("WindowSize = %d, want %d", got, len(objs))
	}
	q := SpatialQuery(testWorld(), int64(len(objs)+1))
	if _, actual := s.EstimateAndExecute(&q); actual != len(objs) {
		t.Errorf("full-world count = %d, want %d (edge object lost or duplicated)", actual, len(objs))
	}
	// Per-shard rectangle queries overlap on the shared edges, so summing
	// them would overcount; instead pin that occupancies sum exactly.
	occ := 0
	for _, sh := range s.PerShardStats().Shards {
		occ += sh.WindowSize
	}
	if occ != len(objs) {
		t.Errorf("per-shard occupancy sums to %d, want %d", occ, len(objs))
	}
}

// TestShardsSplitPretraining: the pre-training length belongs to the
// engine. Each of N shards pre-trains on ceil(P/N) queries — for an
// explicit P and for the default — and one shard keeps P itself.
func TestShardsSplitPretraining(t *testing.T) {
	for _, tc := range []struct {
		opts   []Option
		shards int
		want   int
	}{
		{[]Option{WithPretrainQueries(150)}, 1, 150},
		{[]Option{WithPretrainQueries(150)}, 4, 38},
		{[]Option{WithPretrainQueries(150)}, 7, 22},
		{nil, 1, 2000},
		{nil, 3, 667},
		{nil, 8, 250},
	} {
		s := MustNewSharded(testWorld(), time.Minute, append(tc.opts, WithShards(tc.shards))...)
		for i, sh := range s.shards {
			if got := sh.module.Config().PretrainQueries; got != tc.want {
				t.Errorf("%d shards, options %d: shard %d pre-trains on %d queries, want %d",
					tc.shards, len(tc.opts), i, got, tc.want)
			}
		}
		s.Shutdown(context.Background())
	}
}

// TestShardLeavesPretrainingOnItsShare: a keyword query starts every
// shard's pre-training, and range queries inside one shard's rectangle then
// train that shard alone. It leaves pre-training on its ceil(P/4)-th query,
// not one sooner, while the engine — whose other shards have seen one query
// each — still reports pre-training.
func TestShardLeavesPretrainingOnItsShare(t *testing.T) {
	const pretrain = 150
	s := MustNewSharded(testWorld(), time.Minute, WithShards(4), WithPretrainQueries(pretrain), WithSeed(3))
	defer s.Shutdown(context.Background())
	objs := shardWorkload(5, 4000)
	s.FeedBatch(objs)
	ts := objs[len(objs)-1].Timestamp
	kq := KeywordQuery([]string{"kw1"}, ts)
	s.EstimateAndExecute(&kq)
	inner := s.shards[0].rect
	area := CenteredRect(inner.Center(), inner.MaxX-inner.MinX-0.1, inner.MaxY-inner.MinY-0.1)
	share := (pretrain + 3) / 4
	for i := 1; i < share; i++ {
		if p := s.shards[0].module.Phase(); p != PhasePretrain {
			t.Fatalf("shard 0 is in %v after %d queries, want pre-training until %d", p, i, share)
		}
		q := SpatialQuery(area, ts)
		s.EstimateAndExecute(&q)
	}
	if p := s.shards[0].module.Phase(); p != PhaseIncremental {
		t.Errorf("shard 0 is in %v after its share of %d queries", p, share)
	}
	for i, sh := range s.shards[1:] {
		if p := sh.module.Phase(); p != PhasePretrain {
			t.Errorf("shard %d, which one query reached, is in %v", i+1, p)
		}
	}
	if p := s.Phase(); p != PhasePretrain {
		t.Errorf("engine phase %v, want pre-training until every shard is done", p)
	}
}
