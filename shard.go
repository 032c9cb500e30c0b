package latest

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/telemetry"
)

// ShardedSystem partitions the world rectangle into a grid of spatial
// shards, each owning its own exact window store and estimator fleet
// behind its own lock. Ingest is inline: a producer routes a batch once
// into per-shard sub-batches and applies each on its own goroutine under
// the owning shard's lock, so a feed has been applied when it returns and
// feeds within a shard keep their call order. Ingest runs in parallel
// across producers that lock different shards. Queries fan out to the
// shards whose rectangles intersect the query range (keyword-only queries
// to all shards) and merge the partial counts. The RC-DVQ count over a
// rectangle decomposes exactly over a spatial partition — every object
// lives in exactly one shard — so merged exact counts equal a monolithic
// System's.
//
// Each shard runs its own LATEST module: its own learning model, its own
// active estimator, its own switching decisions. Shards covering different
// data densities may legitimately settle on different estimators.
//
// Estimator pre-filling is inline: when a shard's adaptor wants a
// candidate warmed from the window store, the query that asked for it
// replays the window under the shard lock it already holds, so a seeded
// 1-shard system reproduces System bit-for-bit.
//
// Estimate and the feedback call must pair up per query, which under
// concurrency is only maintainable atomically — so the combined
// EstimateAndExecute operations are exposed instead of the split halves.
// Timestamps should be non-decreasing per producer; arrivals that would run
// a shard's clock backwards are clamped to the shard's high-water mark
// (counted in the shard's Reordered and ValidationClamped gauges).
type ShardedSystem struct {
	// engine is the /statusz engine name and snapKind the snapshot meta
	// kind: "sharded" and "sharded:RxC", or what NewConcurrent's one-shard
	// engine has always been called, "concurrent" and "single".
	engine   string
	snapKind string

	world  Rect
	rows   int
	cols   int
	xs     []float64 // col edges, len cols+1
	ys     []float64 // row edges, len rows+1
	shards []*shard

	policy ValidationPolicy

	telem *telemetry.Server

	// bucketPool recycles FeedBatch's routing buckets: a *[][]Object with
	// one sub-batch per shard, each emptied and cleared after its apply so
	// pooled memory pins no keyword arrays.
	bucketPool sync.Pool

	closeOnce sync.Once

	// gen counts snapshots taken of this engine; fingerprint encodes the
	// construction options. Both serve the Snapshot/Restore contract — see
	// snapshot.go.
	gen         uint64
	fingerprint []byte
}

// shard is one spatial partition: a full System (module + window store)
// behind a mutex, plus operational gauges.
type shard struct {
	mu   sync.Mutex
	rect Rect
	sys  *System

	// prefix names the shard's snapshot section group ("shard-N/"; "" for
	// NewConcurrent's one shard, the layout a System writes).
	prefix string

	scratch Object

	gauges metrics.ShardGauges
	log    *telemetry.Logger
}

// NewSharded builds a sharded LATEST system over the given world,
// partitioned into WithShards(n) spatial shards (default
// runtime.GOMAXPROCS(0)). It starts no goroutine; call Close when done to
// stop the telemetry server WithTelemetry starts.
func NewSharded(world Rect, window time.Duration, opts ...Option) (*ShardedSystem, error) {
	return newSharded(buildConfig(world, window, opts), kindSharded)
}

// MustNewSharded is NewSharded but panics on error — for tests, examples
// and programs whose configuration is static.
func MustNewSharded(world Rect, window time.Duration, opts ...Option) *ShardedSystem {
	s, err := NewSharded(world, window, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// newSharded builds a ShardedSystem from the resolved option set. kind
// picks the names an operator and a data directory see — nothing else:
// kindConcurrent keeps the "concurrent" log scope and /statusz engine and
// the "single" snapshot kind with unprefixed sections, so NewConcurrent and
// System snapshots stay interchangeable byte for byte.
func newSharded(cfg config, kind engineKind) (*ShardedSystem, error) {
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("latest: Shards must be positive, got %d", n)
	}
	// Before anything is built from them: the world is partitioned below.
	if err := validateOptions(&cfg, kindSharded); err != nil {
		return nil, err
	}
	rows, cols := shardGridDims(n)
	s := &ShardedSystem{
		engine:   "sharded",
		snapKind: fmt.Sprintf("sharded:%dx%d", rows, cols),
		world:    cfg.World,
		rows:     rows,
		cols:     cols,
		xs:       partitionEdges(cfg.World.MinX, cfg.World.MaxX, cols),
		ys:       partitionEdges(cfg.World.MinY, cfg.World.MaxY, rows),
		shards:   make([]*shard, n),
		policy:   cfg.Validation,
	}
	s.bucketPool.New = func() any {
		b := make([][]Object, n)
		return &b
	}
	if kind == kindConcurrent {
		s.engine, s.snapKind = "concurrent", snapKindSingle
	}
	baseLog := telemetry.NewLogger(cfg.LogOutput, cfg.LogLevel)
	for i := range s.shards {
		r, c := i/cols, i%cols
		component := fmt.Sprintf("shard-%d", i)
		sh := &shard{
			rect:   Rect{MinX: s.xs[c], MinY: s.ys[r], MaxX: s.xs[c+1], MaxY: s.ys[r+1]},
			prefix: component + "/",
		}
		if kind == kindConcurrent {
			component, sh.prefix = "concurrent", ""
		}
		sh.log = baseLog.Named(component)
		shardCfg := cfg
		shardCfg.World = sh.rect
		// Shard 0 keeps the configured seed so a 1-shard system matches
		// System exactly; the rest decorrelate their estimator randomness.
		shardCfg.Seed = cfg.Seed + int64(i)*1_000_003
		sys, err := newSystem(shardCfg, component)
		if err != nil {
			return nil, err
		}
		// Point the shard's System at the shard's gauge set, so validation
		// events detected inside the shared ingest/query paths land in the
		// gauges the sharded Stats reads.
		sys.gauges = &sh.gauges
		sh.sys = sys
		s.shards[i] = sh
	}
	// The sharded fingerprint takes world and seed from the top-level
	// options (shard systems see derived ones); every other module knob is
	// identical across shards, so shard 0's resolved config stands for all.
	s.fingerprint = configFingerprint(&cfg, s.shards[0].sys.module.Config())
	if cfg.TelemetryAddr != "" {
		srv, err := telemetry.Serve(cfg.TelemetryAddr, s.TelemetrySnapshot, baseLog)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.telem = srv
	}
	return s, nil
}

// Close stops the telemetry server, if one was started — the only
// background resource the engine owns — and leaves the system usable.
// Close is idempotent.
func (s *ShardedSystem) Close() {
	s.closeOnce.Do(func() {
		if s.telem != nil {
			s.telem.Close()
		}
	})
}

// Shutdown is the graceful form of Close: the telemetry exposition server
// (if one was started) finishes in-flight scrapes, bounded by ctx, before
// stopping. Shares Close's once — whichever runs first wins, the other is
// a no-op.
func (s *ShardedSystem) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	s.closeOnce.Do(func() {
		if s.telem != nil {
			err = s.telem.Shutdown(ctx)
		}
	})
	return err
}

// shardGridDims factors n into the most-square rows×cols grid: rows is
// the largest divisor of n that is ≤ √n (rows·cols == n exactly; primes
// degrade to 1×n stripes).
func shardGridDims(n int) (rows, cols int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best, n / best
}

// partitionEdges splits [lo, hi] into n spans, pinning the outer edges to
// the exact world coordinates so the shards tile the world with no gaps.
func partitionEdges(lo, hi float64, n int) []float64 {
	edges := make([]float64, n+1)
	for i := 1; i < n; i++ {
		edges[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	edges[0], edges[n] = lo, hi
	return edges
}

// shardOf routes a point to its shard index. The arithmetic guess is
// corrected against the actual edge array so routing always agrees with
// the shard rectangles — an object is counted by a range query iff the
// query rectangle intersects its shard's rectangle, which holds only if
// the object actually lies inside that rectangle. Points outside the
// world clamp to the nearest shard.
func (s *ShardedSystem) shardOf(p Point) int {
	col := edgeIndex(s.xs, p.X)
	row := edgeIndex(s.ys, p.Y)
	return row*s.cols + col
}

// edgeIndex returns i such that edges[i] <= v < edges[i+1], clamped to the
// valid span range.
func edgeIndex(edges []float64, v float64) int {
	n := len(edges) - 1
	lo, hi := edges[0], edges[n]
	i := 0
	if hi > lo {
		i = int(float64(n) * (v - lo) / (hi - lo))
	}
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	// Float arithmetic can land the guess one span off the edge array;
	// nudge until consistent.
	for i > 0 && v < edges[i] {
		i--
	}
	for i < n-1 && v >= edges[i+1] {
		i++
	}
	return i
}

// feedLocked ingests one object into sh. Validation repairs a regressed
// timestamp in the pointee, so such an arrival is staged in the shard
// first: behind a shard the caller's slice is never modified. Caller holds
// sh.mu.
func (sh *shard) feedLocked(o *Object) {
	if o.Timestamp < sh.sys.lastTS {
		sh.scratch = *o
		o = &sh.scratch
	}
	sh.sys.feedPtr(o)
}

// Feed ingests one stream object on the caller, under the owning shard's
// lock, timing one call in metrics.FeedSampleInterval. The shard's ingest
// gauges are recorded under the lock too: it serializes their writers,
// which the rolling ingest-rate counter relies on.
func (s *ShardedSystem) Feed(o Object) {
	sh := s.shards[s.shardOf(o.Loc)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sampled := sh.gauges.RecordFeed()
	var start time.Time
	if sampled {
		start = time.Now()
	}
	// Staged in the shard so the pointer handed down does not force o to
	// the heap: a single Feed stays allocation-free.
	sh.scratch = o
	sh.feedLocked(&sh.scratch)
	if sampled {
		sh.gauges.RecordFeedLatency(time.Since(start))
	}
	sh.gauges.SetWindow(sh.sys.window.Size(), sh.sys.window.MemoryBytes())
}

// FeedBatch ingests a batch of stream objects with a single routing pass:
// each object is appended to its shard's pooled sub-batch bucket (one
// shardOf call per object, no per-shard rescans), and each non-empty
// bucket is applied on the caller under its shard's lock. A one-shard
// engine applies objs in place, with no copy. Object order is preserved
// within a shard; cross-shard ordering is irrelevant (shards hold disjoint
// objects).
//
// The engine copies what it keeps: a batch has been applied when FeedBatch
// returns, so the caller may reuse objs and its keyword arrays on return.
func (s *ShardedSystem) FeedBatch(objs []Object) {
	if len(objs) == 0 {
		return
	}
	if len(s.shards) == 1 {
		s.shards[0].apply(objs)
		return
	}
	bp := s.bucketPool.Get().(*[][]Object)
	buckets := *bp
	for i := range objs {
		si := s.shardOf(objs[i].Loc)
		buckets[si] = append(buckets[si], objs[i])
	}
	for si, sub := range buckets {
		if len(sub) == 0 {
			continue
		}
		s.shards[si].apply(sub)
		clear(sub)
		buckets[si] = sub[:0]
	}
	s.bucketPool.Put(bp)
}

// apply ingests a routed sub-batch under the shard lock and records the
// shard's ingest gauges there, as Feed does.
func (sh *shard) apply(objs []Object) {
	start := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range objs {
		sh.feedLocked(&objs[i])
	}
	sh.gauges.RecordBatch(len(objs), time.Since(start))
	sh.gauges.SetWindow(sh.sys.window.Size(), sh.sys.window.MemoryBytes())
}

// targets returns the shards a query must consult: every shard whose
// rectangle intersects the range, or all shards for keyword-only queries.
func (s *ShardedSystem) targets(q *Query) []*shard {
	if !q.HasRange {
		return s.shards
	}
	out := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.rect.Intersects(q.Range) {
			out = append(out, sh)
		}
	}
	return out
}

// route validates (and under ValidationClamp, repairs) the query, then
// returns the shards it must consult — validation first, because a NaN or
// inverted rectangle would otherwise silently match no shard. Empty when
// the query was rejected (counted in shard 0's gauges) or its range lies
// wholly outside the world.
func (s *ShardedSystem) route(q *Query) []*shard {
	if !checkQuery(q, s.policy, s.world, &s.shards[0].gauges, s.shards[0].log) {
		return nil
	}
	return s.targets(q)
}

// query is the one place a shard's System is locked for a query: one
// atomic estimate/observe cycle with tr installed on the module for exactly
// the span of the lock, so the module never observes a stale trace. A nil
// tr records nothing; truth is estimateAndExecute's.
func (sh *shard) query(q *Query, tr *telemetry.ActiveTrace, truth func(windowExact int) float64) (estimate float64, actual int) {
	start := time.Now()
	sh.mu.Lock()
	sh.sys.module.SetTrace(tr)
	estimate, actual = sh.sys.estimateAndExecute(q, truth)
	sh.sys.module.SetTrace(nil)
	sh.mu.Unlock()
	sh.gauges.RecordQuery(time.Since(start))
	return estimate, actual
}

// EstimateAndExecute answers the query approximately, then exactly, and
// feeds each shard its own partial truth — one atomic estimate/observe
// cycle per intersecting shard, fanned out in parallel. Estimates and
// exact counts are merged by summation, which is exact for the count
// because shards hold disjoint objects. A range query that intersects no
// shard (range outside the world) returns (0, 0) without consulting any
// module.
func (s *ShardedSystem) EstimateAndExecute(q *Query) (estimate float64, actual int) {
	return s.EstimateAndExecuteTraced(q, nil)
}

// fanOut runs the scatter-gather path over the already-routed target
// shards: one atomic estimate/observe cycle per shard in parallel, partial
// answers merged by summation (exact for the count because shards hold
// disjoint objects).
func (s *ShardedSystem) fanOut(q *Query, targets []*shard) (estimate float64, actual int) {
	type partial struct {
		est float64
		act int
	}
	parts := make([]partial, len(targets))
	var wg sync.WaitGroup
	for i, sh := range targets {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			e, a := sh.query(q, nil, nil)
			parts[i] = partial{est: e, act: a}
		}(i, sh)
	}
	wg.Wait()
	// Sum in shard order so the merged estimate is deterministic for a
	// deterministic per-shard run.
	for _, p := range parts {
		estimate += p.est
		actual += p.act
	}
	return estimate, actual
}

// EstimateAndExecuteBatch runs EstimateAndExecute over a batch of queries
// in order, returning the parallel estimate and exact-count slices.
func (s *ShardedSystem) EstimateAndExecuteBatch(qs []Query) (estimates []float64, actuals []int) {
	estimates = make([]float64, len(qs))
	actuals = make([]int, len(qs))
	for i := range qs {
		estimates[i], actuals[i] = s.EstimateAndExecute(&qs[i])
	}
	return estimates, actuals
}

// NumShards returns the shard count.
func (s *ShardedSystem) NumShards() int { return len(s.shards) }

// TelemetryAddr returns the bound address of the telemetry server, or ""
// when WithTelemetry was not used. With a ":0" listen address this is how
// callers learn the kernel-assigned port.
func (s *ShardedSystem) TelemetryAddr() string {
	if s.telem == nil {
		return ""
	}
	return s.telem.Addr()
}

// ShardRects returns the shard rectangles in shard order.
func (s *ShardedSystem) ShardRects() []Rect {
	out := make([]Rect, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.rect
	}
	return out
}

// Drain does nothing: a feed has been applied by the time Feed or
// FeedBatch returns.
//
// Deprecated: there is nothing to wait for; delete the call.
func (s *ShardedSystem) Drain() {}

// WindowSize returns the number of live objects across all shards.
func (s *ShardedSystem) WindowSize() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.sys.WindowSize()
		sh.mu.Unlock()
	}
	return total
}

// Phase returns the earliest lifecycle phase any shard is in: the system
// as a whole has not finished pre-training until every shard has.
func (s *ShardedSystem) Phase() Phase {
	phase := PhaseIncremental
	for _, sh := range s.shards {
		sh.mu.Lock()
		p := sh.sys.Phase()
		sh.mu.Unlock()
		if p < phase {
			phase = p
		}
	}
	return phase
}

// ActiveEstimators returns each shard's active estimator name, in shard
// order. Shards adapt independently, so a mixed fleet is normal.
func (s *ShardedSystem) ActiveEstimators() []string {
	out := make([]string, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.sys.ActiveEstimator()
		sh.mu.Unlock()
	}
	return out
}

// Switches returns every shard's switch history concatenated in shard
// order, each event annotated with nothing extra — use Stats for per-shard
// grouping.
func (s *ShardedSystem) Switches() []SwitchEvent {
	var out []SwitchEvent
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.sys.Switches()...)
		sh.mu.Unlock()
	}
	return out
}

// ShardStats is one shard's slice of a ShardedStats snapshot.
type ShardStats struct {
	// Index is the shard's position in row-major grid order.
	Index int
	// Rect is the shard's spatial partition.
	Rect Rect
	// Core is the shard module's internals snapshot.
	Core Stats
	// WindowSize is the shard's live exact-store size.
	WindowSize int
	// Gauges are the shard's operational counters (feeds, queries,
	// reordered arrivals, latencies, occupancy).
	Gauges metrics.GaugeSnapshot
}

// ShardedStats is a snapshot of the whole sharded system: the merged
// module view plus per-shard detail.
type ShardedStats struct {
	// Merged folds every shard's module snapshot into one Stats (counters
	// summed, phase = earliest, accuracy weighted by monitored queries).
	Merged Stats
	// Shards holds per-shard snapshots in shard order.
	Shards []ShardStats
}

// Stats snapshots every shard and returns the merged module view —
// counters summed, phase = earliest, accuracy weighted by monitored
// queries — satisfying the unified Engine interface. Per-shard detail
// moved to PerShardStats.
func (s *ShardedSystem) Stats() Stats { return s.PerShardStats().Merged }

// PerShardStats snapshots every shard and merges the module views.
func (s *ShardedSystem) PerShardStats() ShardedStats {
	out := ShardedStats{Shards: make([]ShardStats, len(s.shards))}
	parts := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		parts[i] = sh.sys.Stats()
		ws := sh.sys.WindowSize()
		sh.mu.Unlock()
		// Core snapshots don't know their shard index; stamp it so merged
		// decision traces say where each switch happened.
		for j := range parts[i].Decisions {
			parts[i].Decisions[j].Shard = i
		}
		out.Shards[i] = ShardStats{
			Index:      i,
			Rect:       sh.rect,
			Core:       parts[i],
			WindowSize: ws,
			Gauges:     sh.gauges.Snapshot(),
		}
	}
	out.Merged = core.MergeStats(parts)
	return out
}
