package latest

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
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
// lives in exactly one shard — so merged exact counts equal a one-shard
// engine's. New and NewConcurrent build the one-shard case.
//
// Each shard runs its own LATEST module: its own learning model, its own
// active estimator, its own switching decisions. Shards covering different
// data densities may legitimately settle on different estimators.
//
// Estimator pre-filling is inline: when a shard's adaptor wants a
// candidate warmed from the window store, the query that asked for it
// replays the window under the shard lock it already holds, so a seeded
// run is reproducible bit for bit.
//
// A query's estimate and its feedback run as one atomic cycle per shard
// (EstimateAndExecute); System adds the split calls for its one shard.
// Timestamps should be non-decreasing per producer; arrivals that would run
// a shard's clock backwards are clamped to the shard's high-water mark
// (counted in the shard's Reordered and ValidationClamped gauges).
type ShardedSystem struct {
	// grid partitions the world; shard i is cell i, row-major.
	grid   *geo.Grid
	shards []*shard

	telem *telemetry.Server

	// bucketPool recycles FeedBatch's routing buckets: a *[][]Object with
	// one sub-batch per shard, each emptied and cleared after its apply so
	// pooled memory pins no keyword arrays.
	bucketPool sync.Pool

	shutdownOnce sync.Once

	// fingerprint encodes the construction options an image must match
	// (snapshot.go).
	fingerprint []byte
}

// shard is one spatial partition behind its own lock: a LATEST module, the
// exact window store that plays its database, its stream clock and its
// operational gauges.
type shard struct {
	mu     sync.Mutex
	rect   Rect
	module *core.Module
	window *stream.Window

	// align is the engine's lattice when the shard's rectangle is only part
	// of the engine's world: the shard's window snaps on its rectangle's
	// lattice, which refines the engine's, so a range is aligned onto the
	// engine's first (see answer). nil for a one-shard engine.
	align *geo.Lattice

	// lastTS is the shard's timestamp high-water mark; a regressed arrival
	// is clamped to it instead of violating the window store's ordering
	// invariant.
	lastTS int64

	// pendingRejected marks that the last split Estimate (System) refused
	// its query, so the paired Execute/ObserveActual must not feed the
	// module a truth value it never produced an estimate for.
	pendingRejected bool

	// scratch stages a regressed arrival, so it is repaired here rather
	// than in the caller's slice. Estimators copy what they keep, so the
	// buffer is reusable.
	scratch Object

	// gauges are the shard's operational counters and latency histograms:
	// atomic, allocation-free, safe to snapshot while traffic flows.
	gauges metrics.ShardGauges
	log    *slog.Logger
}

// oracleGridCells sizes the exact store's internal grid (speed only, never
// correctness).
const oracleGridCells = 4096

// newShard builds one shard over cfg.World from options its caller has
// validated, logging to cfg.Log, which the caller sets. Switch cooldown,
// opportunity margin and trace depth take core's defaults.
func newShard(cfg config) (*shard, error) {
	w := stream.NewWindow(cfg.World, cfg.Window.Milliseconds(), oracleGridCells)
	sh := &shard{rect: cfg.World, window: w, log: cfg.Log}
	m, err := core.New(core.Config{
		World:           cfg.World,
		Span:            cfg.Window.Milliseconds(),
		Registry:        cfg.Registry,
		Estimators:      cfg.Estimators,
		Default:         cfg.Default,
		Alpha:           cfg.Alpha,
		AlphaSet:        cfg.AlphaSet,
		Tau:             cfg.Tau,
		Beta:            cfg.Beta,
		AccWindow:       cfg.AccWindow,
		PretrainQueries: cfg.PretrainQueries,
		Scale:           cfg.MemoryScale,
		Seed:            cfg.Seed,
		OnSwitch:        cfg.OnSwitch,
		LatencyOf:       cfg.LatencyModel,
		Logger:          cfg.Log,
		Refill:          sh.refill,
	})
	if err != nil {
		return nil, err
	}
	sh.module = m
	return sh, nil
}

// refill seeds a freshly wiped estimator from the window store, under the
// shard lock the query that asked for it already holds: a sampler draws
// its sample, anything else has the window replayed into it. A pre-fill is
// counted, with the objects it read, by how it ran; the fill that ends
// warm-up is not a pre-fill.
func (sh *shard) refill(e estimator.Estimator) {
	drawn, objects := estimator.Fill(e, sh.window)
	if sh.module.Phase() != core.PhaseWarmup {
		sh.gauges.RecordPrefill(drawn, objects)
	}
}

// NewSharded builds a sharded LATEST system over the given world,
// partitioned into WithShards(n) spatial shards (default
// runtime.GOMAXPROCS(0)). WithPretrainQueries sets the engine's
// pre-training length, split across the shards: each pre-trains on
// ceil(length/n) queries. It starts no goroutine; call Shutdown when done
// to stop the telemetry server WithTelemetry starts.
func NewSharded(world Rect, window time.Duration, opts ...Option) (*ShardedSystem, error) {
	return newSharded(buildConfig(world, window, opts))
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

// newSharded builds a ShardedSystem from the resolved option set.
func newSharded(cfg config) (*ShardedSystem, error) {
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("latest: Shards must be positive, got %d", n)
	}
	// Before anything is built from them: the world is partitioned below.
	if err := validateOptions(&cfg); err != nil {
		return nil, err
	}
	rows, cols := shardGridDims(n)
	s := &ShardedSystem{
		grid:   geo.NewGrid(cfg.World, cols, rows),
		shards: make([]*shard, n),
	}
	s.bucketPool.New = func() any {
		b := make([][]Object, n)
		return &b
	}
	// Each shard pre-trains on its share of the engine's length, so set-up
	// pays for one pre-training, not one per shard.
	pretrain := cfg.PretrainQueries
	if pretrain == 0 {
		pretrain = core.DefaultPretrainQueries
	}
	baseLog := cmp.Or(cfg.Log, telemetry.Discard)
	for i := range s.shards {
		shardCfg := cfg
		shardCfg.World = s.grid.CellRect(i)
		// Shard 0 keeps the configured seed, so one-shard engines reproduce
		// each other's runs; the rest decorrelate their estimator randomness.
		shardCfg.Seed = cfg.Seed + int64(i)*1_000_003
		shardCfg.PretrainQueries = (pretrain + n - 1) / n
		shardCfg.Log = baseLog.With("component", fmt.Sprintf("shard-%d", i))
		sh, err := newShard(shardCfg)
		if err != nil {
			return nil, err
		}
		if n > 1 {
			sh.align = s.grid.Lattice()
		}
		s.shards[i] = sh
	}
	// The fingerprint takes world, seed and pre-training length from the
	// top-level options (shards see derived ones), so an image written
	// before shards split the length still restores; every other module
	// knob is identical across shards, so shard 0's resolved config stands
	// for all.
	mc := s.shards[0].module.Config()
	mc.PretrainQueries = pretrain
	s.fingerprint = configFingerprint(&cfg, mc)
	if cfg.TelemetryAddr != "" {
		srv, err := telemetry.Serve(cfg.TelemetryAddr, s.TelemetrySnapshot, baseLog)
		if err != nil {
			return nil, err
		}
		s.telem = srv
	}
	return s, nil
}

// Shutdown stops the telemetry server WithTelemetry started, if any — the
// only background resource the engine owns — letting in-flight scrapes
// finish, bounded by ctx, and leaves the system usable. Only the first call
// does anything.
func (s *ShardedSystem) Shutdown(ctx context.Context) error {
	var err error
	s.shutdownOnce.Do(func() {
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

// shardOf routes a point to its shard index: the grid cell it lies in,
// which is the shard whose rectangle contains it. Points outside the
// world clamp to the nearest shard.
func (s *ShardedSystem) shardOf(p Point) int { return s.grid.CellOf(p) }

// feedLocked validates and ingests one object; caller holds sh.mu. The
// object is validated first — non-finite coordinates are rejected,
// regressed timestamps clamped. A clamp repairs a copy staged in the shard,
// so the caller's slice is never modified; otherwise the pointee is only
// read, and the window store and the estimators copy what they keep. lastTS
// advances only on acceptance, so a rejected arrival carrying a garbage
// timestamp cannot poison the stream clock.
func (sh *shard) feedLocked(o *Object) {
	if o.Timestamp < sh.lastTS {
		sh.scratch = *o
		o = &sh.scratch
	}
	if !checkObject(o, sh.lastTS, &sh.gauges, sh.log) {
		return
	}
	sh.lastTS = o.Timestamp
	sh.window.Insert(*o)
	sh.module.Insert(o)
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
// shard's ingest gauges there: the lock serializes their writers, which
// the rolling ingest-rate counter relies on.
func (sh *shard) apply(objs []Object) {
	start := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range objs {
		sh.feedLocked(&objs[i])
	}
	sh.gauges.RecordBatch(len(objs), time.Since(start))
	sh.gauges.SetWindow(sh.window.Size(), sh.window.MemoryBytes())
}

// targets returns the shards a query must consult: every shard holding a
// point the range snaps to, or all shards for keyword-only queries. A
// range beyond the world is clamped onto it, as objects are, so it
// consults the boundary shards that store what lies beyond.
// When the hit shards are consecutive — one row of the grid, or whole
// rows — the range gets a sub-slice of s.shards, so the common point or
// small-range query routes without allocating.
func (s *ShardedSystem) targets(q *Query) []*shard {
	if !q.HasRange {
		return s.shards
	}
	cr := s.grid.Span(q.Range)
	cols := s.grid.Cols
	if cr.RowMin == cr.RowMax || cr.ColMin == 0 && cr.ColMax == cols-1 {
		return s.shards[cr.RowMin*cols+cr.ColMin : cr.RowMax*cols+cr.ColMax+1]
	}
	out := make([]*shard, 0, cr.Count())
	for row := cr.RowMin; row <= cr.RowMax; row++ {
		out = append(out, s.shards[row*cols+cr.ColMin:row*cols+cr.ColMax+1]...)
	}
	return out
}

// route validates (and where it can, repairs) the query — the one place a
// query is validated — then returns the shards it must consult:
// validation first, because a NaN or inverted rectangle would otherwise
// silently match no shard. Empty when the query was rejected (counted in
// shard 0's gauges).
func (s *ShardedSystem) route(q *Query) []*shard {
	sh := s.shards[0]
	if !checkQuery(q, &sh.gauges, sh.log) {
		return nil
	}
	return s.targets(q)
}

// dropSplit drops a split Estimate no Execute or ObserveActual paired,
// untrained, so the module is idle again; the pair's late second half then
// finds nothing pending. The fused query, a split Estimate and a snapshot
// call it before they touch the module. Only a split Estimate can leave
// the module pending while sh.mu is free: the fused query observes before
// it unlocks. Caller holds sh.mu.
func (sh *shard) dropSplit() {
	sh.module.Abandon()
	sh.pendingRejected = false
}

// estimate is a query's first half on the shard: any unpaired split
// Estimate is dropped, then the module answers. Caller holds sh.mu.
func (sh *shard) estimate(q *Query) float64 {
	sh.dropSplit()
	return sh.module.Estimate(q)
}

// query runs one atomic estimate/observe cycle on the shard, with tr
// installed on the module for exactly the span of the lock, so the module
// never observes a stale trace. A nil tr records nothing. A panic inside
// an estimator propagates to the caller with the lock released and the
// trace cleared, so the shard keeps serving.
func (sh *shard) query(q *Query, tr *telemetry.ActiveTrace) (estimate float64, actual int) {
	start := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.module.SetTrace(tr)
	defer sh.module.SetTrace(nil)
	estimate = sh.estimate(q)
	actual = sh.answer(q)
	sh.module.Observe(float64(actual))
	sh.gauges.RecordQuery(time.Since(start))
	return estimate, actual
}

// answer evicts up to q's window boundary and counts q exactly, its range
// aligned onto the engine's lattice when the shard holds part of the
// world: every shard then counts the objects a one-shard engine would,
// whatever lattice its own rectangle has.
func (sh *shard) answer(q *Query) int {
	if sh.align == nil || !q.HasRange {
		return sh.window.Answer(q)
	}
	aq := *q
	aq.Range = sh.align.Align(q.Range)
	return sh.window.Answer(&aq)
}

// EstimateAndExecute answers the query approximately, then exactly, and
// feeds each shard its own partial truth — one atomic estimate/observe
// cycle per shard the range reaches, fanned out in parallel. Estimates and
// exact counts are merged by summation, which is exact for the count
// because shards hold disjoint objects. A range beyond the world is
// clamped onto it, as objects are. It is EstimateAndExecuteTraced with a
// nil trace.
func (s *ShardedSystem) EstimateAndExecute(q *Query) (estimate float64, actual int) {
	return s.EstimateAndExecuteTraced(q, nil)
}

// EstimateAndExecuteTraced is the engine's one query path. A single-shard
// query threads tr into that shard's module (the common case — point and
// small-range queries route to one shard), so the trace's span timeline
// includes the estimator-inference stage. Otherwise the query scatters:
// one atomic estimate/observe cycle per target shard in parallel, recorded
// as one whole-fan-out span, because the trace recorder is single-owner.
// A panic on a shard's goroutine is recovered there and re-raised on the
// caller once every shard has answered, so it reaches the caller's recover
// rather than killing the process. A nil tr records nothing
// (telemetry.ActiveTrace is nil-safe).
func (s *ShardedSystem) EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (estimate float64, actual int) {
	targets := s.route(q)
	switch len(targets) {
	case 0:
		return 0, 0
	case 1:
		return targets[0].query(q, tr)
	}
	start := time.Now()
	type partial struct {
		est      float64
		act      int
		panicked any
	}
	parts := make([]partial, len(targets))
	var wg sync.WaitGroup
	for i, sh := range targets {
		wg.Add(1)
		go func(p *partial, sh *shard) {
			defer wg.Done()
			defer func() { p.panicked = recover() }()
			p.est, p.act = sh.query(q, nil)
		}(&parts[i], sh)
	}
	wg.Wait()
	for _, p := range parts {
		if p.panicked != nil {
			panic(p.panicked)
		}
	}
	// Sum in shard order so the merged estimate is deterministic for a
	// deterministic per-shard run.
	for _, p := range parts {
		estimate += p.est
		actual += p.act
	}
	tr.AddSpan("fanout", start)
	return estimate, actual
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

// Drain does nothing: a feed has been applied by the time FeedBatch
// returns.
//
// Deprecated: there is nothing to wait for; delete the call.
func (s *ShardedSystem) Drain() {}

// WindowSize returns the number of live objects across all shards.
func (s *ShardedSystem) WindowSize() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.window.Size()
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
		p := sh.module.Phase()
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
		out[i] = sh.module.ActiveName()
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
		out = append(out, sh.module.Switches()...)
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
// queries. PerShardStats adds the per-shard detail.
func (s *ShardedSystem) Stats() Stats { return s.PerShardStats().Merged }

// PerShardStats snapshots every shard and merges the module views.
func (s *ShardedSystem) PerShardStats() ShardedStats {
	out := ShardedStats{Shards: make([]ShardStats, len(s.shards))}
	parts := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		parts[i] = sh.module.Snapshot()
		ws := sh.window.Size()
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
