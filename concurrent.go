package latest

import "time"

// ConcurrentSystem is NewConcurrent's engine: the ShardedSystem with one
// shard, inline ingest and inline pre-fill — one module and one window
// store behind the shard's mutex, no background goroutine, no batch copy.
// It is the shape for applications that fan queries out across request
// handlers; for parallel ingest across CPU cores, see NewSharded, which
// partitions the lock spatially. Everything the embedded ShardedSystem
// documents holds (the atomic estimate/observe pairing, timestamp clamping
// across producers); the type adds what only makes sense with exactly one
// module. It keeps the "concurrent" log scope and /statusz engine name and
// System's snapshot layout, so either restores the other's snapshots.
type ConcurrentSystem struct {
	*ShardedSystem
}

// NewConcurrent builds a thread-safe LATEST system over the given world
// and sliding-window span. Sharding options (WithShards,
// WithIngestQueueDepth) are rejected with a descriptive error.
func NewConcurrent(world Rect, window time.Duration, opts ...Option) (*ConcurrentSystem, error) {
	cfg := buildConfig(world, window, opts)
	if err := validateOptions(&cfg, kindConcurrent); err != nil {
		return nil, err
	}
	cfg.Shards, cfg.SyncIngest = 1, true
	s, err := newSharded(cfg, kindConcurrent)
	if err != nil {
		return nil, err
	}
	return &ConcurrentSystem{s}, nil
}

// MustNewConcurrent is NewConcurrent but panics on error — for tests,
// examples and programs whose configuration is static.
func MustNewConcurrent(world Rect, window time.Duration, opts ...Option) *ConcurrentSystem {
	c, err := NewConcurrent(world, window, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// EstimateWith answers the query approximately and immediately closes the
// feedback loop with the truth produced by fn (called under the lock with
// the exact window count, letting callers substitute their own execution
// result or accept the store's). fn is not called for a query the
// validation policy rejects or whose range lies outside the world.
func (c *ConcurrentSystem) EstimateWith(q *Query, fn func(windowExact int) (actual float64)) float64 {
	targets := c.route(q)
	if len(targets) == 0 {
		return 0
	}
	est, _ := targets[0].query(q, nil, fn)
	return est
}

// ActiveEstimator returns the currently employed estimator's name.
func (c *ConcurrentSystem) ActiveEstimator() string { return c.ActiveEstimators()[0] }

// Gauges returns a point-in-time copy of the engine's operational counters
// and latency histograms without taking the engine lock.
func (c *ConcurrentSystem) Gauges() GaugeSnapshot { return c.shards[0].gauges.Snapshot() }

// Decisions returns the recent switch-decision audit records, oldest first.
func (c *ConcurrentSystem) Decisions() []Decision { return c.Stats().Decisions }
