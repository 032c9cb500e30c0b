package latest

import (
	"context"
	"sync"
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

// ConcurrentSystem wraps a System with a mutex so multiple goroutines can
// feed and query it. Every operation — including Estimate, which records
// per-query measurement state — mutates the module, so a single exclusive
// lock is the honest synchronization (streaming ingest paths are
// single-writer in practice; this wrapper exists for applications that
// fan queries out across request handlers). For parallel ingest across
// CPU cores, see ShardedSystem, which partitions the lock spatially.
//
// Estimate and the feedback call must still pair up per query; under
// concurrency that pairing is only maintainable atomically, so
// ConcurrentSystem exposes the combined EstimateAndExecute/EstimateWith
// operations instead of the split halves.
//
// Timestamps should be non-decreasing per producer. With multiple
// producers, interleavings can present an older timestamp after a newer
// one; those arrivals are clamped to the system's high-water mark rather
// than panicking the window store.
type ConcurrentSystem struct {
	mu      sync.Mutex
	sys     *System
	scratch Object

	telem     *telemetry.Server
	closeOnce sync.Once
}

// NewConcurrent builds a thread-safe LATEST system over the given world
// and sliding-window span. Sharding options (WithShards,
// WithSynchronousPrefill, WithPrefillQueueDepth) are rejected with a
// descriptive error.
func NewConcurrent(world Rect, window time.Duration, opts ...Option) (*ConcurrentSystem, error) {
	cfg := buildConfig(world, window, opts)
	sys, err := newSystem(cfg, nil, "inline", "concurrent", kindConcurrent)
	if err != nil {
		return nil, err
	}
	c := &ConcurrentSystem{sys: sys}
	if cfg.TelemetryAddr != "" {
		srv, err := telemetry.Serve(cfg.TelemetryAddr, c.telemetrySnapshot, sys.log)
		if err != nil {
			return nil, err
		}
		c.telem = srv
	}
	return c, nil
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

// Close stops the telemetry server if one was started. Idempotent; the
// system remains usable afterwards.
func (c *ConcurrentSystem) Close() {
	c.closeOnce.Do(func() {
		if c.telem != nil {
			c.telem.Close()
		}
	})
}

// Shutdown is the graceful form of Close: the telemetry exposition server
// (if one was started) finishes in-flight scrapes before stopping, bounded
// by ctx. Shares Close's once — whichever runs first wins, the other is a
// no-op.
func (c *ConcurrentSystem) Shutdown(ctx context.Context) error {
	var err error
	c.closeOnce.Do(func() {
		if c.telem != nil {
			err = c.telem.Shutdown(ctx)
		}
	})
	return err
}

// TelemetryAddr returns the bound address of the telemetry server, or ""
// when WithTelemetry was not used. With a ":0" listen address this is how
// callers learn the kernel-assigned port.
func (c *ConcurrentSystem) TelemetryAddr() string {
	if c.telem == nil {
		return ""
	}
	return c.telem.Addr()
}

// feedLocked ingests one object, clamping regressed timestamps to the
// high-water mark under the default ValidationClamp policy (counted in the
// Reordered gauge; under stricter policies the System-level validation
// rejects the arrival instead). The high-water mark is the wrapped
// System's lastTS, which advances only when validation accepts an object,
// so a rejected arrival (e.g. NaN coordinates) carrying a garbage
// timestamp cannot poison the stream clock. Caller holds c.mu.
func (c *ConcurrentSystem) feedLocked(o *Object) {
	if o.Timestamp < c.sys.lastTS && c.sys.policy == ValidationClamp {
		c.scratch = *o
		c.scratch.Timestamp = c.sys.lastTS
		o = &c.scratch
		c.sys.gauges.RecordReordered()
	}
	c.sys.feedPtr(o)
}

// Feed ingests one stream object. One in metrics.FeedSampleInterval feeds
// is timed (clock reads outside the lock) into the ingest histogram.
func (c *ConcurrentSystem) Feed(o Object) {
	sampled := c.sys.gauges.RecordFeed()
	var start time.Time
	if sampled {
		start = time.Now()
	}
	c.mu.Lock()
	c.feedLocked(&o)
	occ, bytes := c.sys.window.Size(), c.sys.window.MemoryBytes()
	c.mu.Unlock()
	if sampled {
		c.sys.gauges.RecordFeedLatency(time.Since(start))
	}
	c.sys.gauges.SetWindow(occ, bytes)
}

// FeedBatch ingests a batch of stream objects under a single lock
// acquisition, amortizing the contention cost across the batch.
func (c *ConcurrentSystem) FeedBatch(objs []Object) {
	if len(objs) == 0 {
		return
	}
	start := time.Now()
	c.mu.Lock()
	for i := range objs {
		c.feedLocked(&objs[i])
	}
	occ, bytes := c.sys.window.Size(), c.sys.window.MemoryBytes()
	c.mu.Unlock()
	c.sys.gauges.RecordBatch(len(objs), time.Since(start))
	c.sys.gauges.SetWindow(occ, bytes)
}

// EstimateAndExecute answers the query approximately, then exactly, and
// feeds the truth back — one atomic estimate/observe cycle.
func (c *ConcurrentSystem) EstimateAndExecute(q *Query) (estimate float64, actual int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.EstimateAndExecute(q)
}

// EstimateAndExecuteBatch runs EstimateAndExecute over a batch of queries
// under a single lock acquisition, returning the parallel estimate and
// exact-count slices.
func (c *ConcurrentSystem) EstimateAndExecuteBatch(qs []Query) (estimates []float64, actuals []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.EstimateAndExecuteBatch(qs)
}

// EstimateWith answers the query approximately and immediately closes the
// feedback loop with the truth produced by fn (called under the lock with
// the exact window count, letting callers substitute their own execution
// result or accept the store's).
func (c *ConcurrentSystem) EstimateWith(q *Query, fn func(windowExact int) (actual float64)) float64 {
	start := time.Now()
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
		c.sys.gauges.RecordQuery(time.Since(start))
	}()
	est := c.sys.Estimate(q)
	if c.sys.pendingRejected {
		// The validation policy refused the query: no estimate was made,
		// so there is no feedback loop to close and no store to consult.
		c.sys.pendingRejected = false
		return est
	}
	exact := c.sys.window.Answer(q)
	c.sys.ObserveActual(fn(exact))
	return est
}

// ActiveEstimator returns the currently employed estimator's name.
func (c *ConcurrentSystem) ActiveEstimator() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.ActiveEstimator()
}

// Phase returns the lifecycle phase.
func (c *ConcurrentSystem) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.Phase()
}

// Switches returns the switch history.
func (c *ConcurrentSystem) Switches() []SwitchEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.Switches()
}

// WindowSize returns the number of live objects in the exact store.
func (c *ConcurrentSystem) WindowSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.WindowSize()
}

// Stats returns a snapshot of the module internals.
func (c *ConcurrentSystem) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.Stats()
}

// Gauges returns a point-in-time copy of the engine's operational counters
// and latency histograms without taking the engine lock.
func (c *ConcurrentSystem) Gauges() GaugeSnapshot { return c.sys.gauges.Snapshot() }

// Decisions returns the recent switch-decision audit records, oldest first.
func (c *ConcurrentSystem) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sys.Decisions()
}
