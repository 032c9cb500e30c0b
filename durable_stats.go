package latest

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// durable_stats.go instruments the persistence wrapper and holds its
// failure surface. WAL append/fsync counters and latency histograms are
// fed by the persist.WALObserver callbacks, so they survive WAL
// rotations; everything on the feed path is a few atomic adds into
// lock-free histograms. The failure surface is a two-state machine
// (healthy/degraded) plus a bounded ring of recent persistence errors.
//
// The contract: serving never stops. A WAL or snapshot failure flips the
// engine to degraded — queries and feeds keep running from memory, doomed
// WAL appends stop (counted, not attempted), and the repair loop retries
// with exponential backoff. A repair is a fresh snapshot commit: it
// captures the full engine state (including every feed dropped from the
// WAL while degraded), rotates to a fresh WAL on a new generation, and
// re-arms the machine. What a crash loses while degraded is exactly the
// feeds since the last committed snapshot — the same bound a healthy
// engine has between fsyncs, just wider.

// durableErrRing bounds how many recent persistence errors are kept.
const durableErrRing = 8

// durableStats is the DurableEngine's measurement sink and state machine.
// TelemetrySnapshot reads it through sample, its only read path.
type durableStats struct {
	appends     atomic.Uint64
	appendBytes atomic.Uint64
	syncs       atomic.Uint64
	rotations   atomic.Uint64

	snapshots     atomic.Uint64
	snapErrors    atomic.Uint64
	lastSnapBytes atomic.Uint64

	walErrors      atomic.Uint64
	storeErrors    atomic.Uint64
	droppedAppends atomic.Uint64
	degradations   atomic.Uint64
	repairAttempts atomic.Uint64
	repairs        atomic.Uint64

	// degraded is the machine's position, read on the feed path without
	// any lock; mu guards when it was entered, the error ring (oldest
	// first) and the lifetime error count.
	degraded  atomic.Bool
	mu        sync.Mutex
	since     time.Time
	ring      []telemetry.DurableError
	errsTotal uint64

	appendLat telemetry.Histogram
	syncLat   telemetry.Histogram
	snapLat   telemetry.Histogram

	// Recovery facts are written once inside NewDurable, before the engine
	// is shared, so plain fields suffice.
	recoverySeconds   float64
	recoveryRecords   uint64
	recoveryTruncated int64
	recoveredSnapshot bool
	recoveredGen      uint64
	recoveredFallback bool
}

// durableStats implements persist.WALObserver.
var _ persist.WALObserver = (*durableStats)(nil)

// WALAppend implements persist.WALObserver: one write, however many
// records it carried (appendWAL counts those into appends).
func (s *durableStats) WALAppend(bytes int, d time.Duration) {
	s.appendBytes.Add(uint64(bytes))
	s.appendLat.Record(d)
}

// WALSync implements persist.WALObserver.
func (s *durableStats) WALSync(d time.Duration) {
	s.syncs.Add(1)
	s.syncLat.Record(d)
}

// noteErr records one persistence failure into the bounded ring and the
// per-surface counters. It does not change the state machine — degrade
// does that for failures that stop durability.
func (s *durableStats) noteErr(op string, err error) {
	if err == nil {
		return
	}
	switch op {
	case "wal-append", "wal-sync", "wal-close", "wal-recover":
		s.walErrors.Add(1)
	case "cleanup", "recover-snapshot":
		s.storeErrors.Add(1)
	}
	s.mu.Lock()
	s.errsTotal++
	if len(s.ring) == durableErrRing {
		s.ring = append(s.ring[:0], s.ring[1:]...)
	}
	s.ring = append(s.ring, telemetry.DurableError{UnixNanos: time.Now().UnixNano(), Op: op, Err: err.Error()})
	s.mu.Unlock()
}

// enter moves the machine to degraded (or back to healthy) and stamps the
// entry time; it reports false when the machine was already there.
func (s *durableStats) enter(degraded bool) bool {
	if !s.degraded.CompareAndSwap(!degraded, degraded) {
		return false
	}
	s.mu.Lock()
	s.since = time.Now()
	s.mu.Unlock()
	return true
}

// degrade records the failure and transitions healthy→degraded (a no-op
// transition when already degraded). The first transition logs and wakes
// the repair loop.
func (d *DurableEngine) degrade(op string, err error) {
	d.stats.noteErr(op, err)
	if !d.stats.enter(true) {
		return
	}
	d.stats.degradations.Add(1)
	d.log.Warn("durability degraded; serving continues from memory", "op", op, "err", err)
	select {
	case d.repairCh <- struct{}{}:
	default: // the loop is already awake
	}
}

// rearm transitions back to healthy after a successful repair (or a
// successful ordinary snapshot commit, which is the same thing: every
// acknowledged feed is durable again).
func (d *DurableEngine) rearm() {
	if !d.stats.enter(false) {
		return
	}
	d.stats.repairs.Add(1)
	d.log.Info("durability repaired", "generation", d.gen.Load(),
		"dropped_appends", d.stats.droppedAppends.Load())
}

// sample builds the exposition view: counters are atomics, the recovery
// facts are fixed at construction, and mu is held only to copy the
// bounded ring.
func (s *durableStats) sample(gen uint64) *telemetry.DurableSample {
	d := &telemetry.DurableSample{
		Generation:             gen,
		State:                  telemetry.DurableHealthy,
		WALAppends:             s.appends.Load(),
		WALBytes:               s.appendBytes.Load(),
		WALSyncs:               s.syncs.Load(),
		WALRotations:           s.rotations.Load(),
		WALErrors:              s.walErrors.Load(),
		StoreErrors:            s.storeErrors.Load(),
		DroppedAppends:         s.droppedAppends.Load(),
		Degradations:           s.degradations.Load(),
		RepairAttempts:         s.repairAttempts.Load(),
		Repairs:                s.repairs.Load(),
		Snapshots:              s.snapshots.Load(),
		SnapshotErrors:         s.snapErrors.Load(),
		LastSnapshotBytes:      s.lastSnapBytes.Load(),
		RecoverySeconds:        s.recoverySeconds,
		RecoveryWALRecords:     s.recoveryRecords,
		RecoveryTruncatedBytes: s.recoveryTruncated,
		RecoveredSnapshot:      s.recoveredSnapshot,
		RecoveredGeneration:    s.recoveredGen,
		RecoveredFallback:      s.recoveredFallback,
		AppendLatency:          s.appendLat.Snapshot(),
		SyncLatency:            s.syncLat.Snapshot(),
		SnapshotLatency:        s.snapLat.Snapshot(),
	}
	if s.degraded.Load() {
		d.State = telemetry.DurableDegraded
	}
	s.mu.Lock()
	d.StateSeconds = time.Since(s.since).Seconds()
	d.ErrorsTotal = s.errsTotal
	d.LastErrors = append(d.LastErrors, s.ring...)
	s.mu.Unlock()
	return d
}
