package latest

import (
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// durable_stats.go instruments the persistence wrapper: WAL append/fsync
// counters and latency histograms (fed by the persist.WALObserver
// callbacks, so they survive WAL rotations), snapshot commit outcomes and
// sizes, degraded-mode transition counters, and the one-time startup
// recovery cost. Everything on the feed path is a few atomic adds into
// lock-free histograms.

// durableStats is the DurableEngine's measurement sink.
type durableStats struct {
	appends     atomic.Uint64
	appendBytes atomic.Uint64
	syncs       atomic.Uint64
	rotations   atomic.Uint64

	snapshots     atomic.Uint64
	snapErrors    atomic.Uint64
	lastSnapBytes atomic.Uint64

	// Failure-surface counters for the degraded-mode state machine
	// (durable_health.go reads them into DurableHealth).
	walErrors      atomic.Uint64
	storeErrors    atomic.Uint64
	droppedAppends atomic.Uint64
	degradations   atomic.Uint64
	repairAttempts atomic.Uint64
	repairs        atomic.Uint64

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

// sample builds the exposition view. h carries the state machine's
// position and counters so the sample is one consistent read.
func (s *durableStats) sample(gen uint64, h DurableHealth) *telemetry.DurableSample {
	d := &telemetry.DurableSample{
		Generation:             gen,
		State:                  h.State.String(),
		WALAppends:             s.appends.Load(),
		WALBytes:               s.appendBytes.Load(),
		WALSyncs:               s.syncs.Load(),
		WALRotations:           s.rotations.Load(),
		WALErrors:              h.WALErrors,
		StoreErrors:            h.StoreErrors,
		DroppedAppends:         h.DroppedAppends,
		Degradations:           h.Degradations,
		RepairAttempts:         h.RepairAttempts,
		Repairs:                h.Repairs,
		ErrorsTotal:            h.ErrorsTotal,
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
	if !h.Since.IsZero() {
		d.StateSeconds = time.Since(h.Since).Seconds()
	}
	for _, e := range h.Errors {
		d.LastErrors = append(d.LastErrors, telemetry.DurableError{
			UnixNanos: e.Time.UnixNano(), Op: e.Op, Err: e.Err,
		})
	}
	return d
}

// RecoverySeconds reports the startup cost of snapshot restore plus WAL
// replay, for operator log lines and dashboards.
func (d *DurableEngine) RecoverySeconds() float64 { return d.stats.recoverySeconds }
