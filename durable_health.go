package latest

import (
	"context"
	"time"
)

// durable_health.go is the durability layer's failure surface: a two-state
// machine (healthy/degraded), a bounded ring of recent persistence errors
// replacing the old single latched Err(), and RepairNow, which the
// engine's background goroutine (DurableEngine.run) retries to re-arm it.
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

// DurableState is the durability layer's serving-independent health state.
type DurableState uint32

const (
	// DurableHealthy: WAL appends and snapshots are succeeding.
	DurableHealthy DurableState = iota
	// DurableDegraded: a persistence operation failed; serving continues
	// from memory, WAL appends are dropped (counted), and the repair loop
	// is retrying.
	DurableDegraded
)

// String implements fmt.Stringer.
func (s DurableState) String() string {
	switch s {
	case DurableHealthy:
		return "healthy"
	case DurableDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// durableErrRing bounds how many recent persistence errors Health keeps.
const durableErrRing = 8

// DurableErrorRecord is one retained persistence failure.
type DurableErrorRecord struct {
	// Time is when the failure was recorded.
	Time time.Time `json:"time"`
	// Op names the failing operation ("wal-append", "snapshot",
	// "wal-recover", "cleanup", ...).
	Op string `json:"op"`
	// Err is the failure's rendered message.
	Err string `json:"err"`
}

// DurableHealth is the typed replacement for the old latched Err(): the
// state machine's position, when it got there, lifetime counters, and the
// most recent errors (oldest first, at most durableErrRing retained —
// ErrorsTotal says how many there were in all).
type DurableHealth struct {
	// State is the machine's current position; Since when it was entered.
	State DurableState `json:"state"`
	Since time.Time    `json:"since"`

	// WALErrors counts failed WAL operations (append, sync, close,
	// recovery-time truncation); StoreErrors failed housekeeping (cleanup)
	// and snapshot generations recovery could not read, each skipped for
	// an older one; SnapshotErrors failed snapshot commits.
	WALErrors      uint64 `json:"wal_errors"`
	StoreErrors    uint64 `json:"store_errors"`
	SnapshotErrors uint64 `json:"snapshot_errors"`

	// DroppedAppends counts feeds not written to the WAL while degraded
	// (the failing append itself included). They are in engine memory and
	// become durable with the repair snapshot; a crash before it loses
	// them.
	DroppedAppends uint64 `json:"dropped_appends"`

	// Degradations counts healthy→degraded transitions; RepairAttempts
	// snapshot-based repair tries; Repairs successful re-arms.
	Degradations   uint64 `json:"degradations"`
	RepairAttempts uint64 `json:"repair_attempts"`
	Repairs        uint64 `json:"repairs"`

	// ErrorsTotal is the lifetime persistence-error count; Errors the
	// retained tail of them, oldest first.
	ErrorsTotal uint64               `json:"errors_total"`
	Errors      []DurableErrorRecord `json:"errors,omitempty"`
}

// Healthy reports whether the machine is in the healthy state.
func (h DurableHealth) Healthy() bool { return h.State == DurableHealthy }

// Health returns the durability layer's failure surface. Cheap enough for
// per-request probes: counters are atomics, the ring copy is bounded.
func (d *DurableEngine) Health() DurableHealth {
	h := DurableHealth{
		State:          DurableState(d.state.Load()),
		WALErrors:      d.stats.walErrors.Load(),
		StoreErrors:    d.stats.storeErrors.Load(),
		SnapshotErrors: d.stats.snapErrors.Load(),
		DroppedAppends: d.stats.droppedAppends.Load(),
		Degradations:   d.stats.degradations.Load(),
		RepairAttempts: d.stats.repairAttempts.Load(),
		Repairs:        d.stats.repairs.Load(),
	}
	d.healthMu.Lock()
	h.Since = d.since
	h.ErrorsTotal = d.errsTotal
	h.Errors = append(h.Errors, d.ring...)
	d.healthMu.Unlock()
	return h
}

// noteErr records one persistence failure into the bounded ring and the
// per-surface counters. It does not change the state machine — degrade
// does that for failures that stop durability.
func (d *DurableEngine) noteErr(op string, err error) {
	if err == nil {
		return
	}
	switch op {
	case "wal-append", "wal-sync", "wal-close", "wal-recover":
		d.stats.walErrors.Add(1)
	case "cleanup", "recover-snapshot":
		d.stats.storeErrors.Add(1)
	}
	d.healthMu.Lock()
	d.errsTotal++
	if len(d.ring) == durableErrRing {
		copy(d.ring, d.ring[1:])
		d.ring = d.ring[:durableErrRing-1]
	}
	d.ring = append(d.ring, DurableErrorRecord{Time: time.Now(), Op: op, Err: err.Error()})
	d.healthMu.Unlock()
}

// degrade records the failure and transitions healthy→degraded (a no-op
// transition when already degraded). The first transition stamps Since,
// logs, and wakes the repair loop.
func (d *DurableEngine) degrade(op string, err error) {
	d.noteErr(op, err)
	if !d.state.CompareAndSwap(uint32(DurableHealthy), uint32(DurableDegraded)) {
		return
	}
	d.stats.degradations.Add(1)
	d.healthMu.Lock()
	d.since = time.Now()
	d.healthMu.Unlock()
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
	if !d.state.CompareAndSwap(uint32(DurableDegraded), uint32(DurableHealthy)) {
		return
	}
	d.stats.repairs.Add(1)
	d.healthMu.Lock()
	d.since = time.Now()
	d.healthMu.Unlock()
	d.log.Info("durability repaired", "generation", d.gen.Load(),
		"dropped_appends", d.stats.droppedAppends.Load())
}

// RepairNow makes one synchronous repair attempt: a fresh snapshot commit
// onto a new generation. A success re-arms the state machine (the commit
// captures every feed dropped while degraded); a failure records the
// error and leaves the engine degraded. A no-op when healthy. The
// background goroutine calls this with backoff; tests and operators can
// call it directly for a deterministic repair point.
func (d *DurableEngine) RepairNow(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if DurableState(d.state.Load()) != DurableDegraded {
		return nil
	}
	d.stats.repairAttempts.Add(1)
	return d.snapshotLocked(ctx)
}
