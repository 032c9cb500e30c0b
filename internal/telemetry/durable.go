package telemetry

import (
	"strconv"
	"strings"
)

// durable.go holds the durability layer's slice of a telemetry Snapshot:
// WAL append/fsync counters and latency distributions, snapshot
// duration/size/generation, and the startup recovery cost. The types live
// here (below latest.DurableEngine in the dependency order) so the
// exposition renderer can describe the layer without importing it —
// mirroring how serving.go describes internal/frontend.

// DurableError is one retained persistence failure, for /statusz.
type DurableError struct {
	UnixNanos int64  `json:"unix_nanos"`
	Op        string `json:"op"`
	Err       string `json:"err"`
}

// DurableSample is the durability layer's slice of a Snapshot.
type DurableSample struct {
	// Generation is the current snapshot generation (each snapshot commit
	// increments it and rotates the WAL).
	Generation uint64 `json:"generation"`

	// State is the degraded-mode machine's position ("healthy" or
	// "degraded"); StateSeconds how long it has been there.
	State        string  `json:"state"`
	StateSeconds float64 `json:"state_seconds"`

	// WALAppends counts records (fed objects) appended to the live WAL
	// across all generations, however many a write carried; WALBytes the
	// framed bytes written; WALSyncs the fsyncs issued; WALRotations the
	// generation rollovers.
	WALAppends   uint64 `json:"wal_appends"`
	WALBytes     uint64 `json:"wal_bytes"`
	WALSyncs     uint64 `json:"wal_syncs"`
	WALRotations uint64 `json:"wal_rotations"`

	// WALErrors counts failed WAL operations; StoreErrors failed store
	// housekeeping; DroppedAppends fed objects not logged — a whole batch
	// when its write failed or the engine was degraded (in memory only
	// until the repair snapshot commits).
	WALErrors      uint64 `json:"wal_errors"`
	StoreErrors    uint64 `json:"store_errors"`
	DroppedAppends uint64 `json:"dropped_appends"`

	// Degradations counts healthy-to-degraded transitions; RepairAttempts
	// snapshot-based repair tries; Repairs successful re-arms;
	// ErrorsTotal every persistence error recorded.
	Degradations   uint64 `json:"degradations"`
	RepairAttempts uint64 `json:"repair_attempts"`
	Repairs        uint64 `json:"repairs"`
	ErrorsTotal    uint64 `json:"errors_total"`

	// LastErrors is the bounded tail of recent persistence failures,
	// oldest first.
	LastErrors []DurableError `json:"last_errors,omitempty"`

	// Snapshots counts committed snapshots this process took;
	// SnapshotErrors failed attempts (each degrades the state machine;
	// the engine keeps serving from memory).
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// LastSnapshotBytes is the serialized size of the most recent committed
	// snapshot.
	LastSnapshotBytes uint64 `json:"last_snapshot_bytes"`

	// RecoverySeconds is the startup cost of restore + WAL replay (near
	// zero for a fresh directory); RecoveryWALRecords the records replayed;
	// RecoveryTruncatedBytes the torn tail discarded from the live WAL.
	RecoverySeconds        float64 `json:"recovery_seconds"`
	RecoveryWALRecords     uint64  `json:"recovery_wal_records"`
	RecoveryTruncatedBytes int64   `json:"recovery_truncated_bytes"`
	// RecoveredSnapshot is true when startup restored from a snapshot
	// (false: fresh start, WAL-only replay counts from generation 0).
	RecoveredSnapshot bool `json:"recovered_snapshot"`
	// RecoveredGeneration is the generation startup restored from;
	// RecoveredFallback is true when that was not the newest generation on
	// disk (the newest failed its checksums and recovery fell back).
	RecoveredGeneration uint64 `json:"recovered_generation"`
	RecoveredFallback   bool   `json:"recovered_fallback"`

	// AppendLatency is the WAL append call distribution (framing + write,
	// fsync excluded), SyncLatency the fsync-batch distribution, and
	// SnapshotLatency full snapshot commits (serialize + rename + WAL
	// rotation).
	AppendLatency   HistSnapshot `json:"append_latency"`
	SyncLatency     HistSnapshot `json:"sync_latency"`
	SnapshotLatency HistSnapshot `json:"snapshot_latency"`
}

// writeDurableProm renders the latest_wal_*, latest_snapshot_* and
// latest_recovery_* metric families.
func writeDurableProm(b *strings.Builder, d *DurableSample) {
	counter := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " counter\n")
	}
	gauge := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " gauge\n")
	}
	hist := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " histogram\n")
	}
	sample := func(name string, v float64) {
		b.WriteString(name + " " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
	}
	boolGauge := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}

	counter("latest_wal_appends_total", "Records appended to the feed WAL.")
	sample("latest_wal_appends_total", float64(d.WALAppends))
	counter("latest_wal_bytes_total", "Framed bytes written to the feed WAL.")
	sample("latest_wal_bytes_total", float64(d.WALBytes))
	counter("latest_wal_fsyncs_total", "Fsync batches issued on the feed WAL.")
	sample("latest_wal_fsyncs_total", float64(d.WALSyncs))
	counter("latest_wal_rotations_total", "WAL generation rollovers (one per committed snapshot).")
	sample("latest_wal_rotations_total", float64(d.WALRotations))
	hist("latest_wal_append_latency_seconds", "WAL write latency, one sample per write: a whole feed batch framed and written (fsync excluded).")
	promHistogramOne(b, "latest_wal_append_latency_seconds", "", d.AppendLatency)
	hist("latest_wal_fsync_latency_seconds", "WAL fsync-batch latency.")
	promHistogramOne(b, "latest_wal_fsync_latency_seconds", "", d.SyncLatency)

	gauge("latest_durable_state", "Degraded-mode state machine position (0 healthy, 1 degraded).")
	sample("latest_durable_state", boolGauge(d.State == "degraded"))
	gauge("latest_durable_state_seconds", "Seconds in the current durability state.")
	sample("latest_durable_state_seconds", d.StateSeconds)
	counter("latest_durable_degradations_total", "Healthy-to-degraded transitions.")
	sample("latest_durable_degradations_total", float64(d.Degradations))
	counter("latest_durable_repair_attempts_total", "Snapshot-based repair attempts while degraded.")
	sample("latest_durable_repair_attempts_total", float64(d.RepairAttempts))
	counter("latest_durable_repairs_total", "Successful repairs (degraded back to healthy).")
	sample("latest_durable_repairs_total", float64(d.Repairs))
	counter("latest_durable_dropped_appends_total", "Feeds not WAL-logged while degraded (durable again after the repair snapshot).")
	sample("latest_durable_dropped_appends_total", float64(d.DroppedAppends))
	counter("latest_durable_wal_errors_total", "Failed WAL operations (append, fsync, close, recovery truncation).")
	sample("latest_durable_wal_errors_total", float64(d.WALErrors))
	counter("latest_durable_store_errors_total", "Failed store housekeeping operations.")
	sample("latest_durable_store_errors_total", float64(d.StoreErrors))
	counter("latest_durable_errors_total", "All persistence errors recorded.")
	sample("latest_durable_errors_total", float64(d.ErrorsTotal))

	counter("latest_snapshots_total", "Snapshots committed by this process.")
	sample("latest_snapshots_total", float64(d.Snapshots))
	counter("latest_snapshot_errors_total", "Snapshot attempts that failed (engine keeps serving).")
	sample("latest_snapshot_errors_total", float64(d.SnapshotErrors))
	gauge("latest_snapshot_generation", "Current snapshot generation.")
	sample("latest_snapshot_generation", float64(d.Generation))
	gauge("latest_snapshot_bytes", "Serialized size of the most recent committed snapshot.")
	sample("latest_snapshot_bytes", float64(d.LastSnapshotBytes))
	hist("latest_snapshot_duration_seconds", "Full snapshot commit latency (serialize, rename, WAL rotation).")
	promHistogramOne(b, "latest_snapshot_duration_seconds", "", d.SnapshotLatency)

	gauge("latest_recovery_seconds", "Startup restore plus WAL replay wall time.")
	sample("latest_recovery_seconds", d.RecoverySeconds)
	gauge("latest_recovery_wal_records", "WAL records replayed at startup.")
	sample("latest_recovery_wal_records", float64(d.RecoveryWALRecords))
	gauge("latest_recovery_truncated_bytes", "Torn-tail bytes truncated from the live WAL at startup.")
	sample("latest_recovery_truncated_bytes", float64(d.RecoveryTruncatedBytes))
	gauge("latest_recovery_from_snapshot", "1 when startup restored from a snapshot.")
	sample("latest_recovery_from_snapshot", boolGauge(d.RecoveredSnapshot))
	gauge("latest_recovery_generation", "Snapshot generation startup restored from.")
	sample("latest_recovery_generation", float64(d.RecoveredGeneration))
	gauge("latest_recovery_fallback", "1 when recovery fell back past a corrupt newest snapshot generation.")
	sample("latest_recovery_fallback", boolGauge(d.RecoveredFallback))
}
