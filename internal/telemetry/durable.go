package telemetry

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

// The degraded-mode machine's two positions, as DurableSample.State
// spells them. Degraded: a persistence operation failed; serving
// continues from memory, WAL appends are dropped (counted), and the
// repair loop is retrying.
const (
	DurableHealthy  = "healthy"
	DurableDegraded = "degraded"
)

// DurableSample is the durability layer's slice of a Snapshot.
type DurableSample struct {
	// Generation is the current snapshot generation (each snapshot commit
	// increments it and rotates the WAL).
	Generation uint64 `json:"generation"`

	// State is the degraded-mode machine's position (DurableHealthy or
	// DurableDegraded); StateSeconds how long it has been there.
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
