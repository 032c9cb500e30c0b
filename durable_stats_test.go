package latest

import (
	"context"
	"testing"
)

// TestDurableTelemetryStats: the durability layer's slice of the telemetry
// snapshot reflects WAL traffic, snapshot commits and recovery cost.
func TestDurableTelemetryStats(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(31)
	w.feed(dur, 300)
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.feed(dur, 50) // WAL tail past the snapshot

	d := dur.TelemetrySnapshot().Durable
	if d == nil {
		t.Fatal("DurableEngine snapshot has no Durable sample")
	}
	if d.WALAppends != 350 {
		t.Errorf("WALAppends = %d, want 350 (counter spans rotations)", d.WALAppends)
	}
	if d.WALBytes == 0 {
		t.Error("WALBytes = 0")
	}
	if d.WALSyncs == 0 {
		t.Error("WALSyncs = 0 with WALSyncEvery=1")
	}
	if d.AppendLatency.Count != d.WALAppends {
		t.Errorf("append histogram count %d != appends %d", d.AppendLatency.Count, d.WALAppends)
	}
	if d.SyncLatency.Count != d.WALSyncs {
		t.Errorf("sync histogram count %d != syncs %d", d.SyncLatency.Count, d.WALSyncs)
	}
	if d.Snapshots != 1 || d.SnapshotErrors != 0 {
		t.Errorf("snapshots = %d errors = %d", d.Snapshots, d.SnapshotErrors)
	}
	if d.Generation != 1 || d.WALRotations != 1 {
		t.Errorf("generation = %d rotations = %d, want 1/1", d.Generation, d.WALRotations)
	}
	if d.LastSnapshotBytes == 0 {
		t.Error("LastSnapshotBytes = 0 after a committed snapshot")
	}
	if d.SnapshotLatency.Count != 1 {
		t.Errorf("snapshot histogram count = %d", d.SnapshotLatency.Count)
	}
	// Fresh directory: nothing was recovered.
	if d.RecoveredSnapshot || d.RecoveryWALRecords != 0 {
		t.Errorf("fresh start reported recovery: %+v", d)
	}

	// A second incarnation recovers snapshot + WAL tail and reports the cost.
	re := newDurable(t, st)
	rd := re.TelemetrySnapshot().Durable
	if !rd.RecoveredSnapshot {
		t.Error("recovered engine did not report RecoveredSnapshot")
	}
	if rd.RecoveryWALRecords != 50 {
		t.Errorf("RecoveryWALRecords = %d, want 50", rd.RecoveryWALRecords)
	}
	if rd.RecoverySeconds <= 0 {
		t.Errorf("RecoverySeconds = %v, want > 0", rd.RecoverySeconds)
	}
	// Per-process counters restart; recovery replay is not WAL traffic.
	if rd.WALAppends != 0 {
		t.Errorf("recovered engine WALAppends = %d before any feed", rd.WALAppends)
	}
	w.feed(re, 10)
	if got := re.TelemetrySnapshot().Durable.WALAppends; got != 10 {
		t.Errorf("WALAppends after 10 feeds = %d", got)
	}
}
