package latest

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// durable_groupcommit_test.go pins the feed WAL's group commit: what the
// disk sees per FeedBatch (writes, fsyncs), that the bytes are the ones a
// record-at-a-time writer produced, what a batch torn by the device looks
// like on recovery, and that the durable layer allocates nothing per feed.

// recEngine is an engine that only remembers the IDs it was fed, so a test
// or benchmark over a DurableEngine sees the durable layer alone and a
// recovery test can name exactly which objects came back. Its image is an
// empty container: rotation and repair work, restoring does not.
type recEngine struct {
	imageEngine
	ids []uint64
}

func (e *recEngine) FeedBatch(objs []Object) {
	for i := range objs {
		e.ids = append(e.ids, objs[i].ID)
	}
}

func (*recEngine) encodeImage(context.Context, uint64) ([]byte, error) {
	return persist.NewSnapshotWriter(0).Bytes(), nil
}

func (*recEngine) Shutdown(context.Context) error { return nil }

// discardEngine drops its feeds: the zero-allocation baseline.
type discardEngine struct{ recEngine }

func (*discardEngine) FeedBatch([]Object) {}

// countStore counts what the durable layer asks of the disk. Its append
// files keep no bytes.
type countStore struct {
	Store
	appends, syncs   int
	bytes, maxAppend int
}

func (c *countStore) OpenAppend(string, int64) (persist.AppendFile, error) {
	return countFile{c}, nil
}

type countFile struct{ c *countStore }

func (f countFile) Append(p []byte) error {
	f.c.appends++
	f.c.bytes += len(p)
	f.c.maxAppend = max(f.c.maxAppend, len(p))
	return nil
}
func (f countFile) Sync() error  { f.c.syncs++; return nil }
func (f countFile) Close() error { return nil }

// testObjects builds n distinct objects with IDs from first.
func testObjects(first, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		id := first + i
		objs[i] = Object{
			ID:        uint64(id),
			Loc:       Pt(float64(id%97)/97, float64(id%89)/89),
			Keywords:  []string{"kw" + string(rune('a'+id%26)), "shared"},
			Timestamp: int64(id),
		}
	}
	return objs
}

// refRecord frames one object the way the log format documents it — magic,
// payload length, payload CRC, payload — independently of persist's writer:
// it is the record a one-object-per-write log (every earlier build) holds.
func refRecord(buf []byte, o *Object) []byte {
	var e persist.Enc
	stream.EncodeObject(&e, o)
	buf = append(buf, 0xA7)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(e.Data()))
	return append(buf, e.Data()...)
}

// quietDurable opens a DurableEngine whose repair loop stays out of the
// test's way.
func quietDurable(t testing.TB, eng imageEngine, st Store, syncEvery int) *DurableEngine {
	t.Helper()
	d, err := openDurable(eng, st, DurableConfig{
		WALSyncEvery: syncEvery, RepairBackoff: time.Hour, RepairBackoffMax: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestGroupCommitWritesAndSyncs: one write and at most one fsync per
// FeedBatch at the default config, whatever the batch holds.
func TestGroupCommitWritesAndSyncs(t *testing.T) {
	feed := func(t *testing.T, total, batch int) *countStore {
		cs := &countStore{Store: NewMemStore()}
		d := quietDurable(t, &discardEngine{}, cs, 0)
		objs := testObjects(0, batch)
		for done := 0; done < total; done += batch {
			d.FeedBatch(objs[:min(batch, total-done)])
		}
		if got := d.WALAppends(); got != uint64(total) {
			t.Errorf("WALAppends = %d records, want %d", got, total)
		}
		return cs
	}
	t.Run("benchmark fill: 120000 in 256s", func(t *testing.T) {
		// 468 full batches and one of 192; every one is at least
		// WALSyncEvery records, so every one returns fsynced. The parent
		// commit made 120 000 writes and 1 875 fsyncs of this.
		cs := feed(t, 120_000, 256)
		if cs.appends != 469 || cs.syncs != 469 {
			t.Fatalf("writes = %d, fsyncs = %d, want 469 and 469", cs.appends, cs.syncs)
		}
	})
	t.Run("16-object batches sync on every fourth", func(t *testing.T) {
		cs := feed(t, 16*40, 16)
		if cs.appends != 40 || cs.syncs != 10 {
			t.Fatalf("writes = %d, fsyncs = %d, want 40 and 10", cs.appends, cs.syncs)
		}
	})
	t.Run("single feeds are one-record batches", func(t *testing.T) {
		cs := &countStore{Store: NewMemStore()}
		d := quietDurable(t, &discardEngine{}, cs, 0)
		for _, o := range testObjects(0, 130) {
			d.FeedBatch([]Object{o})
		}
		if cs.appends != 130 || cs.syncs != 2 {
			t.Fatalf("writes = %d, fsyncs = %d, want 130 and 2", cs.appends, cs.syncs)
		}
	})
	t.Run("replay-sized batch goes out in pieces, one fsync", func(t *testing.T) {
		cs := feed(t, 100_000, 100_000)
		const flush = 256 << 10 // persist's walFlushBytes
		if cs.maxAppend >= flush+1024 {
			t.Errorf("a %d-byte write: a piece is the flush size plus at most the record that crossed it", cs.maxAppend)
		}
		if want := cs.bytes/flush + 1; cs.appends < want-1 || cs.appends > want {
			t.Errorf("%d bytes went out in %d writes, want %d or one fewer", cs.bytes, cs.appends, want)
		}
		if cs.syncs != 1 {
			t.Errorf("fsyncs = %d, want 1", cs.syncs)
		}
	})
}

// TestGroupCommitBytesUnchanged: a batch, the same objects fed one by one,
// and a record-at-a-time reference writer all leave the same file, so logs
// cross between this build and every earlier one; and the file replays.
func TestGroupCommitBytesUnchanged(t *testing.T) {
	objs := testObjects(1, 300)
	var want []byte
	for i := range objs {
		want = refRecord(want, &objs[i])
	}

	batched, single := NewMemStore(), NewMemStore()
	quietDurable(t, &discardEngine{}, batched, 0).FeedBatch(objs)
	ds := quietDurable(t, &discardEngine{}, single, 0)
	for _, o := range objs {
		ds.FeedBatch([]Object{o})
	}
	for name, st := range map[string]*MemStore{"one batch": batched, "batches of one": single} {
		got, err := st.Load(persist.WALName(0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s wrote %d bytes that differ from the %d-byte record-at-a-time log", name, len(got), len(want))
		}
	}

	// A log an earlier build wrote (the reference bytes) replays here, and
	// so does the one this build wrote — both crashed, neither snapshotted.
	old := NewMemStore()
	if err := old.Save(persist.WALName(0), want); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*MemStore{"reference log": old, "batched log": batched} {
		eng := &recEngine{}
		d := quietDurable(t, eng, st, 0)
		if d.stats.recoveryRecords != 300 || d.stats.recoveryTruncated != 0 {
			t.Errorf("%s: replayed %d records, dropped %d bytes, want 300 and 0",
				name, d.stats.recoveryRecords, d.stats.recoveryTruncated)
		}
		if len(eng.ids) != 300 || eng.ids[0] != 1 || eng.ids[299] != 300 {
			t.Errorf("%s: replay fed %d objects", name, len(eng.ids))
		}
	}
}

// TestGroupCommitTornBatch: the device tears a batch write in the middle of
// a record. The engine degrades and counts the whole batch as dropped;
// recovery keeps exactly the whole records before the tear and reports the
// torn bytes.
func TestGroupCommitTornBatch(t *testing.T) {
	inner := NewMemStore()
	fst := persist.NewFaultStore(inner, persist.FaultRule{
		Op: persist.FaultAppend, Kind: persist.FaultShortWrite, After: 1, Count: 1,
	})
	eng := &recEngine{}
	d := quietDurable(t, eng, fst, 0)
	first, second := testObjects(1, 10), testObjects(11, 11)
	d.FeedBatch(first)  // write 1: passes
	d.FeedBatch(second) // write 2: half its bytes land, then the error

	// What the tear should leave: the fault writes the first half of the
	// batch's bytes, so the records that end within it survive.
	var framed []byte
	var ends []int // each record's end offset in the batch
	for i := range second {
		framed = refRecord(framed, &second[i])
		ends = append(ends, len(framed))
	}
	half := len(framed) / 2
	whole := 0
	for whole < len(ends) && ends[whole] <= half {
		whole++
	}
	if whole == 0 || ends[whole-1] == half {
		t.Fatalf("test shape: the tear at byte %d must fall inside a record past the first", half)
	}
	keptBytes := ends[whole-1]

	h := d.Health()
	if h.State != DurableDegraded || h.Degradations != 1 {
		t.Fatalf("after the torn write: %+v, want degraded once", h)
	}
	if h.DroppedAppends != uint64(len(second)) {
		t.Errorf("DroppedAppends = %d, want the whole batch (%d)", h.DroppedAppends, len(second))
	}
	if got := d.stats.appends.Load(); got != uint64(len(first)) {
		t.Errorf("logged records = %d, want %d (the torn batch counts as not logged)", got, len(first))
	}
	if len(eng.ids) != len(first)+len(second) {
		t.Errorf("engine saw %d objects: a torn log must not stop serving", len(eng.ids))
	}
	// While degraded a batch is dropped and counted whole, without a write.
	d.FeedBatch(testObjects(22, 7))
	if got := d.Health().DroppedAppends; got != uint64(len(second)+7) {
		t.Errorf("DroppedAppends after a degraded batch = %d, want %d", got, len(second)+7)
	}

	// Crash here and recover from what is on the disk.
	rec := &recEngine{}
	r := quietDurable(t, rec, inner, 0)
	if got, want := r.stats.recoveryRecords, uint64(len(first)+whole); got != want {
		t.Errorf("recovery replayed %d records, want %d (10 + the %d whole ones before the tear)", got, want, whole)
	}
	if got, want := r.stats.recoveryTruncated, int64(half-keptBytes); got != want {
		t.Errorf("recovery dropped %d torn bytes, want %d", got, want)
	}
	for i, id := range rec.ids {
		if id != uint64(i+1) {
			t.Fatalf("replayed object %d has ID %d: records out of order", i, id)
		}
	}
	// The torn tail is truncated away: the next append starts on a frame
	// boundary and a second recovery is clean.
	r.FeedBatch(testObjects(100, 3))
	r2 := quietDurable(t, &recEngine{}, inner, 0)
	if r2.stats.recoveryTruncated != 0 || r2.stats.recoveryRecords != uint64(len(first)+whole+3) {
		t.Errorf("second recovery: %d records, %d dropped bytes", r2.stats.recoveryRecords, r2.stats.recoveryTruncated)
	}
}

// TestDurableFeedBatchAllocs: the durable layer adds no allocation to a
// steady FeedBatch, of many objects or of one — no per-object encoder, no
// per-call buffer.
func TestDurableFeedBatchAllocs(t *testing.T) {
	d := quietDurable(t, &discardEngine{}, &countStore{Store: NewMemStore()}, 0)
	objs := testObjects(0, 256)
	d.FeedBatch(objs) // grow the framing buffer once
	if n := testing.AllocsPerRun(100, func() { d.FeedBatch(objs) }); n != 0 {
		t.Errorf("FeedBatch of 256: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.FeedBatch(objs[:1]) }); n != 0 {
		t.Errorf("FeedBatch of 1: %v allocations per call, want 0", n)
	}
}
