package persist

import (
	"bytes"
	"errors"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestCodecRoundTrip pins every Enc primitive to its Dec counterpart.
func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(65535)
	e.U32(1 << 30)
	e.U64(1 << 62)
	e.I64(-42)
	e.Int(-1)
	e.F64(3.141592653589793)
	e.Str("hello")
	e.Blob([]byte{1, 2, 3})
	e.F64s([]float64{0.5, -0.5})
	e.U32s([]uint32{9, 8})
	e.Strs([]string{"a", "bb"})

	d := NewDec(e.Data())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if got := d.U16(); got != 65535 {
		t.Errorf("U16 = %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<62 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 3.141592653589793 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := d.F64s(); len(got) != 2 || got[0] != 0.5 || got[1] != -0.5 {
		t.Errorf("F64s = %v", got)
	}
	if got := d.U32s(); len(got) != 2 || got[0] != 9 {
		t.Errorf("U32s = %v", got)
	}
	if got := d.Strs(); len(got) != 2 || got[1] != "bb" {
		t.Errorf("Strs = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestDecTruncation: reading past the end fails typed and sticks.
func TestDecTruncation(t *testing.T) {
	d := NewDec([]byte{1, 2})
	d.U64()
	if CodeOf(d.Err()) != CodeTruncated {
		t.Fatalf("err = %v, want truncated", d.Err())
	}
	// Subsequent reads stay failed, never panic.
	d.Str()
	d.F64s()
	if CodeOf(d.Err()) != CodeTruncated {
		t.Fatalf("err after more reads = %v", d.Err())
	}
}

// TestDecDoneLeftover: trailing unread bytes are a typed malformed error.
func TestDecDoneLeftover(t *testing.T) {
	var e Enc
	e.U8(1)
	e.U8(2)
	d := NewDec(e.Data())
	d.U8()
	if err := d.Done(); CodeOf(err) != CodeMalformed {
		t.Fatalf("Done with leftover = %v", err)
	}
}

func buildSnapshot(t *testing.T) []byte {
	t.Helper()
	w := NewSnapshotWriter(0)
	w.Section("meta", []byte("m"))
	w.Section("window", bytes.Repeat([]byte{0xAB}, 100))
	return w.Bytes()
}

// TestSnapshotRoundTrip: sections come back verbatim, in order, verified.
func TestSnapshotRoundTrip(t *testing.T) {
	data := buildSnapshot(t)
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != SnapshotVersion {
		t.Errorf("version = %d", snap.Version)
	}
	if got := snap.Names(); len(got) != 2 || got[0] != "meta" || got[1] != "window" {
		t.Errorf("names = %v", got)
	}
	m, ok := snap.Section("meta")
	if !ok || string(m) != "m" {
		t.Errorf("meta = %q ok=%v", m, ok)
	}
	if _, ok := snap.Section("absent"); ok {
		t.Error("absent section found")
	}
}

// TestSnapshotCorruption: a single flipped bit anywhere fails CodeCorrupt
// — and the whole-file CRC is checked before the version field, so bit rot
// in the version bytes reads as corruption, not skew.
func TestSnapshotCorruption(t *testing.T) {
	for _, off := range []int{4, 5, 11, 40} { // version bytes, section name, payload
		data := buildSnapshot(t)
		if off >= len(data) {
			t.Fatalf("offset %d past %d-byte snapshot", off, len(data))
		}
		data[off] ^= 0x01
		_, err := DecodeSnapshot(data)
		if CodeOf(err) != CodeCorrupt {
			t.Errorf("flip at %d: err = %v, want corrupt", off, err)
		}
	}
}

// TestSnapshotVersionSkew: an unknown version with a valid CRC is skew.
func TestSnapshotVersionSkew(t *testing.T) {
	w := NewSnapshotWriter(0)
	w.Section("meta", []byte("m"))
	data := w.Bytes()
	// Bump the version and recompute the trailing CRC so only the version
	// is wrong.
	data[4] = 99
	fixed := append([]byte(nil), data[:len(data)-4]...)
	var e Enc
	e.b = fixed
	e.U32(crcOf(fixed))
	if _, err := DecodeSnapshot(e.Data()); CodeOf(err) != CodeVersionSkew {
		t.Fatalf("err = %v, want version-skew", err)
	}
}

// TestSnapshotTruncated: cutting the file fails typed, never partial.
func TestSnapshotTruncated(t *testing.T) {
	data := buildSnapshot(t)
	for _, n := range []int{0, 5, 13, len(data) - 1} {
		_, err := DecodeSnapshot(data[:n])
		if c := CodeOf(err); c != CodeTruncated && c != CodeCorrupt {
			t.Errorf("truncate to %d: err = %v", n, err)
		}
	}
}

// TestSnapshotBadMagic is malformed, not corrupt: it was never ours.
func TestSnapshotBadMagic(t *testing.T) {
	data := buildSnapshot(t)
	data[0] = 'X'
	if _, err := DecodeSnapshot(data); CodeOf(err) != CodeMalformed {
		t.Fatalf("err = %v, want malformed", err)
	}
}

// TestWALRoundTrip: append, reopen, replay.
func TestWALRoundTrip(t *testing.T) {
	st := NewMemStore()
	wal, records, tail, err := OpenWAL(st, WALName(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 || tail.Records != 0 {
		t.Fatalf("fresh WAL has %d records", len(records))
	}
	for i := 0; i < 5; i++ {
		if err := wal.Append([]byte{byte(i), 0xFF}); err != nil {
			t.Fatal(err)
		}
	}
	if wal.Appends() != 5 {
		t.Errorf("Appends = %d", wal.Appends())
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, tail, err = OpenWAL(st, WALName(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 || tail.DroppedBytes != 0 {
		t.Fatalf("replayed %d records, dropped %d bytes", len(records), tail.DroppedBytes)
	}
	for i, r := range records {
		if len(r) != 2 || r[0] != byte(i) {
			t.Errorf("record %d = %v", i, r)
		}
	}
}

// TestWALTornTail: a crash mid-append loses only the torn record; reopen
// truncates it away so new appends extend a valid log.
func TestWALTornTail(t *testing.T) {
	st := NewMemStore()
	wal, _, _, err := OpenWAL(st, WALName(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	wal.Append([]byte("one"))
	wal.Append([]byte("two"))
	wal.Close()
	// Simulate the crash: chop bytes off the file's end.
	data, _ := st.Load(WALName(0))
	st.Save(WALName(0), data[:len(data)-2])

	wal2, records, tail, err := OpenWAL(st, WALName(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "one" {
		t.Fatalf("records = %q", records)
	}
	if tail.DroppedBytes == 0 {
		t.Error("torn tail not reported")
	}
	wal2.Append([]byte("three"))
	wal2.Close()
	_, records, tail, err = OpenWAL(st, WALName(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || string(records[1]) != "three" || tail.DroppedBytes != 0 {
		t.Fatalf("after repair: %q dropped=%d", records, tail.DroppedBytes)
	}
}

// TestWALCorruptRecord: a bit flip inside a record stops replay at the
// last valid prefix — everything after is indistinguishable from a torn
// write and is dropped.
func TestWALCorruptRecord(t *testing.T) {
	st := NewMemStore()
	wal, _, _, _ := OpenWAL(st, WALName(0), 1)
	wal.Append([]byte("aaaa"))
	wal.Append([]byte("bbbb"))
	wal.Close()
	data, _ := st.Load(WALName(0))
	data[len(data)-3] ^= 0x10 // inside record two's payload
	st.Save(WALName(0), data)
	_, records, tail, err := OpenWAL(st, WALName(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "aaaa" {
		t.Fatalf("records = %q", records)
	}
	if tail.DroppedBytes == 0 {
		t.Error("corrupt record not counted as dropped")
	}
}

// pieceFile records every write a WAL hands its store.
type pieceFile struct {
	pieces [][]byte
	syncs  int
}

func (f *pieceFile) Append(p []byte) error {
	f.pieces = append(f.pieces, append([]byte(nil), p...))
	return nil
}
func (f *pieceFile) Sync() error  { f.syncs++; return nil }
func (f *pieceFile) Close() error { return nil }

// pieceObserver counts the observer's callbacks.
type pieceObserver struct{ writes, bytes, syncs int }

func (o *pieceObserver) WALAppend(bytes int, _ time.Duration) { o.writes++; o.bytes += bytes }
func (o *pieceObserver) WALSync(time.Duration)                { o.syncs++ }

// TestWALBatchFlushesInPieces: a batch several times walFlushBytes goes to
// the store in pieces that each end on a record boundary, the buffer the
// WAL keeps afterwards is no larger than a piece needs, the observer hears
// of each write once, and the whole batch costs one fsync.
func TestWALBatchFlushesInPieces(t *testing.T) {
	f := &pieceFile{}
	obs := &pieceObserver{}
	w := &WAL{f: f, every: DefaultWALSyncEvery, obs: obs}
	const recs, payload = 5000, 300 // 1.5 MB framed: five full pieces and a tail
	err := w.AppendBatch(recs, func(i int, e *Enc) {
		e.U32(uint32(i))
		e.b = append(e.b, make([]byte, payload-4)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := recs * (walHeaderSize + payload) / walFlushBytes; len(f.pieces) != want+1 {
		t.Fatalf("%d writes, want %d", len(f.pieces), want+1)
	}
	next := uint32(0)
	for i, p := range f.pieces {
		if len(p) >= walFlushBytes+walHeaderSize+payload {
			t.Errorf("piece %d is %d bytes: more than the flush size and the record that crossed it", i, len(p))
		}
		records, tail := ParseWAL(p)
		if tail.DroppedBytes != 0 {
			t.Fatalf("piece %d does not end on a record boundary: %d stray bytes", i, tail.DroppedBytes)
		}
		for _, r := range records {
			if got := NewDec(r).U32(); got != next {
				t.Fatalf("piece %d: record %d where %d belongs", i, got, next)
			}
			next++
		}
	}
	if next != recs || w.Appends() != recs {
		t.Errorf("pieces hold %d records, Appends() = %d, want %d", next, w.Appends(), recs)
	}
	if f.syncs != 1 || obs.syncs != 1 || w.pending != 0 {
		t.Errorf("fsyncs = %d (observer %d), pending = %d; want one fsync for the batch", f.syncs, obs.syncs, w.pending)
	}
	if obs.writes != len(f.pieces) || obs.bytes != recs*(walHeaderSize+payload) {
		t.Errorf("observer saw %d writes of %d bytes, store %d writes", obs.writes, obs.bytes, len(f.pieces))
	}
	if len(w.buf.b) != 0 || cap(w.buf.b) > 2*walFlushBytes {
		t.Errorf("retained buffer: len %d cap %d, want empty and under %d", len(w.buf.b), cap(w.buf.b), 2*walFlushBytes)
	}

	// Append is the same path with one record: below the fsync threshold
	// it is one write and no fsync.
	if err := w.Append([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	last := f.pieces[len(f.pieces)-1]
	if !bytes.Equal(last, AppendWALRecord(nil, []byte("solo"))) || f.syncs != 1 || w.pending != 1 {
		t.Errorf("Append wrote % x, fsyncs %d, pending %d", last, f.syncs, w.pending)
	}
}

// TestWALBatchFailedWrite: a write the store refuses leaves the earlier
// pieces' records counted, nothing of the failed piece, and an empty
// buffer for the next call.
func TestWALBatchFailedWrite(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultRule{Op: FaultAppend, After: 1, Count: 1})
	w, _, _, err := OpenWAL(fs, WALName(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	const recs, payload = 2000, 300 // crosses walFlushBytes twice
	err = w.AppendBatch(recs, func(i int, e *Enc) { e.b = append(e.b, make([]byte, payload)...) })
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("AppendBatch = %v, want the injected fault", err)
	}
	data, _ := fs.Inner().Load(WALName(0))
	_, tail := ParseWAL(data)
	if tail.Records == 0 || tail.DroppedBytes != 0 || uint64(tail.Records) != w.Appends() {
		t.Fatalf("log holds %d records (+%d stray bytes), Appends() = %d: want the first piece, whole",
			tail.Records, tail.DroppedBytes, w.Appends())
	}
	if err := w.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	data, _ = fs.Inner().Load(WALName(0))
	records, tail2 := ParseWAL(data)
	if tail2.Records != tail.Records+1 || tail2.DroppedBytes != 0 || string(records[tail.Records]) != "next" {
		t.Fatalf("after the failure the log holds %d records, %d stray bytes", tail2.Records, tail2.DroppedBytes)
	}
}

// TestFileStore: atomic save/load/list/remove plus append on disk.
func TestFileStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if _, err := OpenFileStore(dir); !IsNotExist(err) {
		t.Fatalf("open missing dir = %v, want not-exist", err)
	}
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("absent"); !IsNotExist(err) {
		t.Fatalf("load absent = %v", err)
	}
	if err := st.Save("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("load = %q, %v", got, err)
	}
	names, err := st.List()
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if err := st.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("a"); err != nil {
		t.Fatalf("removing a missing file should be a no-op, got %v", err)
	}
	// Path traversal must be refused, not resolved.
	if err := st.Save("../escape", []byte("x")); err == nil {
		t.Error("path traversal accepted")
	}
	// WAL over FileStore, including the truncate-torn-tail path.
	wal, _, _, err := OpenWAL(st, WALName(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	wal.Append([]byte("r"))
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, _, err := OpenWAL(st, WALName(3), 2)
	if err != nil || len(records) != 1 {
		t.Fatalf("file WAL replay = %d records, %v", len(records), err)
	}
}

// TestMemStoreCorruptHook pins the test hook the engine-level corruption
// tests rely on.
func TestMemStoreCorruptHook(t *testing.T) {
	st := NewMemStore()
	st.Save("f", []byte{0x00})
	if err := st.Corrupt("f", 0); err != nil {
		t.Fatal(err)
	}
	data, _ := st.Load("f")
	if data[0] == 0x00 {
		t.Error("Corrupt flipped nothing")
	}
	if err := st.Corrupt("missing", 0); !IsNotExist(err) {
		t.Errorf("corrupt missing = %v", err)
	}
}

// TestMemStoreAppendIsLinear: n appends of k bytes to a MemStore file copy
// O(n·k) bytes in all, not the whole file again on every append, and a
// reader sees exactly what was appended after the truncated prefix.
func TestMemStoreAppendIsLinear(t *testing.T) {
	const n, k = 1000, 64
	st := NewMemStore()
	st.Save("feed.wal", []byte("headtail"))
	f, err := st.OpenAppend("feed.wal", 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0xab}, k)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if copied := after.TotalAlloc - before.TotalAlloc; copied > 8*n*k {
		t.Errorf("%d appends of %d bytes allocated %d bytes, want O(n·k) = %d", n, k, copied, n*k)
	}
	data, err := st.Load("feed.wal")
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("head"), bytes.Repeat(rec, n)...); !bytes.Equal(data, want) {
		t.Errorf("file holds %d bytes, want %d: head, then the appends", len(data), len(want))
	}
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// TestDecStrsShareEqualStrings: string lists read through one decoder —
// across Reset too, as WAL replay uses it — share the bytes of equal
// strings, while every list is its own slice.
func TestDecStrsShareEqualStrings(t *testing.T) {
	var e Enc
	e.Strs([]string{"flood", "fire"})
	e.Strs([]string{"fire", "", "flood"})
	d := NewDec(e.Data())
	a, b := d.Strs(), d.Strs()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 3 || a[0] != "flood" || a[1] != "fire" || b[0] != "fire" || b[1] != "" || b[2] != "flood" {
		t.Fatalf("decoded %q, %q", a, b)
	}
	if unsafe.StringData(a[0]) != unsafe.StringData(b[2]) || unsafe.StringData(a[1]) != unsafe.StringData(b[0]) {
		t.Error("equal strings from one decoder are separate copies")
	}

	d.Reset(e.Data()[:1]) // poison it
	if d.Strs(); d.Err() == nil {
		t.Fatal("truncated list accepted")
	}
	d.Reset(e.Data())
	if c := d.Strs(); d.Err() != nil || unsafe.StringData(c[0]) != unsafe.StringData(a[0]) {
		t.Errorf("after Reset: err %v, or %q decoded as a new copy", d.Err(), a[0])
	}
}
