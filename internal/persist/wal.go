package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Write-ahead log format: a sequence of framed records,
//
//	u8  magic 0xA7
//	u32 payload length (little-endian)
//	u32 CRC32-IEEE of the payload
//	payload bytes
//
// The WAL is append-only and group-committed: one append call frames all
// of its records into one buffer, hands it to the store in one write, and
// fsyncs at most once, when SyncEvery written records have accumulated
// since the last fsync (and on Sync/Close). When an append call returns,
// every record it logged is in the file and fewer than SyncEvery are
// un-fsynced. A crash therefore loses at most that tail — and a torn
// final record (or a batch torn in the middle) is expected, not an error:
// replay stops at the first frame that does not verify and reports how
// many bytes were dropped.

const walMagic = 0xA7

// walHeaderSize is the per-record framing overhead.
const walHeaderSize = 9

// DefaultWALSyncEvery is how many appended records may accumulate before
// an fsync when the caller does not configure batching.
const DefaultWALSyncEvery = 64

// walFlushBytes is how much framed data one write carries at most (plus
// the record that crossed it): a 256-object feed batch is a small fraction
// of it and goes out whole, while a replay-sized batch is written in
// pieces, so the buffer the WAL keeps between calls stays near this size
// whatever the largest batch was.
const walFlushBytes = 256 << 10

// WALName returns the conventional WAL file name for a snapshot
// generation. Rotating the generation on every snapshot keeps replay
// trivially idempotent: a restore reads exactly the WAL written after the
// snapshot it loaded, never records the snapshot already contains.
func WALName(generation uint64) string {
	return fmt.Sprintf("feed-%08d.wal", generation)
}

// ParseWALName extracts the generation from a WALName-shaped file name;
// ok is false for every other name.
func ParseWALName(name string) (generation uint64, ok bool) {
	digits, found := strings.CutPrefix(name, "feed-")
	if !found {
		return 0, false
	}
	digits, found = strings.CutSuffix(digits, ".wal")
	if !found || digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// WALTail describes how cleanly a WAL parse ended.
type WALTail struct {
	// Records is how many complete, verified records were read.
	Records int
	// ValidBytes is the prefix length covered by those records.
	ValidBytes int64
	// DroppedBytes counts trailing bytes past the last valid record — a
	// torn append from a crash (0 for a cleanly closed log).
	DroppedBytes int64
}

// ParseWAL splits a WAL image into verified records. A torn or corrupt
// tail terminates the parse without error; the tail report says how much
// was dropped. Records alias data.
func ParseWAL(data []byte) (records [][]byte, tail WALTail) {
	off := 0
	for off < len(data) {
		if data[off] != walMagic || off+walHeaderSize > len(data) {
			break
		}
		length := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		crc := binary.LittleEndian.Uint32(data[off+5 : off+9])
		if length < 0 || off+walHeaderSize+length > len(data) {
			break
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		records = append(records, payload)
		off += walHeaderSize + length
	}
	tail = WALTail{
		Records:      len(records),
		ValidBytes:   int64(off),
		DroppedBytes: int64(len(data) - off),
	}
	return records, tail
}

// AppendWALRecord frames one payload into buf.
func AppendWALRecord(buf []byte, payload []byte) []byte {
	off := len(buf)
	buf = append(append(buf, make([]byte, walHeaderSize)...), payload...)
	sealWALRecord(buf[off:])
	return buf
}

// sealWALRecord fills in the header of rec, one record's reserved header
// bytes followed by its payload.
func sealWALRecord(rec []byte) {
	payload := rec[walHeaderSize:]
	rec[0] = walMagic
	binary.LittleEndian.PutUint32(rec[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[5:9], crc32.ChecksumIEEE(payload))
}

// WALObserver receives per-operation measurements from a WAL: write cost
// (framing + buffered write, fsync excluded) and fsync cost. The callbacks
// run under the WAL's lock on the feed path, so implementations must be
// cheap and non-blocking — a few atomic adds (the durable engine feeds
// them into lock-free telemetry histograms).
type WALObserver interface {
	// WALAppend reports one write handed to the store: every record of an
	// append call (one for Append, a whole feed batch for AppendBatch, a
	// walFlushBytes piece of an oversized one), its framed byte count and
	// the time spent framing and writing it (fsync excluded). It does not
	// say how many records the write carried; the caller knows that.
	WALAppend(bytes int, d time.Duration)
	// WALSync reports one fsync and its duration.
	WALSync(d time.Duration)
}

// WAL is an open write-ahead log. Safe for concurrent Append.
type WAL struct {
	mu      sync.Mutex
	f       AppendFile
	pending int // records written since the last fsync
	every   int
	buf     Enc // framing buffer, empty between calls, its capacity reused
	obs     WALObserver
}

// SetObserver installs (or with nil clears) the measurement sink. Rotation
// re-installs the previous generation's observer on the fresh handle, so
// lifetime counters span generations.
func (w *WAL) SetObserver(o WALObserver) {
	w.mu.Lock()
	w.obs = o
	w.mu.Unlock()
}

// OpenWAL opens (creating if absent) the named log in the store, first
// reading back and verifying its existing records. The returned records
// are the durable replay tail; a torn final record is truncated away so
// new appends start on a clean frame boundary. syncEvery <= 0 takes
// DefaultWALSyncEvery; syncEvery == 1 fsyncs every record.
func OpenWAL(store Store, name string, syncEvery int) (*WAL, [][]byte, WALTail, error) {
	if syncEvery <= 0 {
		syncEvery = DefaultWALSyncEvery
	}
	var records [][]byte
	var tail WALTail
	if data, err := store.Load(name); err == nil {
		records, tail = ParseWAL(data)
	} else if !IsNotExist(err) {
		return nil, nil, tail, err
	}
	f, err := store.OpenAppend(name, tail.ValidBytes)
	if err != nil {
		return nil, nil, tail, err
	}
	return &WAL{f: f, every: syncEvery}, records, tail, nil
}

// Append frames and writes one record: AppendBatch's one-record case.
func (w *WAL) Append(payload []byte) error {
	return w.AppendBatch(1, func(_ int, e *Enc) { e.b = append(e.b, payload...) })
}

// AppendBatch logs n records as one group commit. encode(i, e) appends
// record i's payload to e — and nothing else: e is the WAL's own framing
// buffer, so a payload is written where it will be framed, never copied.
// The framed records go to the store in one write (one per walFlushBytes
// for an oversized batch), followed by at most one fsync, issued when the
// written-but-unsynced record count reaches the batch threshold. On a nil
// return every record is in the file and fewer than SyncEvery of them are
// un-fsynced; a batch of SyncEvery or more returns fully synced.
//
// On error the log holds the records of the writes that succeeded, in
// order, possibly followed by a torn piece of the one that failed; the
// caller must treat the whole call as not logged.
func (w *WAL) AppendBatch(n int, encode func(i int, e *Enc)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	framed := 0 // records in w.buf not yet written
	for i := 0; i < n; i++ {
		off := len(w.buf.b)
		w.buf.b = append(w.buf.b, make([]byte, walHeaderSize)...)
		encode(i, &w.buf)
		sealWALRecord(w.buf.b[off:])
		framed++
		if len(w.buf.b) < walFlushBytes && i < n-1 {
			continue
		}
		err := w.f.Append(w.buf.b)
		size := len(w.buf.b)
		w.buf.b = w.buf.b[:0]
		if err != nil {
			return err
		}
		w.pending += framed
		framed = 0
		if w.obs != nil {
			now := time.Now()
			w.obs.WALAppend(size, now.Sub(start))
			start = now
		}
	}
	if w.pending >= w.every {
		w.pending = 0
		return w.syncLocked()
	}
	return nil
}

// syncLocked fsyncs under the held lock, reporting the batch to the
// observer.
func (w *WAL) syncLocked() error {
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	err := w.f.Sync()
	if w.obs != nil {
		w.obs.WALSync(time.Since(start))
	}
	return err
}

// Sync forces any batched records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = 0
	return w.syncLocked()
}

// Close syncs and releases the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = 0
	return w.f.Close()
}
