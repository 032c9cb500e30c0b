package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Snapshot container format, version 1. All integers little-endian.
//
//	offset  size  field
//	0       4     magic "LSNP"
//	4       2     format version (1)
//	6       4     section count
//	10      ...   sections
//	end-4   4     CRC32-IEEE of every byte before this field
//
// Each section:
//
//	u16 name length, name bytes
//	u32 payload length, payload bytes
//	u32 CRC32-IEEE of the payload
//
// The trailing whole-file CRC catches corruption anywhere (headers and
// section names included); the per-section CRC localizes the damage for
// diagnostics. Decoding is strict: any structural surprise is a typed
// *Error and no partial result is returned.

// SnapshotVersion is the current container format version.
const SnapshotVersion = 1

var snapshotMagic = [4]byte{'L', 'S', 'N', 'P'}

// SnapshotName is the un-numbered file name older builds snapshotted into;
// recovery still reads it, at the generation in its meta section.
const SnapshotName = "snapshot.snap"

// SnapshotNameFor returns the retained-generation snapshot file name the
// durable layer commits to. Each committed generation keeps its own file
// (snapshot-00000007.snap) so recovery can fall back to an older
// generation when the newest one fails its CRC.
func SnapshotNameFor(generation uint64) string {
	return fmt.Sprintf("snapshot-%08d.snap", generation)
}

// ParseSnapshotName extracts the generation from a SnapshotNameFor-shaped
// file name; ok is false for every other name (including the legacy
// un-suffixed SnapshotName, whose generation lives in its meta section).
func ParseSnapshotName(name string) (generation uint64, ok bool) {
	digits, found := strings.CutPrefix(name, "snapshot-")
	if !found {
		return 0, false
	}
	digits, found = strings.CutSuffix(digits, ".snap")
	if !found || digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// SnapshotWriter accumulates named sections and finalizes them into a
// checksummed container.
type SnapshotWriter struct {
	enc      Enc
	sections uint32
}

// NewSnapshotWriter starts an empty snapshot container with room for
// sizeHint bytes, so a writer told the container's likely size does not
// double its way up through megabytes of sections, re-copying them each
// time; a low or zero hint only costs that growth.
func NewSnapshotWriter(sizeHint int) *SnapshotWriter {
	w := &SnapshotWriter{}
	w.enc.b = append(make([]byte, 0, max(sizeHint, 16)), snapshotMagic[:]...)
	w.enc.U16(SnapshotVersion)
	w.enc.U32(0) // section count, patched in Bytes
	return w
}

// Section appends one named payload.
func (w *SnapshotWriter) Section(name string, payload []byte) {
	_ = w.EncodeSection(name, func(e *Enc) error {
		e.b = append(e.b, payload...)
		return nil
	})
}

// EncodeSection appends one named section whose payload encode writes
// straight into the container — appending to e and nothing else — so
// multi-megabyte state is serialized once, where it will be saved. An
// encode error abandons the writer.
func (w *SnapshotWriter) EncodeSection(name string, encode func(e *Enc) error) error {
	w.enc.U16(uint16(len(name)))
	w.enc.b = append(w.enc.b, name...)
	w.enc.U32(0) // payload length, patched below
	start := len(w.enc.b)
	if err := encode(&w.enc); err != nil {
		return err
	}
	payload := w.enc.b[start:]
	binary.LittleEndian.PutUint32(w.enc.b[start-4:], uint32(len(payload)))
	w.enc.U32(crc32.ChecksumIEEE(payload))
	w.sections++
	return nil
}

// Bytes finalizes the container: patches the section count and appends the
// whole-file CRC. The writer must not be reused afterwards.
func (w *SnapshotWriter) Bytes() []byte {
	b := w.enc.b
	b[6] = byte(w.sections)
	b[7] = byte(w.sections >> 8)
	b[8] = byte(w.sections >> 16)
	b[9] = byte(w.sections >> 24)
	w.enc.U32(crc32.ChecksumIEEE(b[:len(b)]))
	return w.enc.b
}

// Snapshot is a decoded container: ordered named sections.
type Snapshot struct {
	Version  uint16
	names    []string
	payloads [][]byte
}

// Section returns the named payload and whether it exists.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	for i, n := range s.names {
		if n == name {
			return s.payloads[i], true
		}
	}
	return nil, false
}

// Names returns the section names in container order.
func (s *Snapshot) Names() []string { return append([]string(nil), s.names...) }

// DecodeSnapshot parses and fully verifies a snapshot container. Every
// failure is a typed *Error: CodeMalformed (bad magic/structure),
// CodeVersionSkew (unknown version), CodeTruncated (bytes missing) or
// CodeCorrupt (a CRC guard failed).
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	const op = "decode snapshot"
	if len(data) < 14 {
		return nil, Errf(CodeTruncated, op, "%d bytes is smaller than the fixed header", len(data))
	}
	if data[0] != snapshotMagic[0] || data[1] != snapshotMagic[1] ||
		data[2] != snapshotMagic[2] || data[3] != snapshotMagic[3] {
		return nil, Errf(CodeMalformed, op, "bad magic % x", data[:4])
	}
	// Whole-file CRC first: it distinguishes bit rot (CodeCorrupt) from a
	// format we simply do not speak (CodeVersionSkew/CodeMalformed below).
	body := data[:len(data)-4]
	want := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, Errf(CodeCorrupt, op, "file CRC %08x, want %08x", got, want)
	}
	d := NewDec(body[4:])
	version := d.U16()
	if version != SnapshotVersion {
		return nil, Errf(CodeVersionSkew, op, "format version %d, this build speaks %d", version, SnapshotVersion)
	}
	count := d.U32()
	snap := &Snapshot{Version: version}
	for i := uint32(0); i < count; i++ {
		nameLen := int(d.U16())
		nameBytes := d.take(nameLen, "section name")
		payloadLen := int(d.U32())
		payload := d.take(payloadLen, "section payload")
		crc := d.U32()
		if d.err != nil {
			return nil, Errf(CodeTruncated, op, "section %d/%d incomplete", i+1, count)
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, Errf(CodeCorrupt, op, "section %q CRC %08x, want %08x", string(nameBytes), got, crc)
		}
		snap.names = append(snap.names, string(nameBytes))
		snap.payloads = append(snap.payloads, append([]byte(nil), payload...))
	}
	if err := d.Done(); err != nil {
		return nil, Errf(CodeMalformed, op, "trailing bytes after %d sections", count)
	}
	return snap, nil
}
