package persist

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode hammers the container decoder with mutated inputs.
// The invariant is total: DecodeSnapshot either returns a fully verified
// snapshot or a typed *Error — it must never panic, hang, or return a
// partially populated result. The seeds cover each rejection branch so
// mutation starts adjacent to every boundary check.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed 1: a valid two-section container.
	w := NewSnapshotWriter(0)
	w.Section("meta", []byte{1, 2, 3})
	w.Section("shard-0/window", bytes.Repeat([]byte{7}, 32))
	valid := w.Bytes()
	f.Add(append([]byte(nil), valid...))

	// Seed 2: empty container (zero sections) — still CRC-framed.
	f.Add(NewSnapshotWriter(0).Bytes())

	// Seed 3: truncated mid-section.
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))

	// Seed 4: bad magic.
	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	f.Add(bad)

	// Seed 5: flipped bit in a payload (whole-file CRC must catch it).
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x20
	f.Add(flip)

	// Seed 6: version skew with a recomputed valid CRC.
	skew := append([]byte(nil), valid[:len(valid)-4]...)
	skew[4] = 0xFF
	var e Enc
	e.b = skew
	e.U32(crcOf(skew))
	f.Add(e.Data())

	// Seed 7: absurd section count with plausible framing.
	huge := append([]byte(nil), valid...)
	huge[6], huge[7], huge[8], huge[9] = 0xFF, 0xFF, 0xFF, 0x7F
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if (snap == nil) == (err == nil) {
			t.Fatalf("exactly one of snapshot/error must be set: %v / %v", snap, err)
		}
		if err != nil {
			if CodeOf(err) == 0 {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A decoded snapshot must be internally consistent and re-readable.
		for _, name := range snap.Names() {
			if _, ok := snap.Section(name); !ok {
				t.Fatalf("listed section %q unreadable", name)
			}
		}
	})
}

// FuzzWALParse: ParseWAL over arbitrary bytes must return only verified
// records and account for every dropped byte, without panicking.
func FuzzWALParse(f *testing.F) {
	var buf []byte
	buf = AppendWALRecord(buf, []byte("alpha"))
	buf = AppendWALRecord(buf, []byte("beta"))
	f.Add(append([]byte(nil), buf...))
	f.Add(append([]byte(nil), buf[:len(buf)-3]...)) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0xA7})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, tail := ParseWAL(data)
		if tail.Records != len(records) {
			t.Fatalf("tail.Records %d != len(records) %d", tail.Records, len(records))
		}
		if tail.ValidBytes+tail.DroppedBytes != int64(len(data)) {
			t.Fatalf("valid %d + dropped %d != input %d", tail.ValidBytes, tail.DroppedBytes, len(data))
		}
	})
}
