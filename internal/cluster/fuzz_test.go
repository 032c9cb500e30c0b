package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
)

// FuzzDecodeMap hammers the partition-map decoder — a router hands it bytes
// fetched from a peer. DecodeMap must never panic or allocate from a
// declared count it has not checked against the bytes present, and a map it
// does accept must be usable: it re-encodes to the bytes it came from and
// answers ownership and planning without indexing past its arrays. A
// mutated blob almost never keeps a valid CRC, so every input is also tried
// with its last four bytes resealed over the rest; that is what lets
// mutation reach the checks behind the checksum.
func FuzzDecodeMap(f *testing.F) {
	world := geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	for _, m := range []*Map{
		mustMap(Uniform(world, 6, 4, []string{"a:1", "b:2", "c:3"}, 7)),
		mustMap(Uniform(geo.Rect{MaxX: 1, MaxY: 1}, 1, 1, []string{"solo"}, 0)),
	} {
		enc := m.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])                     // truncated
		f.Add(append(bytes.Clone(enc), 0, 0, 0, 0)) // trailing bytes
	}
	// Declared counts far past the bytes present: grid, nodes, owners.
	big := mustMap(Uniform(world, 2, 2, []string{"n"}, 1)).Encode()
	for _, off := range []int{46, 50, 54} {
		b := bytes.Clone(big)
		binary.LittleEndian.PutUint32(b[off:], 0x7FFFFFFF)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			m, err := DecodeMap(data)
			if err != nil {
				if m != nil {
					t.Fatalf("DecodeMap returned a map with error %v", err)
				}
				return
			}
			if !bytes.Equal(m.Encode(), data) {
				t.Fatalf("accepted map re-encodes differently")
			}
			// Probe inside, on and outside the world's edges.
			w := m.World
			for _, p := range []geo.Point{
				{X: w.MinX, Y: w.MinY}, {X: w.MaxX, Y: w.MaxY},
				{X: (w.MinX + w.MaxX) / 2, Y: (w.MinY + w.MaxY) / 2},
				{X: w.MinX - 1, Y: w.MaxY + 1},
			} {
				if o := m.OwnerOf(p); o < 0 || o >= len(m.Nodes) {
					t.Fatalf("OwnerOf(%v) = %d with %d nodes", p, o, len(m.Nodes))
				}
			}
			owner, parts := m.PlanQuery(geo.Rect{MinX: w.MinX - 1, MinY: w.MinY - 1, MaxX: w.MaxX + 1, MaxY: w.MaxY + 1})
			if owner < 0 && len(parts) == 0 {
				t.Fatalf("PlanQuery over the whole world named no node")
			}
		}
		check(data)
		if len(data) >= 4 {
			sealed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(sealed[:len(sealed)-4]))
			check(sealed)
		}
	})
}

func mustMap(m *Map, err error) *Map {
	if err != nil {
		panic(err)
	}
	return m
}
