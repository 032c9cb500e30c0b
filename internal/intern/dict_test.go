package intern

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDictMatchesAMap: a long random run of adds and releases over a
// vocabulary larger than the table's first sizes leaves the dictionary
// agreeing with a map at every step — every held word resolves to its ID
// and back, no released word resolves, and IDs are reused most recently
// freed first.
func TestDictMatchesAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Dict
	want := make(map[string]uint32)
	var freed []uint32
	for step := 0; step < 200_000; step++ {
		w := fmt.Sprintf("w%d", rng.Intn(3000))
		if step%1000 == 999 {
			w = "" // the empty word is a word
		}
		id, ok := d.ID(w)
		if wid, wok := want[w]; ok != wok || (ok && id != wid) {
			t.Fatalf("step %d: ID(%q) = %d, %v; want %d, %v", step, w, id, ok, wid, wok)
		}
		if !ok {
			id = d.Add(w)
			if n := len(freed); n > 0 {
				if id != freed[n-1] {
					t.Fatalf("step %d: Add took ID %d, the last freed is %d", step, id, freed[n-1])
				}
				freed = freed[:n-1]
			} else if int(id) != d.IDs()-1 {
				t.Fatalf("step %d: Add took ID %d with nothing free and %d IDs", step, id, d.IDs())
			}
			want[w] = id
		} else if rng.Intn(3) > 0 {
			d.Release(id)
			delete(want, w)
			freed = append(freed, id)
		}
		if d.Len() != len(want) || d.IDs() != len(want)+len(freed) {
			t.Fatalf("step %d: %d held of %d IDs, want %d held and %d free", step, d.Len(), d.IDs(), len(want), len(freed))
		}
	}
	for w, id := range want {
		if d.Word(id) != w || d.entries[id].hash != Hash64(w) {
			t.Errorf("ID %d: word %q hash %x, want %q", id, d.Word(id), d.entries[id].hash, w)
		}
		if got, ok := d.ID(w); !ok || got != id {
			t.Errorf("ID(%q) = %d, %v; want %d", w, got, ok, id)
		}
	}
	for _, id := range freed {
		if d.entries[id] != (entry{}) {
			t.Errorf("free ID %d keeps %q", id, d.Word(id))
		}
	}
	if 4*d.Len() > 3*len(d.table) {
		t.Errorf("%d words in %d slots", d.Len(), len(d.table))
	}
}

// TestDictReleaseRepairsProbeChains: words that share a home slot form
// one chain, wrapping past the table's end; releasing any one of them
// leaves the rest reachable. The table is driven directly so the homes are
// chosen, not hoped for.
func TestDictReleaseRepairsProbeChains(t *testing.T) {
	for victim := 0; victim < 6; victim++ {
		var d Dict
		d.grow() // 8 slots
		words := make([]string, 6)
		for i := range words {
			words[i] = fmt.Sprintf("c%d", i)
			// Homes 6, 6, 7, 7, 0 and 6: the chain runs 6, 7, 0, 1, 2, 3.
			home := []uint64{6, 6, 7, 7, 0, 6}[i]
			id := uint32(len(d.entries))
			d.entries = append(d.entries, entry{words[i], home | uint64(i)<<8})
			d.place(home, id+1)
			d.live++
		}
		d.Release(uint32(victim))
		for i, w := range words {
			id, ok := d.lookupHash(w, d.entries[i].hash)
			if i == victim {
				if ok {
					t.Errorf("victim %d: released %q still resolves", victim, w)
				}
				continue
			}
			if !ok || id != uint32(i) {
				t.Errorf("victim %d: %q resolves to %d, %v", victim, w, id, ok)
			}
		}
	}
}

// lookupHash is ID with the hash given, for tables built by hand.
func (d *Dict) lookupHash(word string, h uint64) (uint32, bool) {
	mask := uint64(len(d.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := d.table[i]
		if s == 0 {
			return 0, false
		}
		if e := &d.entries[s-1]; e.hash == h && e.word == word {
			return s - 1, true
		}
	}
}

func TestDictLookupDoesNotAllocate(t *testing.T) {
	var d Dict
	for i := 0; i < 100; i++ {
		d.Add(fmt.Sprintf("kw%d", i))
	}
	b := []byte("kw42")
	if n := testing.AllocsPerRun(100, func() { _, _ = d.ID(string(b)) }); n != 0 {
		t.Errorf("a lookup costs %v allocations", n)
	}
}

func BenchmarkDictID(b *testing.B) {
	var d Dict
	words := make([]string, 5000)
	for i := range words {
		words[i] = fmt.Sprintf("tw_tag%04d", i)
		d.Add(words[i])
	}
	b.Run("dict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.ID(words[i%len(words)])
		}
	})
	m := make(map[string]uint32)
	for i, w := range words {
		m[w] = uint32(i)
	}
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m[words[i%len(words)]]
		}
	})
}
