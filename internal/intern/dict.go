package intern

// Hash64 hashes a string with FNV-1a followed by Mix64. It is kmv.Hash64,
// defined here so that a Dict can carry it without importing kmv.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Mix64(h)
}

// Mix64 is the murmur3 fmix64 finalizer: a bijective scramble giving
// near-ideal avalanche.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Dict is a keyword dictionary without a Go map: every word it holds has
// a dense ID, by which its owner indexes what it keeps per word, and an ID
// released is handed out again before a new one is. Arrays indexed by ID
// therefore stay as long as the most words ever held at once.
//
// Lookup goes through an open-addressing table of IDs with linear probing,
// and every entry carries its word's Hash64, so growing the table, or
// closing the gap a released word leaves, rehashes no string. Dict keeps the
// word strings it is given and copies nothing; an owner that must not
// retain a caller's bytes adds a copy. The zero value is empty and ready.
type Dict struct {
	entries []entry  // by ID; a free ID's entry is zero
	table   []uint32 // ID+1 per slot, 0 when empty; a power of two long, or nil
	free    []uint32
	live    int
}

type entry struct {
	word string
	hash uint64
}

// entryBytes is what an ID costs in the entries array.
const entryBytes = 24

// ID returns the ID of word if the dictionary holds it.
func (d *Dict) ID(word string) (uint32, bool) {
	if d.live == 0 {
		return 0, false
	}
	h := Hash64(word)
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

// Add enters word, which the dictionary must not hold, and returns its ID:
// the most recently freed one, or the next unused.
func (d *Dict) Add(word string) uint32 {
	if 4*(d.live+1) > 3*len(d.table) {
		d.grow()
	}
	var id uint32
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
	} else {
		id = uint32(len(d.entries))
		d.entries = append(d.entries, entry{})
	}
	h := Hash64(word)
	d.entries[id] = entry{word, h}
	d.place(h, id+1)
	d.live++
	return id
}

// place puts slot value s into the first empty slot of h's probe sequence.
func (d *Dict) place(h uint64, s uint32) {
	mask := uint64(len(d.table) - 1)
	i := h & mask
	for d.table[i] != 0 {
		i = (i + 1) & mask
	}
	d.table[i] = s
}

// grow doubles the table (to 8 slots at first), keeping the load at most
// three quarters, and re-places every held ID by its stored hash.
func (d *Dict) grow() {
	old := d.table
	d.table = make([]uint32, max(8, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			d.place(d.entries[s-1].hash, s)
		}
	}
}

// Release removes the word of id, which the dictionary must hold, and frees
// the ID. The probe runs behind the hole move back into it, so the table
// needs no tombstones.
func (d *Dict) Release(id uint32) {
	mask := uint64(len(d.table) - 1)
	i := d.entries[id].hash & mask
	for d.table[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; d.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home slot lies
		// cyclically in (i, j], where a probe for it never passes i.
		home := d.entries[d.table[j]-1].hash & mask
		if (j-home)&mask >= (j-i)&mask {
			d.table[i], i = d.table[j], j
		}
	}
	d.table[i] = 0
	d.entries[id] = entry{}
	d.free = append(d.free, id)
	d.live--
}

// Word returns the word of a held ID.
func (d *Dict) Word(id uint32) string { return d.entries[id].word }

// Hash returns the Hash64 of a held ID's word.
func (d *Dict) Hash(id uint32) uint64 { return d.entries[id].hash }

// Len returns the number of words held.
func (d *Dict) Len() int { return d.live }

// IDs returns the number of IDs ever handed out: every ID is below it, and
// those not held are free.
func (d *Dict) IDs() int { return len(d.entries) }

// MemoryBytes returns what the dictionary holds, the words' bytes not
// counted: entries, table and free list at their capacity.
func (d *Dict) MemoryBytes() int {
	return entryBytes*cap(d.entries) + 4*cap(d.table) + 4*cap(d.free)
}
