// Package intern lets a decoder hand out one string for equal byte runs
// instead of allocating a copy per occurrence. Stream keywords are drawn
// from a skewed vocabulary, so a decoder that reads them off the wire or
// out of a snapshot would otherwise keep the same word alive once per
// object that carries it.
package intern

// tableSize is the number of slots; a power of two.
const tableSize = 1024

// Table is a bounded direct-mapped cache of recently decoded strings: a
// slot per hash value, a colliding string simply takes the slot. It holds
// at most tableSize strings alive (16 KB of headers), needs no lock
// because each decoder owns its own, and has nothing to tune. The zero
// value is ready to use.
type Table struct {
	slots [tableSize]string
}

// String returns a string equal to b, shared with earlier calls when the
// slot still holds it.
func (t *Table) String(b []byte) string {
	// FNV-1a, inlined: hash/fnv would allocate a hasher per call.
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	s := &t.slots[h&(tableSize-1)]
	if *s != string(b) { // the conversion in a comparison does not allocate
		*s = string(b)
	}
	return *s
}
