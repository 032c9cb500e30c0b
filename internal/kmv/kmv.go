// Package kmv implements the K-Minimum-Values distinct-value synopsis of
// Bar-Yossef et al. ("Counting Distinct Elements in a Data Stream"), the
// component the AASP estimator uses to summarise the keyword dimension of a
// spatio-textual stream.
//
// A KMV synopsis hashes every element onto [0,1) and retains only the k
// smallest distinct hash values. If the k-th smallest value is u, the
// distinct count is estimated as (k-1)/u. Synopses over disjoint streams
// merge losslessly (union the sets, keep the k smallest), which is what the
// windowed variant exploits: a sliding window is covered by a ring of
// per-time-slice synopses whose merge summarises exactly the live slices.
package kmv

import (
	"container/heap"
	"fmt"

	"github.com/spatiotext/latest/internal/intern"
)

// Hash64 hashes a string with FNV-1a followed by a murmur3-style finalizer.
// The finalizer matters: raw FNV-1a has weak avalanche in its upper bits for
// short keys, which would bias the k-th minimum and hence every estimate.
// All synopses in a process must use the same hash so merges are coherent.
// It is intern.Hash64, which keyword dictionaries carry per word.
func Hash64(s string) uint64 { return intern.Hash64(s) }

// Mix64 is the murmur3 fmix64 finalizer: a bijective scramble giving
// near-ideal avalanche. Exposed for callers that pre-hash integers.
func Mix64(h uint64) uint64 { return intern.Mix64(h) }

// Unit maps a 64-bit hash onto [0, 1).
func Unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// maxHeap is a max-heap of hash values, so the largest of the k retained
// minima sits at the root and is evicted first.
type maxHeap []uint64

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Synopsis retains the k smallest distinct hash values seen so far.
// The zero value is not usable; construct with New.
type Synopsis struct {
	k    int
	heap maxHeap
	set  map[uint64]struct{} // nil until the first value is retained
}

// New creates a synopsis of size k. Larger k costs more memory and gives a
// relative standard error of roughly 1/√(k-2). It allocates its membership
// set, sized for k, when it first retains a value: a windowed synopsis that
// is never added to holds no map.
func New(k int) *Synopsis {
	if k < 2 {
		panic(fmt.Sprintf("kmv: k must be at least 2, got %d", k))
	}
	return &Synopsis{k: k}
}

// retain enters h into the membership set.
func (s *Synopsis) retain(h uint64) {
	if s.set == nil {
		s.set = make(map[uint64]struct{}, s.k)
	}
	s.set[h] = struct{}{}
}

// K returns the synopsis size.
func (s *Synopsis) K() int { return s.k }

// Len returns how many distinct hash values are currently retained
// (min(k, distinct seen)).
func (s *Synopsis) Len() int { return len(s.heap) }

// Add observes a string element and reports whether the retained minima
// changed (see AddHash).
func (s *Synopsis) Add(elem string) bool { return s.AddHash(Hash64(elem)) }

// AddHash observes a pre-hashed element. It reports whether the set of
// retained minima changed; a repeat of a retained value or a value above
// the k-th minimum leaves the synopsis, and anything derived from it, as
// it was — which in steady state is nearly every add.
func (s *Synopsis) AddHash(h uint64) bool {
	if len(s.heap) == s.k && h >= s.heap[0] {
		return false // the k-th minimum itself, or not among the k smallest
	}
	if _, dup := s.set[h]; dup {
		return false
	}
	if len(s.heap) < s.k {
		s.retain(h)
		// heap.Push, without boxing h into an interface: append, then sift
		// up.
		s.heap = append(s.heap, h)
		heap.Fix(&s.heap, len(s.heap)-1)
		return true
	}
	delete(s.set, s.heap[0])
	s.retain(h)
	s.heap[0] = h
	heap.Fix(&s.heap, 0)
	return true
}

// Distinct estimates the number of distinct elements observed.
func (s *Synopsis) Distinct() float64 {
	if len(s.heap) < s.k {
		// Fewer than k distinct values seen: the synopsis is exact.
		return float64(len(s.heap))
	}
	u := Unit(s.heap[0])
	if u <= 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / u
}

// Merge folds other into s. Both synopses must use the same hash; the
// result summarises the union of the two input streams. other may have a
// different k; the receiver keeps its own k.
func (s *Synopsis) Merge(other *Synopsis) {
	if other == nil {
		return
	}
	for h := range other.set {
		s.AddHash(h)
	}
}

// Reset clears the synopsis for reuse.
func (s *Synopsis) Reset() {
	s.heap = s.heap[:0]
	for h := range s.set {
		delete(s.set, h)
	}
}

// Clone returns an independent copy of s.
func (s *Synopsis) Clone() *Synopsis {
	c := New(s.k)
	c.heap = append(c.heap[:0], s.heap...)
	for h := range s.set {
		c.retain(h)
	}
	return c
}

// MemoryBytes approximates the heap+set footprint, used by the memory-budget
// experiment (Fig. 13).
func (s *Synopsis) MemoryBytes() int {
	// Struct overhead plus 8 bytes per heap slot and ~48 bytes per map entry.
	return 64 + 8*cap(s.heap) + 48*len(s.set)
}

// Sliced is a sliding-window KMV: a ring of per-slice synopses. Advancing
// the window drops the oldest slice wholesale, which is the standard way to
// make a merge-able-but-not-deletable sketch windowed. Estimates are served
// from a merge of all live slices that adds keep current and only an
// advance of the ring invalidates.
type Sliced struct {
	k      int
	slices []*Synopsis
	cur    int

	merged *Synopsis // k minima of the live slices' union; nil until first use
	dirty  bool      // merged must be rebuilt: the ring advanced or was loaded
}

// NewSliced creates a windowed synopsis with n ring slices of size k each.
func NewSliced(k, n int) *Sliced {
	if n < 1 {
		panic(fmt.Sprintf("kmv: slice count must be positive, got %d", n))
	}
	s := &Sliced{k: k, slices: make([]*Synopsis, n), dirty: true}
	for i := range s.slices {
		s.slices[i] = New(k)
	}
	return s
}

// Add observes an element in the current slice.
func (s *Sliced) Add(elem string) { s.AddHash(Hash64(elem)) }

// AddHash observes a pre-hashed element in the current slice. An add that
// leaves the slice's minima alone leaves the merged cache valid; one that
// changes them is folded into a valid cache directly, because the k
// smallest of a union that gained h are the k smallest of the old k
// smallest plus h. (A value the slice evicted to make room is larger than
// the slice's k survivors, so it was not among the union's k smallest
// either.) Only Advance, which removes values, forces a re-merge — in
// steady state Distinct is a cached read.
func (s *Sliced) AddHash(h uint64) {
	if s.slices[s.cur].AddHash(h) && !s.dirty {
		s.merged.AddHash(h)
	}
}

// Advance rotates to the next slice, discarding the slice that falls out of
// the window.
func (s *Sliced) Advance() {
	s.cur = (s.cur + 1) % len(s.slices)
	s.slices[s.cur].Reset()
	s.dirty = true
}

// Distinct estimates the distinct elements across all live slices.
func (s *Sliced) Distinct() float64 {
	if s.dirty {
		if s.merged == nil {
			s.merged = New(s.k)
		} else {
			s.merged.Reset()
		}
		for _, sl := range s.slices {
			s.merged.Merge(sl)
		}
		s.dirty = false
	}
	return s.merged.Distinct()
}

// MemoryBytes approximates the total footprint across slices.
func (s *Sliced) MemoryBytes() int {
	total := 0
	for _, sl := range s.slices {
		total += sl.MemoryBytes()
	}
	return total
}
