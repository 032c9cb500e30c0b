package estimator

import (
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// sampleStore is the slot array RSL is and RSH indexes: retained samples in
// dense parallel arrays, every slot below len(ts) in use, a removed slot
// filled from the last. Which sample sits in which slot is state in its own
// right — reservoir replacement draws a slot number and the lazy purge walks
// slots in order — so the store changes it exactly as the plain list did.
//
// A sample's keywords are kept once, as IDs from the store's own
// dictionary, in arrival order and with repeats, so the serialized sample
// is the inserted one; the caller's slice is not retained. Each ID owns a
// posting list of the slots whose sample carries it (once per slot, however
// often the sample repeats the word), and each keyword reference records
// where in that list its slot stands, which keeps admission, replacement
// and the purge's swap O(keywords of the samples involved). A keyword
// predicate is answered from the posting lists; no scan compares strings.
//
// Dictionary and postings are derived data: rebuilt sample by sample on
// LoadState, never serialized, dropped with the last sample. An ID lives
// while some retained sample carries its word and is reused afterwards;
// neither IDs nor posting order reach an estimate (counts are of sets) or
// an image (which spells the words out), so a restored store need not
// reproduce them.
type sampleStore struct {
	ts   []int64     // what the purge walks
	loc  []geo.Point // what a range count walks
	kw   []kwList
	long map[int32][]kwRef // by slot: the keyword lists too long to sit in kw

	ids     map[string]uint32
	words   []kwEntry // by ID
	freeIDs []uint32

	// Scratch of one Estimate: the query's keywords as IDs, and the slots
	// already counted when several posting lists are merged.
	qids []uint32
	seen []uint64
}

// kwRef is one keyword of one sample: the word's ID and the index of the
// sample's slot in the word's posting list, or notPosted on a repeat of a
// word the sample has already listed.
type kwRef struct{ id, pos uint32 }

const notPosted = ^uint32(0)

// kwList is a sample's keywords. Up to three references sit in the list
// itself, so that reaching the keywords of a sample that has few — nearly
// every sample — costs one cache line, not two, and a full reservoir stays
// inside its byte budget; a longer list is s.long's for the slot.
type kwList struct {
	n      uint32
	inline [3]kwRef
}

// kwEntry is a live dictionary word and its posting list, whose length is
// the word's reference count. The list is unordered: it grows at its end
// and shrinks by moving its last slot into the hole.
type kwEntry struct {
	word     string
	postings []uint32
}

func (s *sampleStore) refsOf(i int32) []kwRef {
	k := &s.kw[i]
	if int(k.n) <= len(k.inline) {
		return k.inline[:k.n]
	}
	return s.long[i]
}

// put stores a sample in slot j: the slot after the last (the store grows
// by one) or an occupied one, whose sample it replaces. The slot arrays
// double until they hold limit, the most the caller will ever put, and no
// further: a full reservoir's arrays are full.
func (s *sampleStore) put(j int32, ts int64, loc geo.Point, kws []string, limit int) {
	if int(j) == len(s.ts) {
		if n := min(max(2*int(j), 64), limit); int(j) == cap(s.ts) && n > int(j) {
			s.ts, s.loc, s.kw = regrow(s.ts, n), regrow(s.loc, n), regrow(s.kw, n)
		}
		s.ts, s.loc, s.kw = append(s.ts, ts), append(s.loc, loc), append(s.kw, kwList{})
	} else {
		s.dropKeywords(j)
		s.ts[j], s.loc[j] = ts, loc
	}
	k := &s.kw[j]
	k.n = uint32(len(kws))
	refs := k.inline[:min(len(kws), len(k.inline))]
	if len(kws) > len(k.inline) {
		if s.long == nil {
			s.long = make(map[int32][]kwRef)
		}
		refs = make([]kwRef, len(kws))
		s.long[j] = refs
	}
	if s.ids == nil {
		s.ids = make(map[string]uint32)
	}
	for i, w := range kws {
		id, ok := s.ids[w]
		if !ok {
			if f := s.freeIDs; len(f) > 0 {
				id, s.freeIDs = f[len(f)-1], f[:len(f)-1]
			} else {
				id = uint32(len(s.words))
				s.words = append(s.words, kwEntry{})
			}
			s.ids[w], s.words[id].word = id, w
		}
		// Slot j is posted last or not at all: the slot's previous sample
		// was taken off every list before this one came.
		e := &s.words[id]
		if n := len(e.postings); n > 0 && e.postings[n-1] == uint32(j) {
			refs[i] = kwRef{id, notPosted}
			continue
		}
		refs[i] = kwRef{id, uint32(len(e.postings))}
		e.postings = append(e.postings, uint32(j))
	}
}

// regrow returns s with capacity n exactly: the slot arrays grow by rule,
// not by append, and carry no more slack than the rule gives them.
func regrow[T any](s []T, n int) []T { return append(make([]T, 0, n), s...) }

// dropKeywords takes slot j's sample off its posting lists, frees the words
// it was the last to carry, and leaves the slot without keywords.
func (s *sampleStore) dropKeywords(j int32) {
	for _, r := range s.refsOf(j) {
		if r.pos == notPosted {
			continue
		}
		e := &s.words[r.id]
		last := uint32(len(e.postings) - 1)
		if r.pos != last {
			// The list's last slot takes the vacated place; its sample's
			// reference to this word learns the new position.
			m := e.postings[last]
			e.postings[r.pos] = m
			mrefs := s.refsOf(int32(m))
			for mi := range mrefs {
				if mrefs[mi] == (kwRef{r.id, last}) {
					mrefs[mi].pos = r.pos
					break
				}
			}
		}
		if e.postings = e.postings[:last]; last == 0 {
			delete(s.ids, e.word)
			*e = kwEntry{}
			s.freeIDs = append(s.freeIDs, r.id)
		}
	}
	if k := &s.kw[j]; int(k.n) > len(k.inline) {
		delete(s.long, j)
	}
	s.kw[j].n = 0
}

// remove deletes slot j's sample and moves the last slot's into its place,
// reporting whether a sample moved (j was not the last). Emptied, the store
// lets go of everything it allocated: an idle reservoir is a fresh one.
func (s *sampleStore) remove(j int32) (moved bool) {
	s.dropKeywords(j)
	last := int32(len(s.ts) - 1)
	if last == 0 {
		*s = sampleStore{}
		return false
	}
	if moved = j != last; moved {
		s.ts[j], s.loc[j], s.kw[j] = s.ts[last], s.loc[last], s.kw[last]
		if int(s.kw[j].n) > len(s.kw[j].inline) {
			s.long[j] = s.long[last]
			delete(s.long, last)
		}
		for _, r := range s.refsOf(j) {
			if r.pos != notPosted {
				s.words[r.id].postings[r.pos] = uint32(j)
			}
		}
	}
	s.ts, s.loc, s.kw = s.ts[:last], s.loc[:last], s.kw[:last]
	return moved
}

// nextExpired returns the first slot at or after from whose sample is older
// than cutoff, or -1. The purge removes that slot and asks again from the
// same one, which is the plain list's swap-from-last walk.
func (s *sampleStore) nextExpired(from int32, cutoff int64) int32 {
	for i, ts := range s.ts[from:] {
		if ts < cutoff {
			return from + int32(i)
		}
	}
	return -1
}

// resolve looks the query's keywords up, leaving in s.qids the IDs of those
// some sample carries (a repeated keyword repeats its ID), and returns the
// total length of their posting lists: the cost of counting through them.
func (s *sampleStore) resolve(kws []string) (postings int) {
	s.qids = s.qids[:0]
	for _, w := range kws {
		if id, ok := s.ids[w]; ok {
			s.qids = append(s.qids, id)
			postings += len(s.words[id].postings)
		}
	}
	return postings
}

// countPostings counts the samples that carry a resolved query keyword
// and, if q has a range, lie in it: the union of the posting lists, each
// slot once. A single list needs no bookkeeping; several mark the slots
// they count in a bitmap.
func (s *sampleStore) countPostings(q *stream.Query) int {
	merge := len(s.qids) > 1
	if merge {
		words := (len(s.ts) + 63) / 64
		if cap(s.seen) < words {
			s.seen = make([]uint64, words)
		}
		s.seen = s.seen[:words]
		clear(s.seen)
	} else if !q.HasRange && len(s.qids) == 1 {
		return len(s.words[s.qids[0]].postings)
	}
	n := 0
	for _, id := range s.qids {
		for _, j := range s.words[id].postings {
			if q.HasRange && !q.Range.Contains(s.loc[j]) {
				continue
			}
			if merge {
				w, bit := &s.seen[j>>6], uint64(1)<<(j&63)
				if *w&bit != 0 {
					continue
				}
				*w |= bit
			}
			n++
		}
	}
	return n
}

// carriesAny is the keyword predicate on IDs: slot j's sample has one of
// the resolved query keywords.
func (s *sampleStore) carriesAny(j int32) bool {
	for _, r := range s.refsOf(j) {
		for _, id := range s.qids {
			if r.id == id {
				return true
			}
		}
	}
	return false
}

// save writes slot i's sample as saveSample writes one, the keywords
// through the dictionary.
func (s *sampleStore) save(e *persist.Enc, i int32) {
	e.F64(s.loc[i].X)
	e.F64(s.loc[i].Y)
	e.I64(s.ts[i])
	refs := s.refsOf(i)
	e.U32(uint32(len(refs)))
	for _, r := range refs {
		e.Str(s.words[r.id].word)
	}
}

// memoryBytes is what the store holds: the slot arrays and long keyword
// lists, the posting lists and the dictionary — a 40-byte entry and a
// free-list slot per ID, and about 48 bytes of map per word it ever held at
// once (a Go map of a few thousand short strings measures 32 to 60 an
// entry, and never shrinks).
func (s *sampleStore) memoryBytes() int {
	b := 8*cap(s.ts) + 16*cap(s.loc) + 28*cap(s.kw) +
		48*len(s.words) + 40*cap(s.words) + 4*cap(s.freeIDs) + 4*cap(s.qids) + 8*cap(s.seen)
	for _, l := range s.long {
		b += 48 + 8*cap(l)
	}
	for i := range s.words {
		b += 4 * cap(s.words[i].postings)
	}
	return b
}
