package estimator

import (
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/intern"
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
// Dictionary and postings are derived data: rebuilt on LoadState, never
// serialized, dropped with the last sample. An ID lives
// while some retained sample carries its word and is reused afterwards;
// neither IDs nor posting order reach an estimate (counts are of sets) or
// an image (which spells the words out), so a restored store need not
// reproduce them.
type sampleStore struct {
	ts   []int64      // what the purge walks
	loc  []geo.LPoint // what a range count walks: points on the world's lattice
	kw   []kwList
	long map[int32][]kwRef // by slot: the keyword lists too long to sit in kw

	dict     intern.Dict
	postings lists // by ID

	// tight is set the first time the store holds as many samples as the
	// caller will ever put. Until then full lists double; then the lists are
	// cut again, and from then on a full one grows by an eighth.
	tight bool

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
// inside its byte budget. The list holds the references before its first
// unused one, whose ID is noID; a list that starts with longList is
// s.long's for the slot.
type kwList [3]kwRef

const noID = ^uint32(0)

var (
	unused    = kwRef{noID, 0}
	longList  = kwRef{noID, 1}
	emptyList = kwList{unused, unused, unused}
)

// kwListBytes is what a slot's keyword list costs in the slot array.
const kwListBytes = 24

func (s *sampleStore) refsOf(i int32) []kwRef {
	k := &s.kw[i]
	n := len(k) - b2i(k[0].id == noID) - b2i(k[1].id == noID) - b2i(k[2].id == noID)
	if n == 0 && k[0] == longList {
		return s.long[i]
	}
	return k[:n]
}

// put stores a sample in slot j: the slot after the last (the store grows
// by one) or an occupied one, whose sample it replaces. The slot arrays
// double until they hold limit, the most the caller will ever put, and no
// further: a full reservoir's arrays are full. It reports whether this put
// made the store tight, which it does the first time the store holds limit
// samples.
func (s *sampleStore) put(j int32, ts int64, loc geo.LPoint, kws []string, limit int) (tightened bool) {
	if int(j) == len(s.ts) {
		if n := min(max(2*int(j), 64), limit); int(j) == cap(s.ts) && n > int(j) {
			s.reserve(n)
		}
		s.ts, s.loc, s.kw = append(s.ts, ts), append(s.loc, loc), append(s.kw, emptyList)
	} else {
		s.dropKeywords(j)
		s.ts[j], s.loc[j] = ts, loc
	}
	refs := s.refsFor(j, len(kws))
	for i, w := range kws {
		id := s.wordID(w)
		// Slot j is posted last or not at all: the slot's previous sample
		// was taken off every list before this one came.
		p := s.postings.get(int(id))
		if n := len(p); n > 0 && p[n-1] == uint32(j) {
			refs[i] = kwRef{id, notPosted}
			continue
		}
		refs[i] = kwRef{id, uint32(len(p))}
		s.postings.push(int(id), uint32(j), s.tight)
	}
	if s.tight || len(s.ts) < limit {
		return false
	}
	s.tight = true
	s.postings.cut(-1, 0)
	return true
}

// refsFor gives slot j, whose keyword list is empty, a list of n
// references and returns it for the caller to fill.
func (s *sampleStore) refsFor(j int32, n int) []kwRef {
	k := &s.kw[j]
	if n <= len(k) {
		return k[:n]
	}
	if s.long == nil {
		s.long = make(map[int32][]kwRef)
	}
	refs := make([]kwRef, n)
	s.long[j], k[0] = refs, longList
	return refs
}

// wordID returns the ID of w, entering it in the dictionary, with an empty
// posting list, if no sample carries it.
func (s *sampleStore) wordID(w string) uint32 {
	id, ok := s.dict.ID(w)
	if !ok {
		if id = s.dict.Add(w); int(id) == len(s.postings.at) {
			s.postings.add()
		}
	}
	return id
}

// reserve gives the slot arrays capacity n exactly.
func (s *sampleStore) reserve(n int) {
	s.ts, s.loc, s.kw = regrow(s.ts, n), regrow(s.loc, n), regrow(s.kw, n)
}

// add appends a sample to a store being built in bulk, by a draw or a
// restore: its keywords are entered in the dictionary but posted by
// postAll, which must run before the store is otherwise used.
func (s *sampleStore) add(ts int64, loc geo.LPoint, kws []string) {
	j := int32(len(s.ts))
	s.ts, s.loc, s.kw = append(s.ts, ts), append(s.loc, loc), append(s.kw, emptyList)
	refs := s.refsFor(j, len(kws))
	for i, w := range kws {
		refs[i] = kwRef{s.wordID(w), notPosted}
	}
}

// postAll posts every sample add stored, in slot order, as put would have:
// it counts the samples of each word, cuts every posting list to its count
// at once, and fills them. tight says whether the store is to count as
// tight from here on.
func (s *sampleStore) postAll(tight bool) {
	n := make([]uint32, s.dict.IDs())
	for j := range s.kw {
		refs := s.refsOf(int32(j))
		for i, r := range refs {
			if firstOf(refs, i) {
				n[r.id]++
			}
		}
	}
	s.postings.reset(n)
	clear(n)
	for j := range s.kw {
		refs := s.refsOf(int32(j))
		for i := range refs {
			if id := refs[i].id; firstOf(refs, i) {
				refs[i].pos = n[id]
				s.postings.get(int(id))[n[id]] = uint32(j)
				n[id]++
			}
		}
	}
	s.tight = tight
}

// firstOf reports whether refs[i] is the first reference to its word.
func firstOf(refs []kwRef, i int) bool {
	for _, r := range refs[:i] {
		if r.id == refs[i].id {
			return false
		}
	}
	return true
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
		p := s.postings.get(int(r.id))
		last := uint32(len(p) - 1)
		if r.pos != last {
			// The list's last slot takes the vacated place; its sample's
			// reference to this word learns the new position.
			m := p[last]
			p[r.pos] = m
			mrefs := s.refsOf(int32(m))
			for mi := range mrefs {
				if mrefs[mi] == (kwRef{r.id, last}) {
					mrefs[mi].pos = r.pos
					break
				}
			}
		}
		if s.postings.pop(int(r.id)); last == 0 {
			s.dict.Release(r.id)
		}
	}
	if k := &s.kw[j]; k[0] == longList {
		delete(s.long, j)
	}
	s.kw[j] = emptyList
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
		if s.kw[j][0] == longList {
			s.long[j] = s.long[last]
			delete(s.long, last)
		}
		for _, r := range s.refsOf(j) {
			if r.pos != notPosted {
				s.postings.get(int(r.id))[r.pos] = uint32(j)
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
		if id, ok := s.dict.ID(w); ok {
			s.qids = append(s.qids, id)
			postings += s.postings.size(int(id))
		}
	}
	return postings
}

// countPostings counts the samples that carry a resolved query keyword
// and, if q has a range, lie in r, its range snapped: the union of the
// posting lists, each slot once. A single list needs no bookkeeping;
// several mark the slots they count in a bitmap.
func (s *sampleStore) countPostings(q *stream.Query, r geo.LRect) int {
	merge := len(s.qids) > 1
	if merge {
		words := (len(s.ts) + 63) / 64
		if cap(s.seen) < words {
			s.seen = make([]uint64, words)
		}
		s.seen = s.seen[:words]
		clear(s.seen)
	} else if !q.HasRange && len(s.qids) == 1 {
		return s.postings.size(int(s.qids[0]))
	}
	// Locals, so that the bitmap stores do not make the loop reload them.
	n, seen, loc, hasRange := 0, s.seen, s.loc, q.HasRange
	for _, id := range s.qids {
		for _, j := range s.postings.get(int(id)) {
			if hasRange && !r.Contains(loc[j]) {
				continue
			}
			if merge {
				w, bit := &seen[j>>6], uint64(1)<<(j&63)
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
// the resolved query keywords. An inline list is tested whole: its unused
// references carry noID, which no query keyword resolves to.
func (s *sampleStore) carriesAny(j int32) bool {
	refs := s.kw[j][:]
	if refs[0] == longList {
		refs = s.long[j]
	}
	for _, r := range refs {
		for _, id := range s.qids {
			if r.id == id {
				return true
			}
		}
	}
	return false
}

// save writes slot i's sample: its lattice point, timestamp and keywords,
// these through the dictionary.
func (s *sampleStore) save(e *persist.Enc, i int32) {
	e.U32(s.loc[i].X)
	e.U32(s.loc[i].Y)
	e.I64(s.ts[i])
	refs := s.refsOf(i)
	e.U32(uint32(len(refs)))
	for _, r := range refs {
		e.Str(s.dict.Word(r.id))
	}
}

// memoryBytes is what the store holds: the slot arrays and long keyword
// lists, the posting lists and their headers, and the dictionary.
func (s *sampleStore) memoryBytes() int {
	b := 8*cap(s.ts) + 8*cap(s.loc) + kwListBytes*cap(s.kw) + s.dict.MemoryBytes() +
		s.postings.memoryBytes() + 4*cap(s.qids) + 8*cap(s.seen)
	for _, l := range s.long {
		b += 48 + 8*cap(l)
	}
	return b
}
