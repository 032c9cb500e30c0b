package estimator

import (
	"math"

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
	// What the purge walks: each sample's timestamp as an offset from
	// base, and bits 32–63 of the offsets once one needs them. The first
	// sample into an empty store sets base 2³¹ ms before itself; a later
	// one that lands out of reach moves it (setTS).
	base int64
	ts   []uint32
	tsHi []uint32

	loc  []geo.LPoint // what a range count walks: points on the world's lattice
	kw   []kwList
	kwHi []kwList        // bits 16–31 of kw's fields once one needs them
	long map[int32][]ref // by slot: the keyword lists too long to sit in kw

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

// ref is one keyword of one sample: the word's ID and the index of the
// sample's slot in the word's posting list, or notPosted on a repeat of a
// word the sample has already listed.
type ref struct{ id, pos uint32 }

const (
	noID      = ^uint32(0)
	notPosted = ^uint32(0)
)

// kwRef is a ref as a keyword list holds it: each field plus one, in 16
// bits, so that the zero kwRef is a reference to noID, which marks the
// end of a list. IDs and positions up to 2¹⁶−2 fit; a larger one gives
// the store its kwHi column for the bits above.
type kwRef struct{ id, pos uint16 }

// kwList is a sample's keywords. Up to three references sit in the list
// itself, so that reaching the keywords of a sample that has few — nearly
// every sample — costs one cache line, not two, and a full reservoir stays
// inside its byte budget. The list holds the references before its first
// unused one, whose ID is noID; a list that starts with longRef is
// s.long's for the slot.
type kwList [3]kwRef

var longRef = ref{noID, 1}

// kwListBytes is what a slot's keyword list costs in the slot array.
const kwListBytes = 12

// joinRef is the reference whose halves a keyword list and its high
// column hold.
func joinRef(lo, hi kwRef) ref {
	return ref{(uint32(lo.id) | uint32(hi.id)<<16) - 1, (uint32(lo.pos) | uint32(hi.pos)<<16) - 1}
}

// refAt returns reference i of slot j's keyword list.
func (s *sampleStore) refAt(j int32, i int) ref {
	return joinRef(s.kw[j][i], high(s.kwHi, int(j))[i])
}

// setRef sets reference i of slot j's keyword list.
func (s *sampleStore) setRef(j int32, i int, r ref) {
	id, pos := r.id+1, r.pos+1
	s.kw[j][i] = kwRef{uint16(id), uint16(pos)}
	if s.kwHi != nil || (id|pos)>>16 != 0 {
		h := high(s.kwHi, int(j))
		h[i] = kwRef{uint16(id >> 16), uint16(pos >> 16)}
		s.setKwHigh(j, h)
	}
}

// setKwHigh stores the high halves of slot j's references, giving the
// store its kwHi column the first time.
func (s *sampleStore) setKwHigh(j int32, hi kwList) {
	if s.kwHi == nil {
		s.kwHi = make([]kwList, len(s.kw), cap(s.kw))
	}
	s.kwHi[j] = hi
}

// refsOf returns slot j's keyword references: its long list, whose
// positions may be rewritten in place, or its inline list, decoded into
// buf, which setRef or setRefs writes back.
func (s *sampleStore) refsOf(j int32, buf *[3]ref) []ref {
	lo, hi := &s.kw[j], high(s.kwHi, int(j))
	n := 0
	for ; n < len(buf); n++ {
		if buf[n] = joinRef(lo[n], hi[n]); buf[n].id == noID {
			break
		}
	}
	if n == 0 && buf[0] == longRef {
		return s.long[j]
	}
	return buf[:n]
}

// setRefs stores refs, slot j's keyword references as refsOf or refsFor
// returned them, back into its list. A long list is s.long's and was
// written in place: the slot's list just marks it.
func (s *sampleStore) setRefs(j int32, refs []ref) {
	if len(refs) > len(kwList{}) {
		refs = []ref{longRef}
	}
	// Each reference goes straight into the list: a list assembled on the
	// stack in halves and copied whole would stall on the copy's loads.
	k, wide := &s.kw[j], uint32(0)
	for i := range k {
		r := ref{noID, noID}
		if i < len(refs) {
			r = refs[i]
		}
		id, pos := r.id+1, r.pos+1
		k[i] = kwRef{uint16(id), uint16(pos)}
		wide |= (id | pos) >> 16
	}
	if s.kwHi != nil || wide != 0 {
		var hi kwList
		for i, r := range refs {
			hi[i] = kwRef{uint16((r.id + 1) >> 16), uint16((r.pos + 1) >> 16)}
		}
		s.setKwHigh(j, hi)
	}
}

// tsAt returns slot j's timestamp.
func (s *sampleStore) tsAt(j int32) int64 {
	return s.base + int64(uint64(s.ts[j])|uint64(high(s.tsHi, int(j)))<<32)
}

// setTS sets slot j's timestamp. An offset that 32 bits do not hold moves
// base first, if that lets every offset fit; only if it does not does the
// store get its tsHi column.
func (s *sampleStore) setTS(j int32, ts int64) {
	off := uint64(ts - s.base)
	if off>>32 != 0 && s.tsHi == nil && s.rebase(j, ts) {
		off = uint64(ts - s.base)
	}
	s.ts[j] = uint32(off)
	setHigh(&s.tsHi, len(s.ts), cap(s.ts), int(j), uint32(off>>32))
}

// rebase moves base onto the oldest of ts and every slot's timestamp but
// slot j's, which ts replaces, and shifts the offsets to match, if the
// newest of them is then within 32 bits of it. It reports whether it did.
// A store that keeps less than 2³² ms (49 days) of samples at a time thus
// stays narrow however long it runs.
func (s *sampleStore) rebase(j int32, ts int64) bool {
	lo, hi := ts, ts
	for i, off := range s.ts {
		if i != int(j) {
			t := s.base + int64(off)
			lo, hi = min(lo, t), max(hi, t)
		}
	}
	if uint64(hi)-uint64(lo) > math.MaxUint32 {
		return false
	}
	d := uint32(uint64(lo) - uint64(s.base))
	for i := range s.ts {
		s.ts[i] -= d
	}
	s.base = lo
	return true
}

// push appends a slot for a sample at ts and loc, without keywords.
func (s *sampleStore) push(ts int64, loc geo.LPoint) int32 {
	j := int32(len(s.ts))
	if j == 0 {
		// Half the offsets' range either side, as far as int64 allows.
		s.base = max(ts, math.MinInt64+1<<31) - 1<<31
	}
	s.ts, s.loc, s.kw = append(s.ts, 0), append(s.loc, loc), append(s.kw, kwList{})
	s.tsHi, s.kwHi = grow(s.tsHi), grow(s.kwHi)
	s.setTS(j, ts)
	return j
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
		s.push(ts, loc)
	} else {
		s.dropKeywords(j)
		s.setTS(j, ts)
		s.loc[j] = loc
	}
	var buf [3]ref
	refs := s.refsFor(j, &buf, len(kws))
	for i, w := range kws {
		id := s.wordID(w)
		// Slot j is posted last or not at all: the slot's previous sample
		// was taken off every list before this one came.
		p, hi := s.postings.get(int(id))
		if n := len(p); n > 0 && join(p, hi, n-1) == uint32(j) {
			refs[i] = ref{id, notPosted}
			continue
		}
		refs[i] = ref{id, s.postings.push(int(id), uint32(j), s.tight)}
	}
	s.setRefs(j, refs)
	if s.tight || len(s.ts) < limit {
		return false
	}
	s.tight = true
	s.postings.cut(-1, 0)
	return true
}

// refsFor returns room for slot j's n references, which setRefs stores:
// buf if they fit inline, else a long list of their own.
func (s *sampleStore) refsFor(j int32, buf *[3]ref, n int) []ref {
	if n <= len(buf) {
		return buf[:n]
	}
	if s.long == nil {
		s.long = make(map[int32][]ref)
	}
	refs := make([]ref, n)
	s.long[j] = refs
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
	if s.tsHi != nil {
		s.tsHi = regrow(s.tsHi, n)
	}
	if s.kwHi != nil {
		s.kwHi = regrow(s.kwHi, n)
	}
}

// add appends a sample to a store being built in bulk, by a draw or a
// restore: its keywords are entered in the dictionary but posted by
// postAll, which must run before the store is otherwise used.
func (s *sampleStore) add(ts int64, loc geo.LPoint, kws []string) {
	j := s.push(ts, loc)
	var buf [3]ref
	refs := s.refsFor(j, &buf, len(kws))
	for i, w := range kws {
		refs[i] = ref{s.wordID(w), notPosted}
	}
	s.setRefs(j, refs)
}

// postAll posts every sample add stored, in slot order, as put would have:
// it counts the samples of each word, cuts every posting list to its count
// at once, and fills them. A word's first reference in a slot is the one
// posted, which marking the word with the slot finds in one pass, however
// many keywords the sample has. tight says whether the store is to count
// as tight from here on.
func (s *sampleStore) postAll(tight bool) {
	ids := s.dict.IDs()
	counts := make([]uint32, 2*ids)
	n, mark := counts[:ids], counts[ids:] // by ID: samples, and one more than the last slot that listed it
	var buf [3]ref
	for j := range uint32(len(s.kw)) {
		for _, r := range s.refsOf(int32(j), &buf) {
			if mark[r.id] != j+1 {
				mark[r.id] = j + 1
				n[r.id]++
			}
		}
	}
	s.postings.reset(n)
	clear(counts)
	for j := range uint32(len(s.kw)) {
		refs := s.refsOf(int32(j), &buf)
		for i := range refs {
			if id := refs[i].id; mark[id] != j+1 {
				mark[id] = j + 1
				refs[i].pos = n[id]
				s.postings.set(int(id), int(n[id]), j)
				n[id]++
			}
		}
		s.setRefs(int32(j), refs)
	}
	s.tight = tight
}

// regrow returns s with capacity n exactly: the slot arrays grow by rule,
// not by append, and carry no more slack than the rule gives them.
func regrow[T any](s []T, n int) []T { return append(make([]T, 0, n), s...) }

// dropKeywords takes slot j's sample off its posting lists and frees the
// words it was the last to carry. The slot's keyword list is left for the
// caller to overwrite or truncate away.
func (s *sampleStore) dropKeywords(j int32) {
	var buf [3]ref
	refs := s.refsOf(j, &buf)
	for _, r := range refs {
		if r.pos == notPosted {
			continue
		}
		if m, last := s.postings.remove(int(r.id), r.pos); last != r.pos {
			// The list's last slot took the vacated place; its sample's
			// reference to this word learns the new position.
			s.repoint(int32(m), ref{r.id, last}, r.pos)
		} else if last == 0 {
			s.dict.Release(r.id)
		}
	}
	if len(refs) > len(kwList{}) {
		delete(s.long, j)
	}
}

// repoint sets the position of slot j's reference r to pos, which is less
// than r.pos. A narrow store compares the list's own 16-bit fields, and
// only for a reference whose fields fit them: a wider one is a long list's.
func (s *sampleStore) repoint(j int32, r ref, pos uint32) {
	if id, from := r.id+1, r.pos+1; s.kwHi == nil && (id|from)>>16 == 0 {
		k, want := &s.kw[j], kwRef{uint16(id), uint16(from)}
		for i := range k {
			if k[i] == want {
				k[i].pos = uint16(pos + 1)
				return
			}
		}
	} else {
		for i := range len(kwList{}) {
			if s.refAt(j, i) == r {
				s.setRef(j, i, ref{r.id, pos})
				return
			}
		}
	}
	l := s.long[j] // not inline: the slot's list is a long one
	for i := range l {
		if l[i] == r {
			l[i].pos = pos
			return
		}
	}
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
		var buf [3]ref
		refs := s.refsOf(last, &buf)
		s.ts[j], s.loc[j], s.kw[j] = s.ts[last], s.loc[last], s.kw[last]
		if s.tsHi != nil {
			s.tsHi[j] = s.tsHi[last]
		}
		if s.kwHi != nil {
			s.kwHi[j] = s.kwHi[last]
		}
		if len(refs) > len(kwList{}) {
			s.long[j] = refs
			delete(s.long, last)
		}
		for _, r := range refs {
			if r.pos != notPosted {
				s.postings.set(int(r.id), int(r.pos), uint32(j))
			}
		}
	}
	s.ts, s.loc, s.kw = s.ts[:last], s.loc[:last], s.kw[:last]
	if s.tsHi != nil {
		s.tsHi = s.tsHi[:last]
	}
	if s.kwHi != nil {
		s.kwHi = s.kwHi[:last]
	}
	return moved
}

// nextExpired returns the first slot at or after from whose sample is older
// than cutoff, or -1. The purge removes that slot and asks again from the
// same one, which is the plain list's swap-from-last walk. While every
// offset fits 32 bits it compares offsets.
func (s *sampleStore) nextExpired(from int32, cutoff int64) int32 {
	if s.tsHi != nil {
		for j := from; int(j) < len(s.ts); j++ {
			if s.tsAt(j) < cutoff {
				return j
			}
		}
		return -1
	}
	if cutoff <= s.base || int(from) >= len(s.ts) {
		return -1 // no sample is older than base
	}
	d := uint64(cutoff) - uint64(s.base)
	if d > math.MaxUint32 {
		return from // every sample is
	}
	// Eight offsets a step, by their minimum: the walk is most of what an
	// RSL estimate costs, and it nearly always finds none.
	ts, c, i := s.ts[from:], uint32(d), 0
	for ; i+8 <= len(ts); i += 8 {
		t := ts[i : i+8 : i+8]
		if min(min(t[0], t[1]), min(t[2], t[3]), min(t[4], t[5]), min(t[6], t[7])) < c {
			break
		}
	}
	for ; i < len(ts); i++ {
		if ts[i] < c {
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
		p, hi := s.postings.get(int(id))
		for k := range p {
			j := join(p, hi, k)
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
// the resolved query keywords. A narrow inline list — one that is not
// longRef's {0, 2} — is tested whole, on the IDs plus one it holds: its
// unused references hold 0, which no ID plus one is.
func (s *sampleStore) carriesAny(j int32) bool {
	if k := &s.kw[j]; s.kwHi == nil && k[0] != (kwRef{0, 2}) {
		for _, r := range k {
			for _, id := range s.qids {
				if uint32(r.id) == id+1 {
					return true
				}
			}
		}
		return false
	}
	var buf [3]ref
	for _, r := range s.refsOf(j, &buf) {
		for _, id := range s.qids {
			if r.id == id {
				return true
			}
		}
	}
	return false
}

// save writes slot i's sample: its lattice point, its timestamp and its
// keywords, these through the dictionary.
func (s *sampleStore) save(e *persist.Enc, i int32) {
	e.U32(s.loc[i].X)
	e.U32(s.loc[i].Y)
	e.I64(s.tsAt(i))
	var buf [3]ref
	refs := s.refsOf(i, &buf)
	e.U32(uint32(len(refs)))
	for _, r := range refs {
		e.Str(s.dict.Word(r.id))
	}
}

// memoryBytes is what the store holds: the slot arrays and long keyword
// lists, the posting lists and their headers, and the dictionary.
func (s *sampleStore) memoryBytes() int {
	b := 4*(cap(s.ts)+cap(s.tsHi)) + 8*cap(s.loc) + kwListBytes*(cap(s.kw)+cap(s.kwHi)) +
		s.dict.MemoryBytes() + s.postings.memoryBytes() + 4*cap(s.qids) + 8*cap(s.seen)
	for _, l := range s.long {
		b += 48 + 8*cap(l)
	}
	return b
}
