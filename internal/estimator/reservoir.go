package estimator

import (
	"fmt"
	"math/rand"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/kmv"
	"github.com/spatiotext/latest/internal/stream"
)

// defaultReservoirCapacity is the sampling list size at Scale=1. The paper
// uses one million objects against a 75M-object stream; this default keeps
// the same ~2% sampling ratio against this repository's synthetic streams.
const defaultReservoirCapacity = 16384

// sample is a retained stream object as SPN and ED keep it, and the unit
// every reservoir serializes. Keyword slices are shared with the inserted
// object, which the driver treats as immutable after insert.
type sample struct {
	loc geo.Point
	kws []string
	ts  int64
}

// RSL and RSH split a retained sample so that a query scan reads one
// compact array. sampleKey is everything a scan filters on, 32 bytes: the
// timestamp the lazy purge tests, a 64-bit superimposed signature of the
// keywords (see keywordSignature) and the location. The keyword slice
// itself lives in a parallel array and is reached only to verify a
// signature hit against the actual strings. Signatures are derived data:
// computed when a sample is admitted, rebuilt on LoadState, never
// serialized.
type sampleKey struct {
	ts  int64
	sig uint64
	loc geo.Point
}

func newSampleKey(ts int64, loc geo.Point, kws []string) sampleKey {
	return sampleKey{ts: ts, sig: keywordSignature(kws), loc: loc}
}

// keywordSignature superimposes every keyword onto a 64-bit word: one bit,
// chosen by kmv.Hash64, in each 32-bit half. It is zero exactly for an
// empty list.
func keywordSignature(kws []string) uint64 {
	var sig uint64
	for _, kw := range kws {
		h := kmv.Hash64(kw)
		lo, hi := h&31, 32+(h>>5)&31
		sig |= 1<<lo | 1<<hi
	}
	return sig
}

// signaturesMeet is false when two signatures alone prove that the keyword
// lists behind them share no keyword: a shared keyword would put a common
// bit in both halves, so a half with no common bit rules one out. True
// means "maybe" — a collision is possible and the strings decide.
func signaturesMeet(a, b uint64) bool {
	x := a & b
	return uint32(x) != 0 && x>>32 != 0
}

// ReservoirList is the RSL estimator: Vitter's Algorithm R over the sliding
// window (Figure 1(b)'s list without the grid). Each arrival replaces a
// random slot with probability capacity/|window arrivals|, which keeps the
// list approximately uniform over the live window; expired samples are
// purged lazily during the full scan every estimate performs. Estimates are
// the matching sample fraction scaled by the windowed arrival count.
//
// The scan streams through keys, where the signature and the range reject
// a sample without a look at its keywords; a query reads 32 bytes per
// sample plus the keywords of the few samples whose signature hits.
type ReservoirList struct {
	capacity int
	src      *countedSource
	rng      *rand.Rand
	counter  *WindowCounter
	keys     []sampleKey
	kws      [][]string // parallel to keys
	span     int64
}

// NewReservoirList builds the RSL estimator.
func NewReservoirList(p Params) *ReservoirList {
	src, rng := newCountedRand(p.Seed + 0x5271)
	return &ReservoirList{
		capacity: p.scaledInt(defaultReservoirCapacity, 64),
		src:      src,
		rng:      rng,
		counter:  NewWindowCounter(p.Span, defaultHistSlices),
		span:     p.Span,
	}
}

// Name implements Estimator.
func (r *ReservoirList) Name() string { return NameRSL }

// Capacity returns the sampling list size.
func (r *ReservoirList) Capacity() int { return r.capacity }

// Len returns the current number of retained samples (live or not yet
// purged).
func (r *ReservoirList) Len() int { return len(r.keys) }

// Insert implements Estimator. The signature is hashed only for an object
// the reservoir admits.
func (r *ReservoirList) Insert(o *stream.Object) {
	r.counter.Add(o.Timestamp)
	if len(r.keys) < r.capacity {
		r.keys = append(r.keys, newSampleKey(o.Timestamp, o.Loc, o.Keywords))
		r.kws = append(r.kws, o.Keywords)
		return
	}
	n := int(r.counter.Live(o.Timestamp))
	if n < r.capacity {
		n = r.capacity
	}
	if j := r.rng.Intn(n); j < r.capacity {
		r.keys[j], r.kws[j] = newSampleKey(o.Timestamp, o.Loc, o.Keywords), o.Keywords
	}
}

// Estimate implements Estimator. The scan purges expired samples in place,
// so the sample set self-cleans at query time.
func (r *ReservoirList) Estimate(q *stream.Query) float64 {
	cutoff := q.Timestamp - r.span
	qsig := keywordSignature(q.Keywords)
	matches := 0
	for i := 0; i < len(r.keys); {
		k := &r.keys[i]
		if k.ts < cutoff {
			last := len(r.keys) - 1
			r.keys[i], r.kws[i] = r.keys[last], r.kws[last]
			r.keys, r.kws = r.keys[:last], r.kws[:last]
			continue
		}
		if qsig == 0 {
			matches += rangeFlag(q, k.loc)
		} else if sampleMayMatch(k, q, qsig) && sharesKeyword(r.kws[i], q.Keywords) {
			matches++
		}
		i++
	}
	live := len(r.keys)
	if live == 0 {
		return 0
	}
	w := r.counter.Live(q.Timestamp)
	return float64(matches) / float64(live) * w
}

// A scan counts the live samples that match the query, and spells the
// match out per sample in one of two ways (the loops repeat these few lines
// rather than share a function, because only the pieces are small enough
// to inline). A query without keywords has nothing to verify: the scan
// sums rangeFlag, with no data-dependent branch — the range test comes out
// close to even on real queries, where a mispredicted branch costs more
// than the test. A keyword or hybrid query is filter-then-verify:
// sampleMayMatch on the key alone, then sharesKeyword on the strings of
// the few samples that pass.

// rangeFlag is 1 if the query has no range or its range contains p
// (geo.Rect.Contains, comparison by comparison), else 0.
func rangeFlag(q *stream.Query, p geo.Point) int {
	r := &q.Range
	return b2i(!q.HasRange) | b2i(p.X >= r.MinX)&b2i(p.X < r.MaxX)&b2i(p.Y >= r.MinY)&b2i(p.Y < r.MaxY)
}

// b2i compiles to a flag materialization, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sampleMayMatch is the filter: the signature test, then the range test.
// qsig is keywordSignature(q.Keywords) and not zero.
func sampleMayMatch(k *sampleKey, q *stream.Query, qsig uint64) bool {
	return signaturesMeet(k.sig, qsig) && (!q.HasRange || q.Range.Contains(k.loc))
}

// sharesKeyword is the verification: the exact keyword predicate
// o.kw ∩ q.W ≠ ∅.
func sharesKeyword(kws, qkws []string) bool {
	for _, kw := range kws {
		for _, qk := range qkws {
			if kw == qk {
				return true
			}
		}
	}
	return false
}

// Observe implements Estimator; sampling estimators ignore feedback.
func (r *ReservoirList) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator. The arrays are released, not truncated: an
// idle reservoir must not pin its backing store nor, through stale
// entries, the keyword strings of objects long evicted.
func (r *ReservoirList) Reset() {
	r.keys, r.kws = nil, nil
	r.counter.Reset()
}

// MemoryBytes implements Estimator: a 32-byte key and a 24-byte keyword
// slice header per retained sample, plus the arrival counter.
func (r *ReservoirList) MemoryBytes() int {
	return 64 + 32*cap(r.keys) + 24*cap(r.kws) + r.counter.MemoryBytes()
}

// String summarizes state for diagnostics.
func (r *ReservoirList) String() string {
	return fmt.Sprintf("RSL{cap=%d len=%d}", r.capacity, len(r.keys))
}
