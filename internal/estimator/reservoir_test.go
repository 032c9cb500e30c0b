package estimator

import (
	"bytes"
	"fmt"
	"github.com/spatiotext/latest/internal/datagen"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

func TestReservoirFillsThenSamples(t *testing.T) {
	p := testParams()
	r := NewReservoirList(p)
	rng := rand.New(rand.NewSource(1))
	// Below capacity: every object is retained.
	for i := 0; i < 100; i++ {
		o := genObject(rng, uint64(i), int64(i+1))
		r.Insert(&o)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	// Far beyond capacity the list stays at capacity.
	for i := 100; i < r.Capacity()*3; i++ {
		o := genObject(rng, uint64(i), int64(i+1))
		r.Insert(&o)
	}
	if r.Len() != r.Capacity() {
		t.Fatalf("Len = %d, want capacity %d", r.Len(), r.Capacity())
	}
}

func TestReservoirEstimateAccuracy(t *testing.T) {
	for _, build := range []struct {
		name string
		f    func(Params) Estimator
	}{
		{"RSL", func(p Params) Estimator { return NewReservoirList(p) }},
		{"RSH", func(p Params) Estimator { return NewReservoirHashmap(p) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			p := testParams()
			e := build.f(p)
			w := stream.NewWindow(geo.UnitSquare, p.Span, 1024)
			ts := feedBoth(t, e, w, 20000, 21)
			// Keyword and hybrid queries: reservoirs carry full objects and
			// should do well.
			qs := []stream.Query{
				stream.KeywordQ([]string{"kw0"}, ts),
				stream.KeywordQ([]string{"kw1", "kw4"}, ts),
				stream.HybridQ(geo.CenteredRect(geo.Pt(0.3, 0.3), 0.25, 0.25), []string{"kw0"}, ts),
				stream.SpatialQ(geo.CenteredRect(geo.Pt(0.75, 0.65), 0.2, 0.2), ts),
			}
			for _, q := range qs {
				q := q
				est := e.Estimate(&q)
				actual := float64(w.Answer(&q))
				if acc := metrics.Accuracy(est, actual); acc < 0.7 {
					t.Errorf("%v: est %v vs actual %v (acc %.3f)", q, est, actual, acc)
				}
			}
		})
	}
}

func TestReservoirExpiry(t *testing.T) {
	p := testParams() // 10s window
	r := NewReservoirList(p)
	for i := 0; i < 500; i++ {
		o := stream.Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"old"}, Timestamp: int64(i)}
		r.Insert(&o)
	}
	// 30 seconds later everything is stale: estimate 0 and purge happens.
	q := stream.KeywordQ([]string{"old"}, 30_000)
	if got := r.Estimate(&q); got != 0 {
		t.Errorf("stale estimate = %v, want 0", got)
	}
	if r.Len() != 0 {
		t.Errorf("purge left %d samples", r.Len())
	}
}

func TestRSHSlotMapInvariants(t *testing.T) {
	p := testParams()
	r := NewReservoirHashmap(p)
	rng := rand.New(rand.NewSource(5))
	checkInvariants := func(stage string) {
		t.Helper()
		checkRSHInvariants(t, stage, r)
	}
	// Fill phase.
	ts := int64(0)
	for i := 0; i < 200; i++ {
		ts++
		o := genObject(rng, uint64(i), ts)
		r.Insert(&o)
	}
	checkInvariants("fill")
	// Churn phase (replacements).
	for i := 0; i < r.Capacity()*2; i++ {
		ts++
		o := genObject(rng, uint64(1000+i), ts)
		r.Insert(&o)
	}
	checkInvariants("churn")
	// Expiry churn: jump time so purges fire.
	for i := 0; i < 5000; i++ {
		ts += 5
		o := genObject(rng, uint64(90000+i), ts)
		r.Insert(&o)
	}
	checkInvariants("expiry")
	// Query-time purge path.
	q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.3, 0.3), 0.3, 0.3), ts+20_000)
	_ = r.Estimate(&q)
	checkInvariants("query purge")
	kq := stream.KeywordQ([]string{"kw0"}, ts+20_000)
	_ = r.Estimate(&kq)
	checkInvariants("keyword purge")
	if r.Len() != 0 {
		t.Errorf("all samples expired but Len = %d", r.Len())
	}
}

// TestRSHRangeQueryEmptiesStore purges the last sample from inside the
// bucket walk: a few samples, then a whole-world range query past the span.
// The walk keeps reading the bucket index after the store has emptied.
func TestRSHRangeQueryEmptiesStore(t *testing.T) {
	p := testParams()
	queries := map[string]func(ts int64) stream.Query{
		"spatial": func(ts int64) stream.Query { return stream.SpatialQ(p.World, ts) },
		"hybrid":  func(ts int64) stream.Query { return stream.HybridQ(p.World, []string{"kw0", "kw1"}, ts) },
	}
	for name, build := range queries {
		for _, n := range []int{1, 5} {
			r := NewReservoirHashmap(p)
			rng := rand.New(rand.NewSource(13))
			ts := int64(0)
			for i := 0; i < n; i++ {
				ts++
				o := genObject(rng, uint64(i), ts)
				r.Insert(&o)
			}
			q := build(ts + p.Span + 1)
			if got := r.Estimate(&q); got != 0 {
				t.Errorf("%s, %d samples: estimate %v over an expired store, want 0", name, n, got)
			}
			if r.Len() != 0 {
				t.Errorf("%s, %d samples: Len = %d after every sample expired", name, n, r.Len())
			}
			checkRSHInvariants(t, name+" purge to empty", r)
			o := genObject(rng, 99, q.Timestamp+1)
			r.Insert(&o)
			if r.Len() != 1 {
				t.Errorf("%s, %d samples: insert after the purge left Len = %d", name, n, r.Len())
			}
			checkRSHInvariants(t, name+" insert after purge", r)
		}
	}
}

func TestRSHAgreesWithRSL(t *testing.T) {
	// Same stream, same seed conventions: both samplers should produce
	// estimates in the same ballpark (they share the estimation math).
	p := testParams()
	rsl := NewReservoirList(p)
	rsh := NewReservoirHashmap(p)
	w := stream.NewWindow(geo.UnitSquare, p.Span, 1024)
	rng := rand.New(rand.NewSource(31))
	ts := int64(0)
	for i := 0; i < 15000; i++ {
		ts++
		o := genObject(rng, uint64(i), ts)
		w.Insert(o)
		rsl.Insert(&o)
		rsh.Insert(&o)
	}
	q := stream.HybridQ(geo.CenteredRect(geo.Pt(0.3, 0.3), 0.3, 0.3), []string{"kw0", "kw2"}, ts)
	actual := float64(w.Answer(&q))
	a, b := rsl.Estimate(&q), rsh.Estimate(&q)
	if metrics.Accuracy(a, actual) < 0.7 || metrics.Accuracy(b, actual) < 0.7 {
		t.Errorf("RSL %v, RSH %v vs actual %v", a, b, actual)
	}
}

func TestRSHReset(t *testing.T) {
	p := testParams()
	r := NewReservoirHashmap(p)
	rng := rand.New(rand.NewSource(8))
	ts := int64(0)
	for i := 0; i < 1000; i++ {
		ts++
		o := genObject(rng, uint64(i), ts)
		r.Insert(&o)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	if r.buckets.at != nil || r.buckets.slab != nil {
		t.Fatal("buckets not released by Reset")
	}
	// Usable after reset.
	o := genObject(rng, 1, ts+1)
	r.Insert(&o)
	if r.Len() != 1 {
		t.Fatal("insert after Reset failed")
	}
}

// checkStoreInvariants asserts that the keyword index is the one the
// retained samples imply: every posting entry and the reference that owns
// it point at each other, no slot is listed twice under one ID, the live
// IDs are exactly the distinct words of the retained samples, and s.long
// holds the lists too long for their slots and nothing else.
func checkStoreInvariants(t testing.TB, stage string, s *sampleStore) {
	t.Helper()
	n := len(s.ts)
	if len(s.loc) != n || len(s.kw) != n {
		t.Fatalf("%s: %d timestamps, %d locations, %d keyword lists", stage, n, len(s.loc), len(s.kw))
	}
	if s.tsHi != nil && len(s.tsHi) != n || s.kwHi != nil && len(s.kwHi) != n {
		t.Fatalf("%s: %d samples, high columns of %d timestamps and %d keyword lists", stage, n, len(s.tsHi), len(s.kwHi))
	}
	posted := make(map[uint32]int) // ID → samples that list it
	long := 0
	for j := 0; j < n; j++ {
		var buf [3]ref
		refs := s.refsOf(int32(j), &buf)
		k := [3]ref{s.refAt(int32(j), 0), s.refAt(int32(j), 1), s.refAt(int32(j), 2)}
		if k[0] == longRef {
			long++
			if len(refs) <= len(k) || k[1] != (ref{noID, noID}) || k[2] != (ref{noID, noID}) {
				t.Fatalf("%s: slot %d has a long list of %d keywords beside %v", stage, j, len(refs), k)
			}
		} else if len(refs) < len(k) && k[len(refs)] != (ref{noID, noID}) {
			t.Fatalf("%s: slot %d ends its %d keywords with %v", stage, j, len(refs), k[len(refs)])
		}
		first := make(map[uint32]bool)
		for _, r := range refs {
			if int(r.id) >= s.dict.IDs() || s.postings.size(int(r.id)) == 0 {
				t.Fatalf("%s: slot %d refers to ID %d, which is not live", stage, j, r.id)
			}
			if id, ok := s.dict.ID(s.dict.Word(r.id)); !ok || id != r.id {
				t.Fatalf("%s: slot %d refers to ID %d, whose word resolves to %d (%v)", stage, j, r.id, id, ok)
			}
			if r.pos == notPosted != first[r.id] {
				t.Fatalf("%s: slot %d: occurrence of ID %d posted=%v, seen before=%v", stage, j, r.id, r.pos != notPosted, first[r.id])
			}
			if !first[r.id] {
				first[r.id] = true
				posted[r.id]++
				if p, hi := s.postings.get(int(r.id)); int(r.pos) >= len(p) || join(p, hi, int(r.pos)) != uint32(j) {
					t.Fatalf("%s: slot %d's back-position %d under ID %d does not round-trip", stage, j, r.pos, r.id)
				}
			}
		}
	}
	if len(posted) != s.dict.Len() {
		t.Fatalf("%s: %d live IDs, retained samples carry %d distinct words", stage, s.dict.Len(), len(posted))
	}
	if len(s.postings.at) != s.dict.IDs() {
		t.Fatalf("%s: %d posting lists for %d IDs", stage, len(s.postings.at), s.dict.IDs())
	}
	checkLists(t, stage+", postings", &s.postings)
	for id := range s.postings.at {
		// Equal lengths plus the round trip above: the list holds exactly the
		// slots that refer to it, each once. A free ID has no word.
		n := s.postings.size(id)
		if n != posted[uint32(id)] || (n == 0 && s.dict.Word(uint32(id)) != "") {
			t.Fatalf("%s: ID %d (%q): %d postings, %d samples carry it", stage, id, s.dict.Word(uint32(id)), n, posted[uint32(id)])
		}
	}
	if long != len(s.long) {
		t.Fatalf("%s: %d samples with long keyword lists, %d lists kept", stage, long, len(s.long))
	}
}

// timestamps returns the store's timestamps in slot order.
func (s *sampleStore) timestamps() []int64 {
	ts := make([]int64, len(s.ts))
	for j := range ts {
		ts[j] = s.tsAt(int32(j))
	}
	return ts
}

// checkLists checks that every list lies inside the array, fits its run,
// and overlaps no other.
func checkLists(t testing.TB, stage string, l *lists) {
	t.Helper()
	if l.slabHi != nil && len(l.slabHi) != len(l.slab) || l.atHi != nil && len(l.atHi) != len(l.at) {
		t.Fatalf("%s: high columns of %d elements and %d runs beside %d and %d", stage, len(l.slabHi), len(l.atHi), len(l.slab), len(l.at))
	}
	owner := make([]int, len(l.slab))
	for i := range l.at {
		off, n, c := l.span(i)
		if n > c || int(off+c) > len(l.slab) {
			t.Fatalf("%s: list %d holds %d in a run of %d at %d, array of %d", stage, i, n, c, off, len(l.slab))
		}
		for k := off; k < off+c; k++ {
			if owner[k] != 0 {
				t.Fatalf("%s: lists %d and %d share slot %d", stage, owner[k]-1, i, k)
			}
			owner[k] = i + 1
		}
	}
}

// checkRSHInvariants adds the slot-map's: every bucket entry and its slot's
// link point at each other, every slot is in the bucket of its cell, and
// the bucket index exists exactly while there are samples.
func checkRSHInvariants(t testing.TB, stage string, r *ReservoirHashmap) {
	t.Helper()
	checkStoreInvariants(t, stage, &r.sampleStore)
	checkLists(t, stage+", buckets", &r.buckets)
	seen := 0
	for cell := range r.buckets.at {
		b, hi := r.buckets.get(cell)
		for pos := range b {
			j := int32(join(b, hi, pos))
			if int(r.link(j)) != pos || r.cellOf(j) != cell {
				t.Fatalf("%s: slot %d backlink broken: cell %d/%d pos %d/%d", stage, j, r.cellOf(j), cell, r.link(j), pos)
			}
			seen++
		}
	}
	if r.linksHi != nil && len(r.linksHi) != len(r.links) {
		t.Fatalf("%s: %d links, high column of %d", stage, len(r.links), len(r.linksHi))
	}
	if seen != len(r.links) || len(r.ts) != len(r.links) {
		t.Fatalf("%s: buckets hold %d refs, %d links, %d samples", stage, seen, len(r.links), len(r.ts))
	}
	if (len(r.ts) == 0) != (r.buckets.at == nil) {
		t.Fatalf("%s: %d samples, bucket index of %d cells", stage, len(r.ts), len(r.buckets.at))
	}
}

// checkReservoirInvariants checks an RSL's or RSH's index; other
// estimators have none.
func checkReservoirInvariants(t testing.TB, stage string, e Estimator) {
	t.Helper()
	switch r := e.(type) {
	case *ReservoirList:
		checkStoreInvariants(t, stage, &r.sampleStore)
	case *ReservoirHashmap:
		checkRSHInvariants(t, stage, r)
	}
}

// reservoirPair is a real reservoir and its reference, driven in lockstep.
type reservoirPair struct {
	name  string
	build func() Estimator
	real  Estimator
	ref   interface {
		Insert(*stream.Object)
		Estimate(*stream.Query) float64
		Reset()
		SaveState(*persist.Enc)
		Len() int
	}
}

func (p *reservoirPair) check(t testing.TB, stage string) {
	t.Helper()
	checkReservoirInvariants(t, stage, p.real)
	if got, want := p.real.(interface{ Len() int }).Len(), p.ref.Len(); got != want {
		t.Fatalf("%s %s: Len %d, reference %d", p.name, stage, got, want)
	}
}

// image returns the real reservoir's image after checking that it is the
// reference's byte for byte.
func (p *reservoirPair) image(t testing.TB, stage string) []byte {
	t.Helper()
	var got, want persist.Enc
	p.real.(Stateful).SaveState(&got)
	p.ref.SaveState(&want)
	if !bytes.Equal(got.Data(), want.Data()) {
		t.Fatalf("%s %s: image differs from the reference's", p.name, stage)
	}
	return got.Data()
}

// reload replaces the real reservoir by one restored from its own image.
func (p *reservoirPair) reload(t testing.TB, stage string) {
	t.Helper()
	d := persist.NewDec(p.image(t, stage))
	p.real = p.build()
	if err := p.real.(Stateful).LoadState(d); err != nil {
		t.Fatalf("%s %s: LoadState: %v", p.name, stage, err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("%s %s: image not consumed: %v", p.name, stage, err)
	}
}

func reservoirPairs(p Params) []*reservoirPair {
	rsl := func() Estimator { return NewReservoirList(p) }
	rsh := func() Estimator { return NewReservoirHashmap(p) }
	return []*reservoirPair{
		{name: NameRSL, build: rsl, real: rsl(), ref: newRefRSL(p)},
		{name: NameRSH, build: rsh, real: rsh(), ref: newRefRSH(p)},
	}
}

// TestReservoirDifferential drives RSL and RSH beside the scans they
// replaced through random interleavings of Insert, Estimate, Reset and
// Save→Load while the window turns over many times (and twice empties
// outright): equal estimates to the bit, equal Len, equal images, and a
// consistent index after every step. Objects carry no, repeated, empty and
// more than eight keywords; queries ask for unknown, repeated and more than
// eight.
func TestReservoirDifferential(t *testing.T) {
	vocab := []string{""}
	for i := 0; i < 40; i++ {
		vocab = append(vocab, fmt.Sprintf("kw%d", i))
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := func(n int, unknown bool) []string {
			if n == 0 {
				return nil
			}
			kws := make([]string, n)
			for i := range kws {
				kws[i] = vocab[int(rng.Float64()*rng.Float64()*float64(len(vocab)))] // skewed, with replacement
				if unknown && rng.Intn(4) == 0 {
					kws[i] = fmt.Sprintf("nope%d", rng.Intn(3))
				}
			}
			return kws
		}
		count := func() int {
			switch rng.Intn(12) {
			case 0:
				return 0
			case 1:
				return 9 + rng.Intn(12)
			default:
				return 1 + rng.Intn(3)
			}
		}
		// 163 samples over a 500 ms window that sees about 1 000 arrivals.
		pairs := reservoirPairs(Params{World: geo.UnitSquare, Span: 500, Scale: 0.01, Seed: seed})
		ts := int64(0)
		for step := 0; step < 12000; step++ {
			stage := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 78:
				ts += int64(rng.Intn(2))
				if step == 4000 || step == 8000 {
					ts += 2000 // everything retained expires at once
				}
				o := genObject(rng, uint64(step), ts)
				o.Keywords = words(count(), false)
				for _, p := range pairs {
					p.real.Insert(&o)
					p.ref.Insert(&o)
				}
			case op < 96:
				rect := geo.CenteredRect(geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(), rng.Float64())
				if rng.Intn(8) == 0 {
					rect = geo.CenteredRect(geo.Pt(2, 2), 0.1, 0.1) // outside the world
				}
				var q stream.Query
				switch rng.Intn(3) {
				case 0:
					q = stream.SpatialQ(rect, ts)
				case 1:
					q = stream.KeywordQ(words(max(count(), 1), true), ts)
				default:
					q = stream.HybridQ(rect, words(max(count(), 1), true), ts)
				}
				for _, p := range pairs {
					got, want := p.real.Estimate(&q), p.ref.Estimate(&q)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s %v: estimate %v, reference %v", p.name, stage, q, got, want)
					}
				}
			case op < 97:
				for _, p := range pairs {
					p.real.Reset()
					p.ref.Reset()
				}
			default:
				for _, p := range pairs {
					p.reload(t, stage)
				}
			}
			for _, p := range pairs {
				p.check(t, stage)
			}
		}
		for _, p := range pairs {
			p.image(t, fmt.Sprintf("seed %d end", seed))
		}
	}
}

// TestReservoirDoesNotAliasKeywords: RSL and RSH keep nothing of the
// caller's keyword slice. A feeder that reuses one slice for every object,
// overwriting it after each Insert, leaves the same reservoir as one that
// hands over a fresh slice each time.
func TestReservoirDoesNotAliasKeywords(t *testing.T) {
	for _, p := range reservoirPairs(Params{World: geo.UnitSquare, Span: 10_000, Scale: 0.05, Seed: 4}) {
		rng := rand.New(rand.NewSource(12))
		reused := make([]string, 3)
		ts := int64(0)
		for i := 0; i < 6000; i++ {
			ts++
			o := genObject(rng, uint64(i), ts)
			p.ref.Insert(&o) // the reference copies
			o.Keywords = reused[:copy(reused, o.Keywords)]
			p.real.Insert(&o)
			for k := range reused {
				reused[k] = "overwritten"
			}
		}
		for _, q := range queryMix(ts) {
			q := q
			if got, want := p.real.Estimate(&q), p.ref.Estimate(&q); got != want {
				t.Errorf("%s %v: estimate %v after the caller reused its slice, want %v", p.name, q, got, want)
			}
		}
		p.image(t, "after the caller reused its slice")
	}
}

// TestReservoirEstimateAllocs: a keyword or hybrid estimate allocates
// nothing once the store's scratch exists, whether it reads one posting
// list, merges several, or falls back to testing samples.
func TestReservoirEstimateAllocs(t *testing.T) {
	for _, p := range reservoirPairs(testParams()) {
		rng := rand.New(rand.NewSource(2))
		ts := int64(0)
		for i := 0; i < 30000; i++ {
			ts++
			o := genObject(rng, uint64(i), ts)
			p.real.Insert(&o)
		}
		eight := []string{"kw0", "kw1", "kw2", "kw3", "kw4", "kw5", "kw6", "nope"}
		r := geo.CenteredRect(geo.Pt(0.3, 0.3), 0.2, 0.2)
		for _, q := range []stream.Query{
			stream.KeywordQ(eight[:1], ts), stream.KeywordQ(eight[:2], ts), stream.KeywordQ(eight, ts),
			stream.HybridQ(r, eight[:1], ts), stream.HybridQ(r, eight, ts),
			stream.HybridQ(geo.CenteredRect(geo.Pt(0.9, 0.1), 0.02, 0.02), eight, ts),
		} {
			q := q
			p.real.Estimate(&q)
			if n := testing.AllocsPerRun(50, func() { p.real.Estimate(&q) }); n != 0 {
				t.Errorf("%s %v: %v allocations per estimate", p.name, q, n)
			}
		}
	}
}

// heapAlloc is the live heap after two collections: the second frees what
// a sync.Pool kept through the first — draw's bitmaps, a cut's staging
// buffer — which no estimator holds.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestReservoirMemoryBytesIsTheHeap: what a full default-capacity RSL or
// RSH reports is what it holds — dictionary, keyword references and
// posting buffers included — within 15 % of the heap it adds on the Twitter
// preset, and no more than 1.5 × what the reservoirs reported before they
// had an index (944 KB and 1 322 KB, keyword slices not counted). Once every
// sample has expired and been purged it reports a fresh reservoir's size,
// with an empty dictionary. Drawn and churned on every preset, RSL, RSH and
// SPN, which keeps only its model, report what they hold as closely.
func TestReservoirMemoryBytesIsTheHeap(t *testing.T) {
	tw := newTwitterStream() // allocated before the baseline: the vocabulary's strings are the stream's
	for _, tc := range []struct {
		build  func(Params) Estimator
		budget int
	}{
		{func(p Params) Estimator { return NewReservoirList(p) }, 944 << 10 * 3 / 2},
		{func(p Params) Estimator { return NewReservoirHashmap(p) }, 1322 << 10 * 3 / 2},
	} {
		tw.next = 0
		before := heapAlloc()
		e := tc.build(tw.params())
		fresh := e.MemoryBytes()
		tw.feed(e, 2*twitterWindow)
		held := float64(heapAlloc() - before)
		reported := e.MemoryBytes()
		t.Logf("%s: reports %d KB, holds %.0f KB", e.Name(), reported>>10, held/1024)
		if ratio := float64(reported) / held; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: MemoryBytes %d, heap grew by %.0f (ratio %.2f)", e.Name(), reported, held, ratio)
		}
		if reported > tc.budget {
			t.Errorf("%s: MemoryBytes %d over the budget of %d", e.Name(), reported, tc.budget)
		}
		q := stream.KeywordQ([]string{"fire"}, tw.now()+2*twitterSpanMS)
		if est := e.Estimate(&q); est != 0 {
			t.Errorf("%s: estimate %v over an expired reservoir", e.Name(), est)
		}
		// The arrival counter's ring is the same size empty or full.
		if got := e.MemoryBytes(); got != fresh {
			t.Errorf("%s: MemoryBytes after every sample expired = %d, fresh = %d", e.Name(), got, fresh)
		}
		runtime.KeepAlive(e)
	}
	// Drawn from a full window and then churned, on every preset: the
	// draw's lists are cut to their sizes at once, and the churn moves some
	// of them and cuts them all again.
	for _, preset := range datagen.Names() {
		ps := newPresetStream(preset)
		w := ps.window()
		for _, sb := range samplerBuilds {
			before := heapAlloc()
			s := drawnAndChurned(ps, w, sb.build)
			held := float64(heapAlloc() - before)
			reported := s.MemoryBytes()
			t.Logf("%s %s, drawn and churned: reports %d KB, holds %.0f KB", preset, s.Name(), reported>>10, held/1024)
			if ratio := float64(reported) / held; ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s %s: MemoryBytes %d, heap grew by %.0f (ratio %.2f)", preset, s.Name(), reported, held, ratio)
			}
			runtime.KeepAlive(s)
		}
		runtime.KeepAlive(w)
	}
}

// drawnAndChurned builds a default-size sampler, draws it from w, a full
// window of ps, and streams the next 30 000 objects of ps into it: a
// reservoir a quarter of a window after a switch made it active.
func drawnAndChurned(ps *presetStream, w *stream.Window, build func(Params) Sampler) Sampler {
	s := build(ps.params())
	s.Draw(w)
	ps.feed(s, 30_000)
	return s
}

// TestReservoirFootprint: a default-size RSL or RSH, drawn and churned,
// costs at most these bytes per retained sample, everything it owns
// included: slot arrays, bucket links, list runs and dictionary. SPN, drawn
// and churned alike, keeps its model and no sample: the network, the
// arrival counter and the header, at most the bytes its bound allows.
// Under -v it logs what each part costs.
func TestReservoirFootprint(t *testing.T) {
	bounds := map[string][2]float64{ // RSL, RSH; each its reading plus at most 3 %
		"Twitter": {40, 47}, // reads 39.0 and 46.0
		"eBird":   {29, 36}, // reads 28.2 and 35.2
		"CheckIn": {33, 40}, // reads 32.1 and 39.3
	}
	const spnBound = 8800 // reads 8 576 on every preset (436 272 on Twitter while SPN kept a sample)
	for _, preset := range datagen.Names() {
		ps := newPresetStream(preset)
		w := ps.window()
		for i, sb := range samplerBuilds[:2] {
			s := drawnAndChurned(ps, w, sb.build)
			n := s.(interface{ Len() int }).Len()
			per := float64(s.MemoryBytes()) / float64(n)
			t.Logf("%s %s: %d samples, %d bytes, %.1f per sample", preset, s.Name(), n, s.MemoryBytes(), per)
			logReservoirFootprint(t, s, n)
			if bound := bounds[preset][i]; per > bound {
				t.Errorf("%s %s costs %.1f bytes per sample, want at most %.0f", preset, s.Name(), per, bound)
			}
		}
		s := drawnAndChurned(ps, w, samplerBuilds[2].build).(*SPNEstimator)
		net, counter := s.net.MemoryBytes(), s.counter.MemoryBytes()
		t.Logf("%s SPN: %d bytes: network %d, counter %d, header 64", preset, s.MemoryBytes(), net, counter)
		if s.MemoryBytes() != 64+net+counter || s.MemoryBytes() > spnBound {
			t.Errorf("%s SPN: MemoryBytes %d, want network %d + counter %d + header 64, at most %d",
				preset, s.MemoryBytes(), net, counter, spnBound)
		}
	}
}

// logReservoirFootprint logs the bytes per sample of each part of a
// reservoir sampler's MemoryBytes, and fails if the parts do not sum to it.
func logReservoirFootprint(t *testing.T, e Estimator, n int) {
	t.Helper()
	r, _ := e.(*ReservoirHashmap)
	res := reservoirOf(e.(Sampler))
	s, fixed := &res.sampleStore, 64+res.counter.MemoryBytes()
	kw := kwListBytes * (cap(s.kw) + cap(s.kwHi))
	for _, l := range s.long {
		kw += 48 + 8*cap(l)
	}
	type part struct {
		name  string
		bytes int
	}
	parts := []part{
		{"ts", 4 * (cap(s.ts) + cap(s.tsHi))},
		{"loc", 8 * cap(s.loc)},
		{"kw", kw},
	}
	if r != nil {
		parts = append(parts,
			part{"links", 2 * (cap(r.links) + cap(r.linksHi))},
			part{"bucket slab", 2 * (cap(r.buckets.slab) + cap(r.buckets.slabHi))},
			part{"bucket runs", runBytes*cap(r.buckets.at) + 4*cap(r.buckets.atHi)})
	}
	parts = append(parts,
		part{"posting slab", 2 * (cap(s.postings.slab) + cap(s.postings.slabHi))},
		part{"posting runs", runBytes*cap(s.postings.at) + 4*cap(s.postings.atHi)},
		part{"dictionary", s.dict.MemoryBytes()},
		part{"scratch, header and counter", 4*cap(s.qids) + 8*cap(s.seen) + fixed})
	var out []string
	sum := 0
	for _, p := range parts {
		out = append(out, fmt.Sprintf("%s %.1f", p.name, float64(p.bytes)/float64(n)))
		sum += p.bytes
	}
	t.Logf("  per sample: %s", strings.Join(out, ", "))
	if sum != e.MemoryBytes() {
		t.Errorf("%s: the footprint's parts sum to %d bytes, MemoryBytes is %d", e.Name(), sum, e.MemoryBytes())
	}
}

// TestReservoirResetReleasesMemory: a wiped reservoir holds what a fresh
// one does — Reset must not keep the backing arrays alive.
func TestReservoirResetReleasesMemory(t *testing.T) {
	p := testParams()
	reg := DefaultRegistry()
	for _, name := range []string{NameRSL, NameRSH} {
		build := func() Estimator {
			e, err := reg.Build(name, p)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := build()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			o := genObject(rng, uint64(i), int64(i+1))
			e.Insert(&o)
		}
		if e.MemoryBytes() <= build().MemoryBytes() {
			t.Fatalf("%s: filling did not grow MemoryBytes", name)
		}
		e.Reset()
		if got, want := e.MemoryBytes(), build().MemoryBytes(); got != want {
			t.Errorf("%s: MemoryBytes after Reset = %d, fresh = %d", name, got, want)
		}
		checkReservoirInvariants(t, "reset", e)
	}
}

// TestReservoirStateRoundTripRebuildsIndex: dictionary and postings are not
// in the image, so a restored RSL/RSH must rebuild them — it answers
// keyword and hybrid queries, and re-serializes, exactly as the original
// does, and the image is the one the index-less reservoirs wrote.
func TestReservoirStateRoundTripRebuildsIndex(t *testing.T) {
	for _, p := range reservoirPairs(testParams()) {
		rng := rand.New(rand.NewSource(9))
		ts := int64(0)
		for i := 0; i < 25000; i++ {
			ts++
			o := genObject(rng, uint64(i), ts)
			p.real.Insert(&o)
			p.ref.Insert(&o)
		}
		orig := p.real
		p.reload(t, "filled")
		p.check(t, "restored")
		for _, q := range queryMix(ts + 2000) {
			q := q
			a, b := orig.Estimate(&q), p.real.Estimate(&q)
			if want := p.ref.Estimate(&q); a != b || a != want {
				t.Errorf("%s %v: original %v, restored %v, reference %v", p.name, q, a, b, want)
			}
		}
		p.check(t, "restored, queried")
		var again persist.Enc
		orig.(Stateful).SaveState(&again)
		if !bytes.Equal(again.Data(), p.image(t, "restored, queried")) {
			t.Errorf("%s: image after restore and queries differs from the original's", p.name)
		}
		if p.name != NameRSH {
			continue
		}
		// A refused image installs nothing. An RSH image ends with its last
		// slot's bucket position.
		bad := append([]byte(nil), again.Data()...)
		copy(bad[len(bad)-4:], "\xff\xff\xff\xff")
		fresh := p.build()
		if err := fresh.(Stateful).LoadState(persist.NewDec(bad)); persist.CodeOf(err) != persist.CodeMalformed {
			t.Fatalf("bucket position -1: %v, want a malformed-image error", err)
		}
		if n := fresh.(*ReservoirHashmap).Len(); n != 0 {
			t.Errorf("RSH: a refused image left %d samples behind", n)
		}
		checkReservoirInvariants(t, "refused", fresh)
	}
}

// FuzzReservoirLoadState: LoadState builds a sampler from bytes it has no
// reason to trust. Whatever they are — a count above capacity, a sample
// with thousands of keywords, duplicates, empty strings, bucket positions
// that collide, any generator state, a malformed SPN model — it returns a
// typed persist error or leaves a sampler whose index is consistent and
// which inserts, answers and re-serializes; it does not panic. An SPN that
// restores re-serializes with no sample. est picks the sampler: RSL, RSH
// or SPN (samplerBuilds' order, modulo 3). float reads the bytes as an
// image of the format whose samples were float64 pairs, the format of
// every SPN image that holds samples. The other seeds are images of the
// current format, whose samples are lattice points.
func FuzzReservoirLoadState(f *testing.F) {
	p := Params{World: geo.UnitSquare, Span: 1000, Scale: 0.004, Seed: 3} // 65 samples
	for est, pair := range reservoirPairs(p) {
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 400; i++ {
			o := genObject(rng, uint64(i), int64(i))
			if i%50 == 0 {
				o.Keywords = []string{"", "dup", "dup", ""}
			}
			pair.real.Insert(&o)
			pair.ref.Insert(&o)
			if i == 30 || i == 399 {
				img := pair.image(f, "seed corpus")
				f.Add(img, uint8(est), false)
				f.Add(img, uint8(est), true)
			}
		}
	}
	// SPN images: inserts counted and, once a draw has fitted it, a fitted
	// model.
	spnEst, w := NewSPN(p), stream.NewWindow(p.World, p.Span, 256)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		o := genObject(rng, uint64(i), int64(i))
		spnEst.Insert(&o)
		w.Insert(o)
	}
	for range 2 {
		var img persist.Enc
		spnEst.SaveState(&img)
		f.Add(img.Data(), uint8(2), false)
		spnEst.Draw(w)
	}
	// An SPN image that holds samples, as SPN wrote while it kept one: its
	// points are floats, off the lattice.
	offLattice, _ := oldSPNImage(p, 40)
	f.Add(offLattice, uint8(2), false)
	// Seeds that restore into each form a store of this capacity can take:
	// the seeds above are narrow; these hold timestamps 2⁴⁰ ms apart (the
	// ts high column), and a sample of 65 600 keywords ahead of samples
	// whose IDs 16 bits do not hold (the kw high column). Slot numbers,
	// links and runs outgrow 16 bits only past 65 535 samples.
	forms := map[string]func(i int) stream.Object{
		"ts": func(i int) stream.Object {
			ts := int64(i)
			if i < 40 {
				ts += 1 << 40
			}
			return stream.Object{Loc: geo.Pt(float64(i%9)/9, float64(i%7)/7), Keywords: []string{"kw1"}, Timestamp: ts}
		},
		"kw": func(i int) stream.Object {
			kws := []string{fmt.Sprintf("n%d", i), "kw1"}
			if i == 0 {
				kws = make([]string, 65_600)
				for k := range kws {
					kws[k] = fmt.Sprintf("w%d", k)
				}
			}
			return stream.Object{Loc: geo.Pt(float64(i%9)/9, float64(i%7)/7), Keywords: kws, Timestamp: int64(i)}
		},
	}
	for form, obj := range forms {
		for est, pair := range reservoirPairs(p) {
			for i := 0; i < 80; i++ {
				o := obj(i)
				pair.real.Insert(&o)
				pair.ref.Insert(&o)
			}
			img := pair.image(f, "seed corpus")
			pair.reload(f, "seed corpus")
			if got := highColumns(pair.real); got != form {
				f.Fatalf("%s seed restores with high columns %q, want %q", pair.name, got, form)
			}
			f.Add(img, uint8(est), false)
		}
	}
	// An SPN image of the old layout with a full sample, repeated and empty
	// keywords among them.
	full, _ := oldSPNImage(p, NewSPN(p).k)
	f.Add(full, uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, est uint8, float bool) {
		var e Estimator = samplerBuilds[est%3].build(p)
		load := e.(Stateful).LoadState
		if fs, ok := e.(FloatStateful); ok && float {
			load = fs.LoadFloatState
		}
		if err := load(persist.NewDec(data)); err != nil {
			if persist.CodeOf(err) == 0 {
				t.Fatalf("LoadState error is not a typed persist error: %v", err)
			}
			// A refused image installs nothing: a reservoir's store, links
			// and buckets are still the fresh reservoir's.
			if r, ok := e.(interface{ Len() int }); ok && r.Len() != 0 {
				t.Fatalf("refused image left %d samples behind", r.Len())
			}
			checkReservoirInvariants(t, "refused", e)
			return
		}
		checkReservoirInvariants(t, "loaded", e)
		if s, ok := e.(*SPNEstimator); ok {
			if n := spnImageSamples(t, s); n != 0 {
				t.Fatalf("a restored SPN re-encodes with %d samples", n)
			}
		}
		o := stream.Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"dup", "kw1", "dup"}, Timestamp: 100}
		e.Insert(&o)
		for _, q := range queryMix(200) {
			q := q
			e.Estimate(&q)
		}
		checkReservoirInvariants(t, "used", e)
		var img persist.Enc
		e.(Stateful).SaveState(&img)
	})
}

// spnImageSamples is the sample count of s's image.
func spnImageSamples(t *testing.T, s *SPNEstimator) uint32 {
	var img persist.Enc
	s.SaveState(&img)
	d := persist.NewDec(img.Data())
	d.U64()
	d.U64()
	if err := NewWindowCounter(1, len(s.counter.counts)).LoadState(d); err != nil {
		t.Fatal(err)
	}
	return d.U32()
}

// oldSPNImage is an image of the layout SPN wrote while it kept a sample:
// the image of an SPN of p fitted to n objects, with those n objects as
// its sample at their float points, which are off the lattice. The SPN is
// returned with it; n must not exceed its sample size.
func oldSPNImage(p Params, n int) ([]byte, *SPNEstimator) {
	s := NewSPN(p)
	w := stream.NewWindow(p.World, p.Span, 256)
	objs := make([]stream.Object, n)
	for i := range objs {
		kws := []string{"a", "b", "a"}
		if i%7 == 0 {
			kws = []string{"", "dup", "dup"}
		}
		objs[i] = stream.Object{Loc: geo.Pt(0.1+float64(i)/3/float64(n), 1/3.0), Keywords: kws, Timestamp: int64(i)}
		w.Insert(objs[i])
	}
	s.Draw(w)
	for i := range objs[:n/2] {
		s.Insert(&objs[i])
	}
	var e persist.Enc
	saveRNG(&e, s.src)
	s.counter.SaveState(&e)
	e.U32(uint32(n))
	for _, o := range objs {
		e.F64(o.Loc.X)
		e.F64(o.Loc.Y)
		e.I64(o.Timestamp)
		e.Strs(o.Keywords)
	}
	e.Int(s.inserts)
	e.Int(s.retrains)
	s.net.SaveState(&e)
	return e.Data(), s
}

// TestSPNRestoresFloatPoints: an image of the layout SPN wrote while it
// kept a sample, its points off the lattice, restores with its sample read
// and dropped and everything else kept: the restored SPN writes the image
// of the SPN that wrote it, and answers as it does.
func TestSPNRestoresFloatPoints(t *testing.T) {
	p := Params{World: geo.UnitSquare, Span: 1000, Scale: 0.004, Seed: 3}
	img, orig := oldSPNImage(p, 40)
	restored := NewSPN(p)
	if err := restored.LoadState(persist.NewDec(img)); err != nil {
		t.Fatal(err)
	}
	var got, want persist.Enc
	restored.SaveState(&got)
	orig.SaveState(&want)
	if !bytes.Equal(got.Data(), want.Data()) {
		t.Error("the restored SPN's image is not that of the SPN that wrote the old one")
	}
	if !restored.net.Trained() || restored.FitDue() != orig.FitDue() {
		t.Errorf("restored: trained %v, due %v; the original is due %v", restored.net.Trained(), restored.FitDue(), orig.FitDue())
	}
	for _, q := range queryMix(40) {
		q := q
		if a, b := orig.Estimate(&q), restored.Estimate(&q); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%v: original %v, restored %v", q, a, b)
		}
	}
}
