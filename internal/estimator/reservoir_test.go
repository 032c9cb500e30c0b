package estimator

import (
	"bytes"
	"fmt"
	"math/rand"
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
		seen := 0
		for cell, b := range r.buckets {
			for pos, j := range b {
				s := &r.slots[j]
				if int(s.cell) != cell || int(s.pos) != pos {
					t.Fatalf("%s: slot %d backlink broken: cell %d/%d pos %d/%d",
						stage, j, s.cell, cell, s.pos, pos)
				}
				seen++
			}
		}
		if seen != len(r.slots) || len(r.keys) != len(r.slots) {
			t.Fatalf("%s: buckets hold %d refs, %d slots, %d keys", stage, seen, len(r.slots), len(r.keys))
		}
		for j, k := range r.keys {
			if k.sig != keywordSignature(r.slots[j].kws) {
				t.Fatalf("%s: slot %d carries a stale signature", stage, j)
			}
		}
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
	for _, b := range r.buckets {
		if len(b) != 0 {
			t.Fatal("bucket not cleared by Reset")
		}
	}
	// Usable after reset.
	o := genObject(rng, 1, ts+1)
	r.Insert(&o)
	if r.Len() != 1 {
		t.Fatal("insert after Reset failed")
	}
}

// sampleMatches is the filter-then-verify two-step exactly as the RSL and
// RSH scan loops spell it, for the sample an admitted o would become.
func sampleMatches(o *stream.Object, q *stream.Query) bool {
	k, qsig := newSampleKey(o.Timestamp, o.Loc, o.Keywords), keywordSignature(q.Keywords)
	if qsig == 0 {
		return rangeFlag(q, k.loc) != 0
	}
	return sampleMayMatch(&k, q, qsig) && sharesKeyword(o.Keywords, q.Keywords)
}

func TestSampleMatches(t *testing.T) {
	o := stream.Object{Loc: geo.Pt(0.5, 0.5), Keywords: []string{"a", "b"}}
	r := geo.CenteredRect(geo.Pt(0.5, 0.5), 0.2, 0.2)
	far := geo.CenteredRect(geo.Pt(0.9, 0.9), 0.05, 0.05)
	cases := []struct {
		q    stream.Query
		want bool
	}{
		{stream.SpatialQ(r, 0), true},
		{stream.SpatialQ(far, 0), false},
		{stream.KeywordQ([]string{"a"}, 0), true},
		{stream.KeywordQ([]string{"z"}, 0), false},
		{stream.KeywordQ([]string{"z", "b"}, 0), true},
		{stream.HybridQ(r, []string{"a"}, 0), true},
		{stream.HybridQ(r, []string{"z"}, 0), false},
		{stream.HybridQ(far, []string{"a"}, 0), false},
	}
	for _, tc := range cases {
		q := tc.q
		if got := sampleMatches(&o, &q); got != tc.want {
			t.Errorf("sampleMatches(%v) = %v, want %v", q, got, tc.want)
		}
	}
}

// collidingKeywords returns n distinct keywords with one and the same
// signature, so a signature hit between any two of them is a false positive
// the exact compare must reject.
func collidingKeywords(n int) []string {
	var out []string
	want := keywordSignature([]string{"kw0"})
	for i := 0; len(out) < n; i++ {
		if kw := fmt.Sprintf("c%d", i); keywordSignature([]string{kw}) == want {
			out = append(out, kw)
		}
	}
	return out
}

// TestSampleMatchesEqualsNaive: the signature-filtered match is the plain
// RC-DVQ predicate on random samples and queries, including empty keyword
// lists, duplicated keywords on either side, spatial-only queries (qsig 0)
// and a vocabulary half of whose words share one signature.
func TestSampleMatchesEqualsNaive(t *testing.T) {
	vocab := append(collidingKeywords(6), "kw0", "kw1", "kw2", "kw3", "kw4", "kw5")
	rng := rand.New(rand.NewSource(11))
	draw := func(max int) []string {
		kws := make([]string, rng.Intn(max+1))
		for i := range kws {
			kws[i] = vocab[rng.Intn(len(vocab))] // with replacement: duplicates happen
		}
		return kws
	}
	hits, falsePositives := 0, 0
	for i := 0; i < 20000; i++ {
		o := stream.Object{Loc: geo.Pt(rng.Float64(), rng.Float64()), Keywords: draw(3)}
		var q stream.Query
		rect := geo.CenteredRect(geo.Pt(rng.Float64(), rng.Float64()), 0.6, 0.6)
		switch rng.Intn(3) {
		case 0:
			q = stream.SpatialQ(rect, 0)
		case 1:
			q = stream.KeywordQ(draw(4), 0)
		default:
			q = stream.HybridQ(rect, draw(4), 0)
		}
		sig, qsig := keywordSignature(o.Keywords), keywordSignature(q.Keywords)
		got, want := sampleMatches(&o, &q), q.Matches(&o)
		if got != want {
			t.Fatalf("sample %v vs %v: sampleMatches %v, naive %v", o, q, got, want)
		}
		if want {
			hits++
		} else if qsig != 0 && signaturesMeet(sig, qsig) && !o.MatchesAny(q.Keywords) {
			falsePositives++
		}
	}
	if hits == 0 || falsePositives == 0 {
		t.Fatalf("test did not exercise both outcomes: %d hits, %d signature false positives", hits, falsePositives)
	}
}

// TestReservoirScanEqualsNaive: RSL and RSH count exactly the live samples
// the plain predicate accepts, across expiry, for every query type. The
// denominator is read back after the estimate: RSH purges only the buckets
// a range touches, so how many stale slots remain is its own business.
func TestReservoirScanEqualsNaive(t *testing.T) {
	p := testParams()
	rsl, rsh := NewReservoirList(p), NewReservoirHashmap(p)
	rng := rand.New(rand.NewSource(17))
	ts := int64(0)
	for i := 0; i < 30000; i++ {
		ts++
		o := genObject(rng, uint64(i), ts)
		rsl.Insert(&o)
		rsh.Insert(&o)
	}
	naiveMatches := func(keys []sampleKey, kws func(int) []string, q *stream.Query) int {
		matches := 0
		for i, k := range keys {
			if k.ts >= q.Timestamp-p.Span && q.Matches(&stream.Object{Loc: k.loc, Keywords: kws(i)}) {
				matches++
			}
		}
		return matches
	}
	for step, q := range append(queryMix(ts+3000), queryMix(ts+6000)...) {
		q := q
		matches := naiveMatches(rsl.keys, func(i int) []string { return rsl.kws[i] }, &q)
		got := rsl.Estimate(&q)
		if want := float64(matches) / float64(rsl.Len()) * rsl.counter.Live(q.Timestamp); got != want {
			t.Errorf("RSL query %d %v: estimate %v, naive scan %v", step, q, got, want)
		}
		matches = naiveMatches(rsh.keys, func(i int) []string { return rsh.slots[i].kws }, &q)
		got = rsh.Estimate(&q)
		if want := float64(matches) / float64(rsh.Len()) * rsh.counter.Live(q.Timestamp); got != want {
			t.Errorf("RSH query %d %v: estimate %v, naive scan %v", step, q, got, want)
		}
	}
}

// TestReservoirResetReleasesMemory: a wiped reservoir holds what a fresh
// one does — Reset must not keep the backing arrays alive.
func TestReservoirResetReleasesMemory(t *testing.T) {
	p := testParams()
	reg := DefaultRegistry()
	RegisterExtras(reg)
	for _, name := range []string{NameRSL, NameRSH, NameSPN, NameED} {
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
	}
}

// TestReservoirStateRoundTripRebuildsSignatures: signatures are not in the
// image, so a restored RSL/RSH must rebuild them — it answers keyword and
// hybrid queries, and re-serializes, exactly as the original does.
func TestReservoirStateRoundTripRebuildsSignatures(t *testing.T) {
	p := testParams()
	for _, name := range []string{NameRSL, NameRSH} {
		build := func() Estimator {
			e, err := DefaultRegistry().Build(name, p)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		orig := build()
		rng := rand.New(rand.NewSource(9))
		ts := int64(0)
		for i := 0; i < 25000; i++ {
			ts++
			o := genObject(rng, uint64(i), ts)
			orig.Insert(&o)
		}
		var img persist.Enc
		orig.(Stateful).SaveState(&img)
		restored := build()
		d := persist.NewDec(img.Data())
		if err := restored.(Stateful).LoadState(d); err != nil {
			t.Fatalf("%s: LoadState: %v", name, err)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("%s: image not consumed: %v", name, err)
		}
		for _, q := range queryMix(ts + 2000) {
			q := q
			if a, b := orig.Estimate(&q), restored.Estimate(&q); a != b {
				t.Errorf("%s %v: original %v, restored %v", name, q, a, b)
			}
		}
		var again, want persist.Enc
		restored.(Stateful).SaveState(&again)
		orig.(Stateful).SaveState(&want)
		if !bytes.Equal(again.Data(), want.Data()) {
			t.Errorf("%s: image after restore and queries differs from the original's", name)
		}
	}
}

// reservoirBenchQueries is one query of each type over the filled test
// reservoir; "keyword" asks for a rare word, which is where the signature
// rejects nearly every sample.
func reservoirBenchQueries(ts int64) map[string]stream.Query {
	r := geo.CenteredRect(geo.Pt(0.3, 0.3), 0.3, 0.3)
	return map[string]stream.Query{
		"spatial": stream.SpatialQ(r, ts),
		"keyword": stream.KeywordQ([]string{"kw40", "kw45"}, ts),
		"hybrid":  stream.HybridQ(r, []string{"kw0"}, ts),
	}
}

func benchEstimate(b *testing.B, e Estimator) {
	rng := rand.New(rand.NewSource(1))
	ts := int64(0)
	for i := 0; i < 40000; i++ {
		ts++
		o := genObject(rng, uint64(i), ts)
		e.Insert(&o)
	}
	for _, name := range []string{"spatial", "keyword", "hybrid"} {
		q := reservoirBenchQueries(ts)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = e.Estimate(&q)
			}
		})
	}
}

func BenchmarkRSLEstimate(b *testing.B) { benchEstimate(b, NewReservoirList(testParams())) }

func BenchmarkRSHEstimate(b *testing.B) { benchEstimate(b, NewReservoirHashmap(testParams())) }
