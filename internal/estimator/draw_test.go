package estimator

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// samplerBuilds are the package's three samplers.
var samplerBuilds = []struct {
	name  string
	build func(Params) Sampler
}{
	{NameRSL, func(p Params) Sampler { return NewReservoirList(p) }},
	{NameRSH, func(p Params) Sampler { return NewReservoirHashmap(p) }},
	{NameSPN, func(p Params) Sampler { return NewSPN(p) }},
}

// reservoirOf is a reservoir sampler's reservoir.
func reservoirOf(s Sampler) *reservoir {
	switch e := s.(type) {
	case *ReservoirList:
		return &e.reservoir
	case *ReservoirHashmap:
		return &e.reservoir
	}
	panic("not a reservoir sampler of this package")
}

// sampleTimestamps returns the timestamps a sampler holds and its capacity.
func sampleTimestamps(s Sampler) (ts []int64, k int) {
	r := reservoirOf(s)
	return r.timestamps(), r.capacity
}

// drawWindow is a window of n objects at timestamps 1..n, so an object's
// arrival rank is its timestamp minus one.
func drawWindow(n int, seed int64) *stream.Window {
	w := stream.NewWindow(geo.UnitSquare, 1<<40, 256)
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= n; i++ {
		w.Insert(genObject(rng, uint64(i), int64(i)))
	}
	return w
}

// TestDrawUniformArrivalRanks: a drawn sample is a uniform subset of the
// live window. Over 200 seeds, the arrival-rank deciles of the drawn
// objects pass a χ² test at p = 0.001, for k ≪ N, k ≈ N/2 and N ≤ k; each
// draw holds min(k, N) distinct live objects, costs O(k) RNG draws (none
// when it takes the whole window), and counts all N arrivals. SPN draws
// through the same draw but keeps no sample to look at.
func TestDrawUniformArrivalRanks(t *testing.T) {
	const (
		seeds = 200
		chi9  = 27.877 // χ² critical value, 9 degrees of freedom, p = 0.001
	)
	params := func(seed int64) Params {
		return Params{World: geo.UnitSquare, Span: 1 << 40, Scale: 0.004, Seed: seed} // k = 65 or 64
	}
	for _, sb := range samplerBuilds[:2] {
		_, k := sampleTimestamps(sb.build(params(0)))
		for _, c := range []struct {
			name string
			n    int
		}{{"k<<N", 20 * k}, {"k~N/2", 2 * k}, {"N<=k", k - 7}} {
			w := drawWindow(c.n, 3)
			var counts [10]float64
			total := 0
			for seed := int64(1); seed <= seeds; seed++ {
				s := sb.build(params(seed))
				counter := reservoirOf(s).counter
				before := *reservoirOf(s).src
				s.Draw(w)
				ts, _ := sampleTimestamps(s)
				if want := min(k, c.n); len(ts) != want {
					t.Fatalf("%s %s seed %d: drew %d samples, want %d", sb.name, c.name, seed, len(ts), want)
				}
				seen := make(map[int64]bool, len(ts))
				for _, x := range ts {
					if x < 1 || x > int64(c.n) || seen[x] {
						t.Fatalf("%s %s seed %d: sample at ts %d repeated or not live", sb.name, c.name, seed, x)
					}
					seen[x] = true
					counts[(x-1)*10/int64(c.n)]++
				}
				total += len(ts)
				draws := rngDraws(before, s, k)
				if c.n <= k && draws != 0 || draws > uint64(2*k) {
					t.Fatalf("%s %s seed %d: %d RNG draws for k=%d, N=%d", sb.name, c.name, seed, draws, k, c.n)
				}
				if live := counter.Live(int64(c.n)); live != float64(c.n) {
					t.Fatalf("%s %s seed %d: counter reads %v live, want %d", sb.name, c.name, seed, live, c.n)
				}
			}
			chi := 0.0
			for d := range counts {
				size := 0 // ranks r in decile d: r*10/N == d
				for r := 0; r < c.n; r++ {
					if r*10/c.n == d {
						size++
					}
				}
				exp := float64(total) * float64(size) / float64(c.n)
				chi += (counts[d] - exp) * (counts[d] - exp) / exp
			}
			if chi > chi9 {
				t.Errorf("%s %s (k=%d, N=%d): χ² = %.2f over deciles %v, critical %.3f", sb.name, c.name, k, c.n, chi, counts, chi9)
			}
		}
	}
}

// TestLongUptimeImageRestoresTwins: an image's generator words are state,
// not a count of draws to replay. Images whose words read (seed, 2⁴³) —
// what a count-and-replay image of that many draws held — restore at once,
// and two samplers restored from the same bytes draw alike: through 2 000
// inserts, the estimates between them, and a draw from the window.
func TestLongUptimeImageRestoresTwins(t *testing.T) {
	for _, sb := range samplerBuilds {
		p := testParams()
		p.Scale = 0.05
		orig := sb.build(p)
		w := stream.NewWindow(p.World, p.Span, 1024)
		ts := feedBoth(t, orig, w, 6000, 6)
		var fresh, img persist.Enc
		sb.build(p).(Stateful).SaveState(&fresh)
		orig.(Stateful).SaveState(&img)
		data := img.Data()
		copy(data, fresh.Data()[:8]) // the seed word
		binary.LittleEndian.PutUint64(data[8:], 1<<43)
		a, b := sb.build(p), sb.build(p)
		for _, s := range []Sampler{a, b} {
			if err := s.(Stateful).LoadState(persist.NewDec(data)); err != nil {
				t.Fatalf("%s: %v", sb.name, err)
			}
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 200; i++ {
			for j := 0; j < 10; j++ {
				ts++
				o := genObject(rng, uint64(ts), ts)
				w.Insert(o)
				a.Insert(&o)
				b.Insert(&o)
			}
			q := queryMix(ts)[i%4]
			if x, y := a.Estimate(&q), b.Estimate(&q); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: estimate %d after restore: %v and %v", sb.name, i, x, y)
			}
		}
		a.Draw(w)
		b.Draw(w)
		var ia, ib persist.Enc
		a.(Stateful).SaveState(&ia)
		b.(Stateful).SaveState(&ib)
		if !bytes.Equal(ia.Data(), ib.Data()) {
			t.Errorf("%s: twins restored from one image draw differently", sb.name)
		}
	}
}

// rngDraws is how many steps s's generator has taken since it stood at
// before: a copy of before is stepped until it stands where s's does, up to
// 2k+1 steps, the count reported when it gets no further.
func rngDraws(before randv2.PCG, s Sampler, k int) uint64 {
	n := uint64(0)
	for ; n < uint64(2*k+1) && before != *reservoirOf(s).src; n++ {
		before.Uint64()
	}
	return n
}

// TestDrawThenStreamKeepsRSHInvariants: a drawn RSH is a well-formed slot
// map, and stays one as streaming replaces, purges and queries it.
func TestDrawThenStreamKeepsRSHInvariants(t *testing.T) {
	p := testParams()
	p.Scale = 0.01 // 163 samples
	r := NewReservoirHashmap(p)
	w := stream.NewWindow(p.World, p.Span, 1024)
	ts := feedBoth(t, NewHistogram(p), w, 5000, 4)
	r.Draw(w)
	checkRSHInvariants(t, "drawn", r)
	if r.Len() != r.Capacity() {
		t.Fatalf("drew %d samples from 5000, want %d", r.Len(), r.Capacity())
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 6000; i++ {
		ts += 1 + int64(i/2000) // later objects arrive sparser, so samples expire
		o := genObject(rng, uint64(10_000+i), ts)
		w.Insert(o)
		r.Insert(&o)
		if i%100 == 99 {
			for _, q := range queryMix(ts) {
				q := q
				r.Estimate(&q)
			}
		}
		if i%500 == 499 {
			checkRSHInvariants(t, "streaming after draw", r)
		}
	}
	// Everything expires: the store empties and releases its index.
	q := stream.SpatialQ(p.World, ts+2*p.Span)
	r.Estimate(&q)
	checkRSHInvariants(t, "expired", r)
	// A draw from an empty window leaves an empty, consistent sampler.
	r.Draw(stream.NewWindow(p.World, p.Span, 1024))
	checkRSHInvariants(t, "drawn from empty", r)
}

// TestDrawImageRestoresTwin: an image taken right after a draw restores to
// a twin whose next 100 estimates (between inserts) and next draw are
// bit-identical to the original's.
func TestDrawImageRestoresTwin(t *testing.T) {
	for _, sb := range samplerBuilds {
		p := testParams()
		p.Scale = 0.05
		orig, twin := sb.build(p), sb.build(p)
		w := stream.NewWindow(p.World, p.Span, 1024)
		ts := feedBoth(t, NewHistogram(p), w, 6000, 6)
		orig.Draw(w)
		var img persist.Enc
		orig.(Stateful).SaveState(&img)
		if err := twin.(Stateful).LoadState(persist.NewDec(img.Data())); err != nil {
			t.Fatalf("%s: %v", sb.name, err)
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 100; i++ {
			for j := 0; j < 10; j++ {
				ts++
				o := genObject(rng, uint64(ts), ts)
				w.Insert(o)
				orig.Insert(&o)
				twin.Insert(&o)
			}
			q := queryMix(ts)[i%4]
			a, b := orig.Estimate(&q), twin.Estimate(&q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: estimate %d after restore: original %v, twin %v", sb.name, i, a, b)
			}
		}
		orig.Draw(w)
		twin.Draw(w)
		var a, b persist.Enc
		orig.(Stateful).SaveState(&a)
		twin.(Stateful).SaveState(&b)
		if !bytes.Equal(a.Data(), b.Data()) {
			t.Errorf("%s: the next draw differs between original and twin", sb.name)
		}
	}
}

// TestFillDrawsSamplersAndReplaysTheRest: Fill draws a Sampler, builds FFN
// without reading an object, and replays the window into anything else,
// which then matches an estimator that streamed the same objects, and
// reports the objects each read.
func TestFillDrawsSamplersAndReplaysTheRest(t *testing.T) {
	p := testParams()
	streamed := NewHistogram(p)
	w := stream.NewWindow(p.World, p.Span, 1024)
	ts := feedBoth(t, streamed, w, 3000, 2)
	filled := NewHistogram(p)
	if drawn, n := Fill(filled, w); drawn || n != w.Size() {
		t.Errorf("Fill into a histogram: drawn %v, %d objects, want the %d live ones replayed", drawn, n, w.Size())
	}
	for _, q := range queryMix(ts) {
		q := q
		if a, b := streamed.Estimate(&q), filled.Estimate(&q); a != b {
			t.Errorf("%v: streamed %v, filled %v", q, a, b)
		}
	}
	rsl := NewReservoirList(p)
	if drawn, n := Fill(rsl, w); !drawn || n != 3000 || rsl.Len() != 3000 {
		t.Errorf("Fill into RSL: drawn %v, %d objects, %d samples, want the 3000 live objects drawn", drawn, n, rsl.Len())
	}
	small := NewReservoirHashmap(Params{World: p.World, Span: p.Span, Scale: 0.004, Seed: 1})
	if drawn, n := Fill(small, w); !drawn || n != small.Len() || n >= 3000 {
		t.Errorf("Fill into a small RSH: drawn %v, %d objects, %d samples", drawn, n, small.Len())
	}
	if drawn, n := Fill(NewFFN(p), w); drawn || n != 0 {
		t.Errorf("Fill into FFN: drawn %v, %d objects, want a replay of none", drawn, n)
	}
}

// TestCounterAddSortedMatchesAdd: counting a sorted run slice by slice
// leaves the counter exactly as one Add per arrival does, gaps of many
// slices included.
func TestCounterAddSortedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		ts := make([]int64, rng.Intn(3000))
		now := rng.Int63n(1000)
		for i := range ts {
			switch rng.Intn(20) {
			case 0:
				now += rng.Int63n(30_000) // past several slices, or the whole span
			case 1, 2, 3:
				now += rng.Int63n(50)
			}
			ts[i] = now
		}
		one, run := NewWindowCounter(10_000, defaultHistSlices), NewWindowCounter(10_000, defaultHistSlices)
		for _, x := range ts {
			one.Add(x)
		}
		run.addSorted(len(ts), func(i int) int64 { return ts[i] })
		var a, b persist.Enc
		one.SaveState(&a)
		run.SaveState(&b)
		if !bytes.Equal(a.Data(), b.Data()) {
			t.Fatalf("trial %d (%d arrivals): counters differ", trial, len(ts))
		}
	}
}
