package estimator

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// TestEstimatorsDoNotRetainInput holds every estimator to Insert's
// contract: fed from one reused Object whose keyword array is overwritten
// after every Insert — which is how Window.Each feeds a pre-fill — it ends
// in the state, image byte for image byte, and gives the estimates of a
// twin fed a fresh object each time.
func TestEstimatorsDoNotRetainInput(t *testing.T) {
	reg := DefaultRegistry()
	for _, name := range reg.Names() {
		build := func() Estimator {
			e, err := reg.Build(name, testParams())
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		reusing, twin := build(), build()
		rng := rand.New(rand.NewSource(21))
		var scratch stream.Object
		ts := int64(0)
		for i := 0; i < 12000; i++ {
			ts++
			o := genObject(rng, uint64(i), ts)
			twin.Insert(&o)
			scratch.ID, scratch.Loc, scratch.Timestamp = o.ID, o.Loc, o.Timestamp
			scratch.Keywords = append(scratch.Keywords[:0], o.Keywords...)
			reusing.Insert(&scratch)
			for k := range scratch.Keywords {
				scratch.Keywords[k] = "overwritten"
			}
		}
		for _, q := range queryMix(ts) {
			q := q
			if got, want := reusing.Estimate(&q), twin.Estimate(&q); got != want {
				t.Errorf("%s %v: estimate %v after the caller reused its object, want %v", name, q, got, want)
			}
		}
		var got, want persist.Enc
		reusing.(Stateful).SaveState(&got)
		twin.(Stateful).SaveState(&want)
		if !bytes.Equal(got.Data(), want.Data()) {
			t.Errorf("%s: image after the caller reused its object differs from the twin's", name)
		}
	}
}

// TestWipedSummaryHoldsNothing: §V-C wipes every summary but the active
// one to save memory, so Reset must release, not zero. A wiped H4096 or RSH
// reports what a fresh one does, under a kilobyte, holds that to within the
// heap reading's noise, and is allocated again by its first Insert.
func TestWipedSummaryHoldsNothing(t *testing.T) {
	for _, build := range []func() Estimator{
		func() Estimator { return NewHistogram(testParams()) },
		func() Estimator { return NewReservoirHashmap(testParams()) },
	} {
		before := heapAlloc()
		e := build()
		fresh, freshHeap := e.MemoryBytes(), int64(heapAlloc()-before)
		if fresh > 1<<10 {
			t.Errorf("%s: a fresh summary reports %d bytes", e.Name(), fresh)
		}
		rng := rand.New(rand.NewSource(3))
		feed := func(from, to int) {
			for i := from; i < to; i++ {
				o := genObject(rng, uint64(i), int64(i+1))
				e.Insert(&o)
			}
		}
		feed(0, 20000)
		full := e.MemoryBytes()
		if full < 100<<10 {
			t.Fatalf("%s: a filled summary reports %d bytes", e.Name(), full)
		}
		e.Reset()
		if got := e.MemoryBytes(); got != fresh {
			t.Errorf("%s: MemoryBytes after Reset = %d, fresh = %d", e.Name(), got, fresh)
		}
		if held := int64(heapAlloc() - before); held > freshHeap+16<<10 {
			t.Errorf("%s: holds %d bytes after Reset, %d when fresh", e.Name(), held, freshHeap)
		}
		for _, q := range queryMix(20001) {
			q := q
			if est := e.Estimate(&q); est != 0 {
				t.Errorf("%s %v: a wiped summary estimates %v", e.Name(), q, est)
			}
		}
		feed(20000, 40000)
		if got := e.MemoryBytes(); got < full/2 {
			t.Errorf("%s: refilled summary reports %d bytes, %d before the wipe", e.Name(), got, full)
		}
		runtime.KeepAlive(e)
	}
}

// TestHistogramReleasedArraysReadAsZeros: not allocating the counters is
// invisible. A histogram that has counted nothing writes the image, moves
// its ring position under Estimate and absorbs later inserts exactly as a
// twin whose arrays were allocated up front, and restoring its image
// allocates nothing.
func TestHistogramReleasedArraysReadAsZeros(t *testing.T) {
	lazy, eager := NewHistogram(testParams()), NewHistogram(testParams())
	eager.ring = make([]uint32, eager.slicer.Slices()*eager.Cells())
	eager.live = make([]uint32, eager.Cells())
	same := func(stage string) []byte {
		t.Helper()
		var a, b persist.Enc
		lazy.SaveState(&a)
		eager.SaveState(&b)
		if !bytes.Equal(a.Data(), b.Data()) {
			t.Fatalf("%s: images differ", stage)
		}
		return a.Data()
	}
	same("fresh")
	// Estimates anchor the slicer and then rotate an all-zero ring.
	for ts := int64(100); ts < 30_000; ts += 1700 {
		for _, q := range queryMix(ts) {
			q := q
			if a, b := lazy.Estimate(&q), eager.Estimate(&q); a != 0 || b != 0 {
				t.Fatalf("%v: empty histograms estimate %v and %v", q, a, b)
			}
		}
	}
	if lazy.ring != nil || lazy.live != nil {
		t.Fatal("Estimate allocated the counters")
	}
	if lazy.cur == 0 {
		t.Fatal("the ring position never moved: the test does not cover rotation")
	}
	empty := same("rotated empty")

	restored := NewHistogram(testParams())
	if err := restored.LoadState(persist.NewDec(empty)); err != nil {
		t.Fatal(err)
	}
	if restored.ring != nil || restored.live != nil || restored.cur != lazy.cur {
		t.Errorf("an all-zero image restores with allocated counters or at position %d, want %d", restored.cur, lazy.cur)
	}

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		o := genObject(rng, uint64(i), 30_000+int64(i))
		lazy.Insert(&o)
		eager.Insert(&o)
		restored.Insert(&o)
	}
	filled := same("filled")
	var again persist.Enc
	restored.SaveState(&again)
	if !bytes.Equal(again.Data(), filled) {
		t.Error("the histogram restored empty diverged from the original once filled")
	}
	for _, q := range queryMix(35_000) {
		q := q
		if a, b := lazy.Estimate(&q), eager.Estimate(&q); a != b {
			t.Errorf("%v: %v from the lazily allocated histogram, %v from the eager one", q, a, b)
		}
	}
	back := NewHistogram(testParams())
	if err := back.LoadState(persist.NewDec(filled)); err != nil {
		t.Fatal(err)
	}
	if back.ring == nil || back.totalLive != lazy.totalLive {
		t.Errorf("a filled image restores %v live objects (counters allocated: %v), want %v", back.totalLive, back.ring != nil, lazy.totalLive)
	}
}
