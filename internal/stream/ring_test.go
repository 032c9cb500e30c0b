package stream

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestRingMatchesSliceModel fills a ring from empty, trims it, and then
// drives it and a plain slice through the same random runs of pushes and
// pops — long enough to wrap, grow and shrink many times, with refs that
// cross the 32-bit boundary — comparing them after every operation. Every
// buffer is a whole size class. While filling, the buffer doubles only
// when full; the trim leaves the length; afterwards it
// grows by an eighth (at least four slots) only when full, shrinks to half
// again the length only once the length has fallen to a quarter of it,
// and a length that wanders by one reallocates at most once.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var (
		q       ring
		model   []uint32
		slots   int
		next    = uint32(1<<32 - 5000)
		grew    bool
		shrank  bool
		wrapped bool
	)
	check := func(op string) {
		t.Helper()
		if q.len() != len(model) {
			t.Fatalf("%s: len %d, model %d", op, q.len(), len(model))
		}
		a, b := q.segments()
		wrapped = wrapped || len(b) > 0
		if len(a)+len(b) != len(model) {
			t.Fatalf("%s: segments hold %d+%d refs, model %d", op, len(a), len(b), len(model))
		}
		for i, want := range model {
			got := a[min(i, len(a)-1)]
			if i >= len(a) {
				got = b[i-len(a)]
			}
			if got != want {
				t.Fatalf("%s: ref %d is %d, model %d", op, i, got, want)
			}
		}
		if len(model) > 0 && q.front() != model[0] {
			t.Fatalf("%s: front %d, model %d", op, q.front(), model[0])
		}
		c := len(q.buf)
		if c < max(ringMin, len(model)) || slots != c {
			t.Fatalf("%s: capacity %d (accounted %d) for %d refs", op, c, slots, len(model))
		}
		if c > ringMin && 4*len(model) < c {
			t.Fatalf("%s: capacity %d kept for %d refs", op, c, len(model))
		}
	}
	// resized checks a resize from before slots to what the policy asks.
	resized := func(op string, before int) {
		t.Helper()
		c, n := len(q.buf), len(model)
		switch {
		case c == before:
		case op == "fill" && before == n-1 && c == sizeClass(before+max(ringMin, before)):
		case op == "trim" && n < before && c == sizeClass(max(ringMin, n)):
		case op == "push" && before == n-1 && c == sizeClass(before+max(ringMin, before/8)):
		case op == "pop" && n <= before/4 && c == sizeClass(max(ringMin, n+n/2)):
		default:
			t.Fatalf("%s: buffer went from %d to %d slots at %d refs", op, before, c, n)
		}
	}
	fills := 0
	for i := 0; i < 3000; i++ {
		before := len(q.buf)
		q.pushBack(next, &slots, true)
		model = append(model, next)
		next++
		if len(q.buf) != before {
			fills++
		}
		check("fill")
		resized("fill", before)
	}
	if fills > 1+bits.Len(3000/ringMin) {
		t.Fatalf("filling to %d refs reallocated %d times", len(model), fills)
	}
	before := len(q.buf)
	q.trim(&slots)
	check("trim")
	resized("trim", before)
	for run := 0; run < 4000; run++ {
		n := 1 + rng.Intn(40)
		if rng.Intn(50) == 0 {
			n = 200 + rng.Intn(600) // a burst: several doublings or halvings
		}
		if push := rng.Intn(2) == 0; push {
			for i := 0; i < n; i++ {
				before := len(q.buf)
				q.pushBack(next, &slots, false)
				model = append(model, next)
				next++
				grew = grew || (before >= ringMin && len(q.buf) > before)
				check("push")
				resized("push", before)
			}
		} else {
			for i := 0; i < n && len(model) > 0; i++ {
				before := len(q.buf)
				q.popFront(&slots)
				model = model[1:]
				shrank = shrank || len(q.buf) < before
				check("pop")
				resized("pop", before)
			}
		}
		resizes := 0
		for i := 0; i < 4; i++ {
			before := len(q.buf)
			q.pushBack(next, &slots, false)
			q.popFront(&slots)
			model = append(model, next)[1:]
			next++
			if len(q.buf) != before {
				resizes++
			}
			check("hover")
		}
		if resizes > 1 {
			t.Fatalf("a length hovering at %d reallocated %d times", len(model), resizes)
		}
	}
	if !grew || !shrank || !wrapped || next > 1<<31 {
		t.Fatalf("run too tame: grew %v, shrank %v, wrapped %v, next ref %d", grew, shrank, wrapped, next)
	}
}

// sizeClass is the capacity a buffer of n slots gets from the allocator.
func sizeClass(n int) int { return cap(append([]uint32(nil), make([]uint32, n)...)) }
