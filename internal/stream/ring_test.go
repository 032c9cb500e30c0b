package stream

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSliceModel drives a ring and a plain slice through the
// same random runs of pushes and pops — long enough to wrap, grow and
// shrink many times, with refs that cross the 32-bit boundary — and
// compares them after every operation.
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
		if c&(c-1) != 0 || c < len(model) || slots != c {
			t.Fatalf("%s: capacity %d (accounted %d) for %d refs", op, c, slots, len(model))
		}
		if c > ringMin && 4*len(model) < c {
			t.Fatalf("%s: capacity %d kept for %d refs", op, c, len(model))
		}
	}
	for run := 0; run < 4000; run++ {
		n := 1 + rng.Intn(40)
		if rng.Intn(50) == 0 {
			n = 200 + rng.Intn(600) // a burst: several doublings or halvings
		}
		if push := rng.Intn(2) == 0; push {
			for i := 0; i < n; i++ {
				before := len(q.buf)
				q.pushBack(next, &slots)
				model = append(model, next)
				next++
				grew = grew || (before >= ringMin && len(q.buf) > before)
				check("push")
			}
		} else {
			for i := 0; i < n && len(model) > 0; i++ {
				before := len(q.buf)
				q.popFront(&slots)
				model = model[1:]
				shrank = shrank || len(q.buf) < before
				check("pop")
			}
		}
	}
	if !grew || !shrank || !wrapped || next > 1<<31 {
		t.Fatalf("run too tame: grew %v, shrank %v, wrapped %v, next ref %d", grew, shrank, wrapped, next)
	}
}
