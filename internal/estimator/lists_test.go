package estimator

import (
	"math/rand"
	"slices"
	"testing"
)

// TestListsMatchSlices: a long random run of pushes of elements below 2²⁰
// (so the array takes its high column), swap-removes and new lists, first
// while filling and then tight, leaves every list equal to a
// plain slice driven the same way, element for element and in order, with
// no two runs overlapping; a reset from sizes lays out lists of those
// lengths.
func TestListsMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var l lists
	var ref [][]uint32
	for step := 0; step < 100_000; step++ {
		tight := step >= 30_000
		if step == 30_000 {
			l.cut(-1, 0)
			checkLists(t, "cut", &l)
		}
		switch r := rng.Intn(20); {
		case r == 0 || len(ref) == 0:
			l.add()
			ref = append(ref, nil)
		case r < 11:
			i := rng.Intn(len(ref))
			x := uint32(rng.Intn(1 << 20))
			l.push(i, x, tight)
			ref[i] = append(ref[i], x)
		default:
			i := rng.Intn(len(ref))
			if len(ref[i]) == 0 {
				continue
			}
			// The owner's removal: the last element fills the hole.
			pos := rng.Intn(len(ref[i]))
			l.remove(i, uint32(pos))
			last := len(ref[i]) - 1
			ref[i][pos] = ref[i][last]
			ref[i] = ref[i][:last]
		}
		if step%5000 == 0 {
			checkLists(t, "step", &l)
		}
	}
	checkLists(t, "end", &l)
	for i := range ref {
		if got := listOf(&l, i); !slices.Equal(got, ref[i]) {
			t.Fatalf("list %d = %v, want %v", i, got, ref[i])
		}
	}
	// Tight, the array holds at most a quarter more than a cut of the lists
	// as they are would lay out.
	fresh := 0
	for i := range ref {
		fresh += int(roomFor(uint32(len(ref[i])), false, 0))
	}
	if cap(l.slab) > fresh*5/4 {
		t.Errorf("lists a cut would lay out in %d slots take an array of %d", fresh, cap(l.slab))
	}

	sizes := []uint32{3, 0, 17, 1}
	l.reset(sizes)
	checkLists(t, "reset", &l)
	for i, n := range sizes {
		if l.size(i) != int(n) {
			t.Errorf("reset list %d has %d elements, want %d", i, l.size(i), n)
		}
	}
}

// listOf returns list i of l with its elements at full width.
func listOf(l *lists, i int) []uint32 {
	lo, hi := l.get(i)
	out := make([]uint32, len(lo))
	for k := range lo {
		out[k] = join(lo, hi, k)
	}
	return out
}
