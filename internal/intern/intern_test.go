package intern

import (
	"fmt"
	"testing"
	"unsafe"
)

func TestTableSharesEqualStrings(t *testing.T) {
	var tab Table
	a := tab.String([]byte("flood"))
	b := tab.String([]byte("flood"))
	if a != "flood" || b != "flood" {
		t.Fatalf("got %q, %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("equal strings do not share their bytes")
	}
	if got := tab.String(nil); got != "" {
		t.Errorf("empty input decodes as %q", got)
	}
}

// TestTableIsCorrectUnderCollisions: far more distinct strings than slots,
// so most calls evict; every result must still equal its input.
func TestTableIsCorrectUnderCollisions(t *testing.T) {
	var tab Table
	for round := 0; round < 2; round++ {
		for i := 0; i < 8*tableSize; i++ {
			want := fmt.Sprintf("kw%d", i)
			if got := tab.String([]byte(want)); got != want {
				t.Fatalf("String(%q) = %q", want, got)
			}
		}
	}
}

func TestTableHitDoesNotAllocate(t *testing.T) {
	var tab Table
	b := []byte("earthquake")
	tab.String(b)
	if n := testing.AllocsPerRun(100, func() { _ = tab.String(b) }); n != 0 {
		t.Errorf("a cached string costs %v allocations", n)
	}
}
