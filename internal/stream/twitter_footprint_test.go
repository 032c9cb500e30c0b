package stream_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// TestTwitterWindowFootprint: a window over each preset's stream at two
// objects per millisecond, turned over twice, costs at most its bound in
// bytes per live object, everything it owns included: one shard of the
// benchmark's engine (60 000 live objects) and a window twice that. The
// generators number objects densely; with arbitrary 64-bit IDs, as a
// replayed dataset may carry, every chunk keeps an ID high column, which
// costs about 4 bytes per object more.
func TestTwitterWindowFootprint(t *testing.T) {
	for _, preset := range []struct {
		name          string
		gen           func(seed int64, rate float64) *datagen.Generator
		shard, double float64 // bytes per live object with dense IDs, at 60 000 and 120 000
	}{
		// Each bound is its reading plus at most 3 %.
		{"Twitter", datagen.Twitter, 35.0, 31.5}, // reads 34.3 and 31.2
		{"eBird", datagen.EBird, 26.9, 25.5},     // reads 26.1 and 24.8
		{"CheckIn", datagen.CheckIn, 30.3, 28.2}, // reads 29.4 and 27.4
	} {
		t.Run(preset.name, func(t *testing.T) {
			for _, size := range []struct {
				live  int
				bound float64
			}{{60_000, preset.shard}, {120_000, preset.double}} {
				t.Run(fmt.Sprint(size.live), func(t *testing.T) {
					footprint := func(name string, id func(o *stream.Object) uint64) float64 {
						g := preset.gen(1, 2)
						w := stream.NewWindow(g.World(), int64(size.live/2), 4096)
						for i := 0; i < 3*size.live; i++ {
							o := g.Next()
							o.ID = id(&o)
							w.Insert(o)
						}
						per := float64(w.MemoryBytes()) / float64(w.Size())
						t.Logf("%s: %d objects, %d words, %d high columns: %d bytes, %.1f per object",
							name, w.Size(), w.DistinctKeywords(), w.HighColumns(), w.MemoryBytes(), per)
						logFootprint(t, w)
						return per
					}
					dense := footprint("dense IDs", func(o *stream.Object) uint64 { return o.ID })
					if dense > size.bound {
						t.Errorf("the window costs %.1f bytes per live object, want at most %.1f", dense, size.bound)
					}
					rng := rand.New(rand.NewSource(3))
					random := footprint("64-bit random IDs", func(*stream.Object) uint64 { return rng.Uint64() })
					if random > dense+4.5 {
						t.Errorf("with 64-bit random IDs the window costs %.1f bytes per live object, want at most %.1f", random, dense+4.5)
					}
				})
			}
		})
	}
}

// logFootprint logs the bytes per live object of each part of w's
// footprint, and fails if the parts do not sum to MemoryBytes.
func logFootprint(t *testing.T, w *stream.Window) {
	t.Helper()
	var parts []string
	sum := 0
	for _, p := range w.Footprint() {
		parts = append(parts, fmt.Sprintf("%s %.1f", p.Name, float64(p.Bytes)/float64(w.Size())))
		sum += p.Bytes
	}
	t.Logf("  per object: %s", strings.Join(parts, ", "))
	if sum != w.MemoryBytes() {
		t.Errorf("the footprint's parts sum to %d bytes, MemoryBytes is %d", sum, w.MemoryBytes())
	}
}

// BenchmarkTwitterWindowFill builds a 120 000-object Twitter window from
// empty, by Insert (fill) and by LoadState from its image (restore): the
// two paths on which every ring grows from nothing.
func BenchmarkTwitterWindowFill(b *testing.B) {
	const live = 120_000
	g := datagen.Twitter(1, 2)
	objs := make([]stream.Object, live)
	for i := range objs {
		objs[i] = g.Next()
	}
	full := stream.NewWindow(g.World(), live/2, 4096)
	for _, o := range objs {
		full.Insert(o)
	}
	var img persist.Enc
	full.SaveState(&img)
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := stream.NewWindow(g.World(), live/2, 4096)
			for _, o := range objs {
				w.Insert(o)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := stream.NewWindow(g.World(), live/2, 4096)
			if err := w.LoadState(persist.NewDec(img.Data())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
