package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

// stateConfig is a small fleet with small images, none carrying an RNG
// position: a reservoir or SPN image restores its position by replaying
// one draw per count it holds, linear in a number the image chooses, which
// the reservoir's own fuzz target keeps apart. H4096's image alone would
// be most of the bytes the fuzzer mutates.
func stateConfig() Config {
	cfg := testConfig()
	cfg.Estimators = []string{estimator.NameAASP, estimator.NameFFN}
	cfg.Default = estimator.NameAASP
	cfg.PretrainQueries = 40
	cfg.AccWindow = 20
	cfg.Scale = 0.05
	return cfg
}

// stateDriver runs a stateConfig module through the given number of
// spatial, keyword and hybrid queries.
func stateDriver(t testing.TB, queries int) *driver {
	t.Helper()
	d := newDriver(t, stateConfig())
	d.feed(300)
	for i := 0; i < queries; i++ {
		switch i % 3 {
		case 0:
			d.runQuery(d.spatialQ())
		case 1:
			d.runQuery(d.keywordQ())
		default:
			d.runQuery(d.hybridQ())
		}
	}
	return d
}

func moduleImage(t testing.TB, m *Module) []byte {
	t.Helper()
	var e persist.Enc
	if err := m.SaveState(&e); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

// TestModuleStateRoundTrip: a module restored from its image re-saves the
// same bytes and answers the next query as the original does, in
// pre-training and in the incremental phase; an image cut anywhere is
// refused.
func TestModuleStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries int
		phase   Phase
	}{
		{"pretrain", 10, PhasePretrain},
		{"incremental", 150, PhaseIncremental},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := stateDriver(t, tc.queries)
			if got := d.m.Phase(); got != tc.phase {
				t.Fatalf("phase %v, want %v", got, tc.phase)
			}
			img := moduleImage(t, d.m)
			restored := newDriver(t, stateConfig()).m
			if err := restored.LoadState(persist.NewDec(img)); err != nil {
				t.Fatal(err)
			}
			if again := moduleImage(t, restored); !bytes.Equal(again, img) {
				t.Fatalf("re-saved image differs (%d bytes, was %d)", len(again), len(img))
			}
			q := d.hybridQ()
			if a, b := d.m.Estimate(&q), restored.Estimate(&q); a != b {
				t.Errorf("next estimate %v, restored %v", a, b)
			}
			var e persist.Enc
			if err := d.m.SaveState(&e); persist.CodeOf(err) != persist.CodeState {
				t.Errorf("save with an estimate pending: %v, want CodeState", err)
			}
			d.m.Observe(1)
			restored.Observe(1)

			if err := restored.LoadState(persist.NewDec(img)); persist.CodeOf(err) != persist.CodeState {
				t.Errorf("load into a used module: %v, want CodeState", err)
			}
			other := stateConfig()
			other.Estimators = []string{estimator.NameFFN, estimator.NameAASP}
			if err := newDriver(t, other).m.LoadState(persist.NewDec(img)); persist.CodeOf(err) != persist.CodeMismatch {
				t.Errorf("load into another fleet: %v, want CodeMismatch", err)
			}
			step := 1
			for n := 0; n < len(img); n += step {
				if n >= 1024 {
					step = len(img)/256 + 1
				}
				err := newDriver(t, stateConfig()).m.LoadState(persist.NewDec(img[:n]))
				if err == nil {
					t.Fatalf("image cut at %d of %d bytes was accepted", n, len(img))
				}
				if persist.CodeOf(err) == 0 {
					t.Fatalf("image cut at %d: untyped error %v", n, err)
				}
			}
		})
	}
}

// TestBrainReadsRetiredMonitor: images taken while the brain rebuilt its
// tree on drift carry that monitor between the profile and the tree: a
// window of the tree's own accuracy, a label ring, a label count and a
// rebuild count. Such an image restores, and saving it again writes those
// slots empty.
func TestBrainReadsRetiredMonitor(t *testing.T) {
	b := newTestBrain(0)
	q := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)
	seedProfile(b, stream.SpatialQuery, []float64{0.2, 0.95, 0.5}, []time.Duration{1, 1, 1}, 50)
	for i := 0; i < 300; i++ {
		b.learn(&q, i%3, 0.9, time.Microsecond, 0.1)
	}
	var e persist.Enc
	b.accNorm.SaveState(&e)
	b.latNorm.SaveState(&e)
	for est := range b.names {
		for qt := 0; qt < numQueryTypes; qt++ {
			b.profAcc[est][qt].SaveState(&e)
			b.profLat[est][qt].SaveState(&e)
		}
	}
	window := make([]float64, 20)
	for i := range window {
		window[i] = float64(i % 2)
	}
	ring := bytes.Repeat([]byte{1, 2}, 10)
	e.F64s(window) // a full accuracy window
	e.Int(7)       // next slot
	e.Int(20)      // samples held
	e.F64(10)      // sum
	e.Blob(ring)   // a label ring
	e.Int(357)     // labels seen
	e.Int(3)       // rebuilds
	b.tree.SaveState(&e)

	restored := newTestBrain(0)
	d := persist.NewDec(e.Data())
	if err := restored.loadState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	var got, want persist.Enc
	restored.saveState(&got)
	b.saveState(&want)
	if !bytes.Equal(got.Data(), want.Data()) {
		t.Errorf("re-saved brain is %d bytes that differ from a fresh save's %d", len(got.Data()), len(want.Data()))
	}
	if len(e.Data())-len(got.Data()) != 20*8+20 {
		t.Errorf("re-saved brain is %d bytes, the old image %d; want the window and ring gone", len(got.Data()), len(e.Data()))
	}
}

// FuzzModuleLoadState: LoadState reads bytes it has no reason to trust.
// It refuses them with a typed error, or restores a module that re-saves
// and goes on inserting, estimating and observing without panicking.
func FuzzModuleLoadState(f *testing.F) {
	for _, queries := range []int{10, 150} {
		f.Add(moduleImage(f, stateDriver(f, queries).m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDriver(t, stateConfig())
		if err := d.m.LoadState(persist.NewDec(data)); err != nil {
			if persist.CodeOf(err) == 0 {
				t.Fatalf("LoadState error is not a typed persist error: %v", err)
			}
			return
		}
		moduleImage(t, d.m)
		d.feed(100)
		for i := 0; i < 30; i++ {
			d.runQuery(d.hybridQ())
			d.runQuery(d.keywordQ())
		}
		moduleImage(t, d.m)
	})
}
