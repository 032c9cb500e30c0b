package core

import (
	"bytes"
	"testing"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/persist"
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
