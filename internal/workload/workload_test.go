package workload

import (
	"math"
	"testing"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/stream"
)

func src() *datagen.Generator { return datagen.Twitter(1, 2) }

func TestAllPresetsValid(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec := ByName(name)
			if spec.Name != name {
				t.Errorf("Name = %q", spec.Name)
			}
			g := NewGenerator(spec, datagen.ByName(spec.Dataset, 1, 2), 1000)
			for g.Remaining() > 0 {
				q := g.Next(1000)
				if !q.Valid() {
					t.Fatalf("invalid query: %v", q)
				}
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown workload should panic")
		}
	}()
	ByName("nope")
}

func TestMixProportions(t *testing.T) {
	// TwQW3 is 50% spatial, 50% hybrid with no phase changes.
	g := NewGenerator(ByName("TwQW3"), src(), 10000)
	counts := map[stream.QueryType]int{}
	for g.Remaining() > 0 {
		q := g.Next(0)
		counts[q.Type()]++
	}
	if counts[stream.KeywordQuery] != 0 {
		t.Errorf("TwQW3 produced %d keyword queries", counts[stream.KeywordQuery])
	}
	sp := float64(counts[stream.SpatialQuery]) / 10000
	if math.Abs(sp-0.5) > 0.03 {
		t.Errorf("spatial fraction = %.3f, want ~0.5", sp)
	}
}

func TestPureWorkloads(t *testing.T) {
	for name, want := range map[string]stream.QueryType{
		"TwQW2": stream.SpatialQuery,
		"TwQW4": stream.KeywordQuery,
		"CiQW1": stream.KeywordQuery,
	} {
		spec := ByName(name)
		g := NewGenerator(spec, datagen.ByName(spec.Dataset, 2, 2), 500)
		for g.Remaining() > 0 {
			q := g.Next(0)
			if got := q.Type(); got != want {
				t.Errorf("%s produced %v", name, got)
				break
			}
		}
	}
}

func TestSingleVsMultiKeyword(t *testing.T) {
	g4 := NewGenerator(ByName("TwQW4"), src(), 500)
	for g4.Remaining() > 0 {
		if q := g4.Next(0); len(q.Keywords) != 1 {
			t.Fatalf("TwQW4 query has %d keywords", len(q.Keywords))
		}
	}
	g5 := NewGenerator(ByName("TwQW5"), src(), 500)
	multi := 0
	for g5.Remaining() > 0 {
		q := g5.Next(0)
		if len(q.Keywords) < 2 || len(q.Keywords) > 5 {
			t.Fatalf("TwQW5 query has %d keywords", len(q.Keywords))
		}
		if len(q.Keywords) > 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("TwQW5 never produced >2 keywords")
	}
}

func TestPhaseSchedule(t *testing.T) {
	// TwQW1's second phase (progress 0.18-0.31) is 95% spatial.
	spec := ByName("TwQW1")
	mix := spec.MixAt(0.25)
	if mix.Spatial < 0.9 {
		t.Errorf("TwQW1 mid-phase spatial = %v", mix.Spatial)
	}
	if m := spec.MixAt(0.6); m.Keyword < 0.8 {
		t.Errorf("TwQW1 keyword phase = %+v", m)
	}
	// Progress ≥ 1 falls into the last phase.
	last := spec.MixAt(1.0)
	if last != spec.Phases[len(spec.Phases)-1].Mix {
		t.Errorf("MixAt(1) = %+v", last)
	}
	// Observed mix across the generator run follows the schedule.
	g := NewGenerator(spec, src(), 10000)
	spatialInPhase2 := 0
	phase2 := 0
	for g.Remaining() > 0 {
		p := g.Progress()
		q := g.Next(0)
		if p >= 0.19 && p < 0.30 {
			phase2++
			if q.Type() == stream.SpatialQuery {
				spatialInPhase2++
			}
		}
	}
	if frac := float64(spatialInPhase2) / float64(phase2); frac < 0.85 {
		t.Errorf("phase-2 spatial fraction %.3f", frac)
	}
}

func TestRangeSideSweep(t *testing.T) {
	base := ByName("TwQW2")
	for _, side := range []float64{0.01, 0.05, 0.2} {
		spec := base.WithRangeSide(side)
		g := NewGenerator(spec, src(), 200)
		world := src().World()
		for g.Remaining() > 0 {
			q := g.Next(0)
			wantW := side * world.Width()
			if math.Abs(q.Range.Width()-wantW) > 1e-9 {
				t.Fatalf("side %v: range width %v, want %v", side, q.Range.Width(), wantW)
			}
		}
	}
}

func TestKeywordCountSweep(t *testing.T) {
	base := ByName("TwQW5")
	for k := 1; k <= 5; k++ {
		g := NewGenerator(base.WithKeywordCount(k), src(), 100)
		for g.Remaining() > 0 {
			if q := g.Next(0); len(q.Keywords) != k {
				t.Fatalf("k=%d: got %d keywords", k, len(q.Keywords))
			}
		}
	}
}

func TestSessionLocality(t *testing.T) {
	// EbRQW1 has 50% session locality: consecutive query centers should be
	// far closer on average than under independent sampling.
	ebird := datagen.EBird(3, 2)
	gLocal := NewGenerator(ByName("EbRQW1"), ebird, 2000)
	dLocal := meanConsecutiveDist(gLocal)

	spec := ByName("EbRQW1")
	spec.SessionLocality = 0
	ebird2 := datagen.EBird(3, 2)
	gFree := NewGenerator(spec, ebird2, 2000)
	dFree := meanConsecutiveDist(gFree)

	if dLocal >= dFree*0.8 {
		t.Errorf("locality had no effect: %.3f vs %.3f", dLocal, dFree)
	}
}

func meanConsecutiveDist(g *Generator) float64 {
	var prev stream.Query
	has := false
	total, n := 0.0, 0
	for g.Remaining() > 0 {
		q := g.Next(0)
		if has {
			a, b := prev.Range.Center(), q.Range.Center()
			total += math.Hypot(a.X-b.X, a.Y-b.Y)
			n++
		}
		prev, has = q, true
	}
	return total / float64(n)
}

func TestGeneratorBudget(t *testing.T) {
	g := NewGenerator(ByName("TwQW2"), src(), 3)
	for i := 0; i < 3; i++ {
		g.Next(0)
	}
	if g.Remaining() != 0 || g.Progress() != 1 {
		t.Errorf("Remaining=%d Progress=%v", g.Remaining(), g.Progress())
	}
	defer func() {
		if recover() == nil {
			t.Error("exhausted generator should panic")
		}
	}()
	g.Next(0)
}

func TestSpecValidation(t *testing.T) {
	valid := Spec{
		Name:      "v",
		Phases:    []Phase{{Until: 1, Mix: Mix{Spatial: 1}}},
		RangeSide: 0.1, KwMin: 1, KwMax: 1,
	}
	for name, mut := range map[string]func(Spec) Spec{
		"no phases":    func(s Spec) Spec { s.Phases = nil; return s },
		"bad mix":      func(s Spec) Spec { s.Phases = []Phase{{Until: 1, Mix: Mix{Spatial: 0.5}}}; return s },
		"phases not 1": func(s Spec) Spec { s.Phases = []Phase{{Until: 0.5, Mix: Mix{Spatial: 1}}}; return s },
		"non-increasing": func(s Spec) Spec {
			s.Phases = []Phase{{Until: 0.5, Mix: Mix{Spatial: 1}}, {Until: 0.5, Mix: Mix{Spatial: 1}}}
			return s
		},
		"bad range": func(s Spec) Spec { s.RangeSide = 0; return s },
		"bad kw":    func(s Spec) Spec { s.KwMin = 0; return s },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewGenerator(mut(valid), src(), 10)
		})
	}
	// The valid one builds fine.
	NewGenerator(valid, src(), 10)
}
