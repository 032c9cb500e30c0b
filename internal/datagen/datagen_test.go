package datagen

import (
	"math"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
)

func TestDeterminism(t *testing.T) {
	a, b := Twitter(42, 2), Twitter(42, 2)
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.ID != ob.ID || oa.Loc != ob.Loc || oa.Timestamp != ob.Timestamp {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, oa, ob)
		}
		if len(oa.Keywords) != len(ob.Keywords) {
			t.Fatalf("keyword counts diverge at %d", i)
		}
		for j := range oa.Keywords {
			if oa.Keywords[j] != ob.Keywords[j] {
				t.Fatalf("keywords diverge at %d", i)
			}
		}
	}
	c := Twitter(43, 2)
	diff := false
	for i := 0; i < 100; i++ {
		if a.Next().Loc != c.Next().Loc {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

func TestTimestampsNonDecreasingAndRate(t *testing.T) {
	g := Twitter(1, 2.0)
	last := int64(-1)
	const n = 50000
	var final int64
	for i := 0; i < n; i++ {
		o := g.Next()
		if o.Timestamp < last {
			t.Fatalf("timestamp went backwards at %d: %d < %d", i, o.Timestamp, last)
		}
		last = o.Timestamp
		final = o.Timestamp
	}
	// 50k objects at 2/ms should take ~25k ms.
	if final < 20_000 || final > 31_000 {
		t.Errorf("elapsed = %dms for %d objects at 2/ms, want ~25000", final, n)
	}
	if g.Now() != final {
		t.Errorf("Now = %d, want %d", g.Now(), final)
	}
}

func TestObjectsInsideWorld(t *testing.T) {
	for _, g := range []*Generator{Twitter(2, 2), EBird(2, 2), CheckIn(2, 2)} {
		t.Run(g.Name(), func(t *testing.T) {
			for i := 0; i < 20000; i++ {
				o := g.Next()
				if !g.World().Contains(o.Loc) {
					t.Fatalf("object %d at %v outside world %v", i, o.Loc, g.World())
				}
				if len(o.Keywords) == 0 {
					t.Fatalf("object %d has no keywords", i)
				}
			}
		})
	}
}

func TestSpatialSkew(t *testing.T) {
	// Twitter data must be heavily clustered: the NYC hotspot area should
	// hold far more than its uniform share of points.
	g := Twitter(3, 2)
	nyc := geo.CenteredRect(geo.Pt(-74.0, 40.7), 4, 4)
	in := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if nyc.Contains(g.Next().Loc) {
			in++
		}
	}
	uniformShare := nyc.Area() / g.World().Area()
	got := float64(in) / n
	if got < 5*uniformShare {
		t.Errorf("NYC share %.4f, uniform share %.4f: not clustered", got, uniformShare)
	}
}

func TestKeywordSkew(t *testing.T) {
	g := Twitter(4, 2)
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		for _, kw := range g.Next().Keywords {
			counts[kw]++
		}
	}
	// Zipf: the most popular keyword (vocab[0]) dominates.
	top := counts[g.Vocab()[0]]
	if top < n/10 {
		t.Errorf("top keyword count %d of %d: not skewed", top, n)
	}
	// But the tail exists: many distinct keywords appear.
	if len(counts) < 200 {
		t.Errorf("only %d distinct keywords", len(counts))
	}
}

func TestEBirdSmallVocabulary(t *testing.T) {
	g := EBird(5, 2)
	seen := map[string]struct{}{}
	for i := 0; i < 20000; i++ {
		for _, kw := range g.Next().Keywords {
			seen[kw] = struct{}{}
		}
	}
	if len(seen) > 60 {
		t.Errorf("eBird vocabulary %d exceeds configured 60", len(seen))
	}
	if len(seen) < 10 {
		t.Errorf("eBird vocabulary %d suspiciously small", len(seen))
	}
}

func TestDriftShiftsDistribution(t *testing.T) {
	// With drift enabled, hotspot weight rotates: the share of points near
	// a fixed hotspot should change materially across drift periods.
	g := Twitter(6, 2)
	nyc := geo.CenteredRect(geo.Pt(-74.0, 40.7), 3, 3)
	shareOver := func(n int) float64 {
		in := 0
		for i := 0; i < n; i++ {
			if nyc.Contains(g.Next().Loc) {
				in++
			}
		}
		return float64(in) / float64(n)
	}
	const block = 100_000 // ≈50s of virtual time at 2/ms
	s1 := shareOver(block)
	// Skip ahead several drift periods.
	for i := 0; i < 3*block; i++ {
		g.Next()
	}
	s2 := shareOver(block)
	if math.Abs(s1-s2) < 0.01 {
		t.Errorf("no drift observed: shares %.4f vs %.4f", s1, s2)
	}
}

func TestQuerySamplers(t *testing.T) {
	g := CheckIn(7, 2)
	for i := 0; i < 5000; i++ {
		p := g.SampleQueryPoint()
		if !g.World().Contains(p) {
			t.Fatalf("query point %v outside world", p)
		}
	}
	seen := map[string]struct{}{}
	for i := 0; i < 5000; i++ {
		kw := g.SampleQueryKeyword()
		if kw == "" {
			t.Fatal("empty query keyword")
		}
		seen[kw] = struct{}{}
	}
	if len(seen) < 20 {
		t.Errorf("query keywords too uniform: %d distinct", len(seen))
	}
	if g.QueryRand() == nil {
		t.Error("QueryRand nil")
	}
}

func TestByName(t *testing.T) {
	if len(Names()) != 3 {
		t.Errorf("Names() = %v, want the three presets", Names())
	}
	for _, name := range Names() {
		if g := ByName(name, 1, 1); g.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, g.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown name should panic")
		}
	}()
	ByName("nope", 1, 1)
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Name: "x", World: geo.UnitSquare, UniformFrac: 1,
		VocabSize: 10, ZipfS: 1.2, KwMin: 1, KwMax: 2, RatePerMS: 1,
	}
	if New(base) == nil {
		t.Fatal("valid config rejected")
	}
	for name, mut := range map[string]func(c Config) Config{
		"empty world":  func(c Config) Config { c.World = geo.Rect{}; return c },
		"zero vocab":   func(c Config) Config { c.VocabSize = 0; return c },
		"zipf too low": func(c Config) Config { c.ZipfS = 1.0; return c },
		"kw inverted":  func(c Config) Config { c.KwMin = 3; c.KwMax = 1; return c },
		"zero rate":    func(c Config) Config { c.RatePerMS = 0; return c },
		"no sources":   func(c Config) Config { c.UniformFrac = 0.5; return c },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(mut(base))
		})
	}
}

func TestVocabSemanticHead(t *testing.T) {
	g := Twitter(8, 1)
	if g.Vocab()[0] != "fire" {
		t.Errorf("vocab head = %q, want \"fire\"", g.Vocab()[0])
	}
	if len(g.Vocab()) != 5000 {
		t.Errorf("vocab size = %d", len(g.Vocab()))
	}
}

func BenchmarkNext(b *testing.B) {
	g := Twitter(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}
