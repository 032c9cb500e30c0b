package hoeffding

import (
	"math"
	"math/rand"
	"testing"
)

// twoClassNominal is a helper schema: one binary nominal attribute, two
// classes.
func twoClassNominal() *Tree {
	return New(
		[]Attribute{{Name: "a", Kind: Nominal, NumValues: 2}},
		[]string{"no", "yes"},
		Config{GracePeriod: 50},
	)
}

func TestEmptyTreePredicts(t *testing.T) {
	tr := twoClassNominal()
	// A leaf that has seen nothing names no class.
	if got := tr.Predict([]float64{0}); got != -1 {
		t.Errorf("empty Predict = %d, want -1", got)
	}
	p := tr.PredictProba([]float64{1})
	if len(p) != 2 || p[0] != 0 || p[1] != 0 {
		t.Errorf("empty PredictProba = %v, want all zeros", p)
	}
	if tr.NodeCount() != 1 || tr.Depth() != 0 {
		t.Errorf("empty tree shape: nodes=%d depth=%d", tr.NodeCount(), tr.Depth())
	}
}

func TestLearnsNominalFunction(t *testing.T) {
	// class = attribute value, deterministic.
	tr := twoClassNominal()
	for i := 0; i < 1000; i++ {
		v := float64(i % 2)
		tr.Learn([]float64{v}, i%2)
	}
	if tr.Splits() == 0 {
		t.Fatal("no split on a perfectly predictive attribute")
	}
	if got := tr.Predict([]float64{0}); got != 0 {
		t.Errorf("Predict(0) = %d", got)
	}
	if got := tr.Predict([]float64{1}); got != 1 {
		t.Errorf("Predict(1) = %d", got)
	}
}

func TestMajorityClassBeforeSplit(t *testing.T) {
	tr := twoClassNominal()
	// Fewer than the grace period: no split possible, majority rules.
	for i := 0; i < 30; i++ {
		tr.Learn([]float64{float64(i % 2)}, 1)
	}
	for i := 0; i < 10; i++ {
		tr.Learn([]float64{float64(i % 2)}, 0)
	}
	if tr.Splits() != 0 {
		t.Fatal("split before grace period")
	}
	if got := tr.Predict([]float64{0}); got != 1 {
		t.Errorf("majority Predict = %d, want 1", got)
	}
}

func TestLearnsNumericThreshold(t *testing.T) {
	// class = v > 0.6, numeric attribute.
	tr := New(
		[]Attribute{{Name: "v", Kind: Numeric}},
		[]string{"lo", "hi"},
		Config{GracePeriod: 100},
	)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := rng.Float64()
		cls := 0
		if v > 0.6 {
			cls = 1
		}
		tr.Learn([]float64{v}, cls)
	}
	if tr.Splits() == 0 {
		t.Fatal("no split on a separable numeric attribute")
	}
	correct := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		v := rng.Float64()
		want := 0
		if v > 0.6 {
			want = 1
		}
		if tr.Predict([]float64{v}) == want {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.9 {
		t.Errorf("numeric threshold accuracy %.3f", acc)
	}
}

func TestPicksInformativeAttribute(t *testing.T) {
	// Attribute 1 is pure noise; attribute 0 decides the class. The first
	// split must use attribute 0.
	tr := New(
		[]Attribute{
			{Name: "signal", Kind: Nominal, NumValues: 2},
			{Name: "noise", Kind: Nominal, NumValues: 2},
		},
		[]string{"a", "b"},
		Config{GracePeriod: 100},
	)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		sig := float64(rng.Intn(2))
		noise := float64(rng.Intn(2))
		tr.Learn([]float64{sig, noise}, int(sig))
	}
	if tr.Splits() == 0 {
		t.Fatal("no split")
	}
	if tr.root.isLeaf() || tr.root.splitAttr != 0 {
		t.Errorf("root split on attribute %d, want 0", tr.root.splitAttr)
	}
}

func TestXorNeedsTwoLevels(t *testing.T) {
	// class = a XOR b: no single attribute is informative, but two levels
	// of splits solve it. The tie threshold lets VFDT split anyway and the
	// second level separates the classes.
	tr := New(
		[]Attribute{
			{Name: "a", Kind: Nominal, NumValues: 2},
			{Name: "b", Kind: Nominal, NumValues: 2},
		},
		[]string{"zero", "one"},
		Config{GracePeriod: 100, TieThreshold: 0.1},
	)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30000; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		tr.Learn([]float64{float64(a), float64(b)}, a^b)
	}
	correct := 0
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if tr.Predict([]float64{float64(a), float64(b)}) == a^b {
				correct++
			}
		}
	}
	if correct < 4 {
		t.Errorf("XOR: %d/4 correct (depth=%d splits=%d)", correct, tr.Depth(), tr.Splits())
	}
}

func TestIncrementalAccuracyImproves(t *testing.T) {
	// Prequential evaluation on a 3-class problem driven by a mix of one
	// nominal and one numeric attribute: later accuracy must beat early
	// accuracy (the paper's "learning accuracy significantly improves over
	// time").
	attrs := []Attribute{
		{Name: "qtype", Kind: Nominal, NumValues: 3},
		{Name: "size", Kind: Numeric},
	}
	tr := New(attrs, []string{"c0", "c1", "c2"}, Config{})
	rng := rand.New(rand.NewSource(4))
	label := func(qt int, size float64) int {
		switch qt {
		case 0:
			return 0
		case 1:
			if size > 0.5 {
				return 1
			}
			return 2
		default:
			return 1
		}
	}
	evalEvery := 2000
	var first, last float64
	for block := 0; block < 10; block++ {
		correct := 0
		for i := 0; i < evalEvery; i++ {
			qt := rng.Intn(3)
			size := rng.Float64()
			x := []float64{float64(qt), size}
			want := label(qt, size)
			if tr.Predict(x) == want {
				correct++
			}
			tr.Learn(x, want)
		}
		acc := float64(correct) / float64(evalEvery)
		if block == 0 {
			first = acc
		}
		if block == 9 {
			last = acc
		}
	}
	if last < 0.95 {
		t.Errorf("final prequential accuracy %.3f", last)
	}
	if last <= first {
		t.Errorf("accuracy did not improve: first %.3f, last %.3f", first, last)
	}
}

func TestNoSplitOnPureLeaf(t *testing.T) {
	tr := twoClassNominal()
	for i := 0; i < 1000; i++ {
		tr.Learn([]float64{float64(i % 2)}, 0) // always class 0
	}
	if tr.Splits() != 0 {
		t.Errorf("pure stream caused %d splits", tr.Splits())
	}
}

func TestNoSplitOnConstantAttribute(t *testing.T) {
	tr := twoClassNominal()
	rng := rand.New(rand.NewSource(5))
	// Attribute always 0, labels random: nothing to split on.
	for i := 0; i < 5000; i++ {
		tr.Learn([]float64{0}, rng.Intn(2))
	}
	if tr.Splits() != 0 {
		t.Errorf("constant attribute caused %d splits", tr.Splits())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	tr := New(
		[]Attribute{{Name: "v", Kind: Numeric}},
		[]string{"a", "b"},
		Config{GracePeriod: 50, MaxDepth: 2, TieThreshold: 0.5},
	)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50000; i++ {
		v := rng.Float64()
		cls := 0
		if int(v*16)%2 == 1 { // a striped function needing depth
			cls = 1
		}
		tr.Learn([]float64{v}, cls)
	}
	if d := tr.Depth(); d > 2 {
		t.Errorf("Depth = %d exceeds MaxDepth 2", d)
	}
}

func TestOutOfRangeNominalClamped(t *testing.T) {
	tr := twoClassNominal()
	for i := 0; i < 500; i++ {
		tr.Learn([]float64{float64(i % 2)}, i%2)
	}
	// Prediction with an out-of-range nominal value must not panic.
	_ = tr.Predict([]float64{7})
	_ = tr.Predict([]float64{-3})
	tr.Learn([]float64{9}, 1) // clamped to the last value
}

func TestLearnPanicsOnBadInput(t *testing.T) {
	tr := twoClassNominal()
	for name, fn := range map[string]func(){
		"wrong width": func() { tr.Learn([]float64{1, 2}, 0) },
		"bad class":   func() { tr.Learn([]float64{0}, 5) },
		"neg class":   func() { tr.Learn([]float64{0}, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"one class":   func() { New(nil, []string{"only"}, Config{}) },
		"bad nominal": func() { New([]Attribute{{Kind: Nominal, NumValues: 1}}, []string{"a", "b"}, Config{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestPredictProbaSums(t *testing.T) {
	tr := twoClassNominal()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		v := rng.Intn(2)
		cls := v
		if rng.Float64() < 0.2 {
			cls = 1 - cls
		}
		tr.Learn([]float64{float64(v)}, cls)
	}
	for v := 0; v < 2; v++ {
		p := tr.PredictProba([]float64{float64(v)})
		sum := p[0] + p[1]
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("proba sums to %v", sum)
		}
		if p[v] < 0.6 {
			t.Errorf("p[%d] = %v, want dominant", v, p[v])
		}
	}
}

func TestEntropy(t *testing.T) {
	tests := []struct {
		counts []float64
		want   float64
	}{
		{[]float64{0, 0}, 0},
		{[]float64{5, 0}, 0},
		{[]float64{5, 5}, 1},
		{[]float64{1, 1, 1, 1}, 2},
		{[]float64{3, 1}, 0.8112781244591328},
	}
	for _, tc := range tests {
		if got := entropy(tc.counts); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("entropy(%v) = %v, want %v", tc.counts, got, tc.want)
		}
	}
}

func TestGaussianCDF(t *testing.T) {
	var g gaussian
	if got := g.cdf(0); got != 0.5 {
		t.Errorf("empty gaussian cdf = %v", got)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		g.add(rng.NormFloat64()*2 + 10)
	}
	if math.Abs(g.mean-10) > 0.1 {
		t.Errorf("mean = %v", g.mean)
	}
	if math.Abs(g.cdf(10)-0.5) > 0.02 {
		t.Errorf("cdf(mean) = %v", g.cdf(10))
	}
	if math.Abs(g.cdf(12)-0.8413) > 0.02 {
		t.Errorf("cdf(+1σ) = %v", g.cdf(12))
	}
	// Zero-variance gaussian: step function.
	var g2 gaussian
	g2.add(5)
	g2.add(5)
	if g2.cdf(4.9) != 0 || g2.cdf(5.1) != 1 {
		t.Errorf("degenerate cdf: %v / %v", g2.cdf(4.9), g2.cdf(5.1))
	}
}

func BenchmarkLearn(b *testing.B) {
	attrs := []Attribute{
		{Name: "qtype", Kind: Nominal, NumValues: 3},
		{Name: "est", Kind: Nominal, NumValues: 6},
		{Name: "acc", Kind: Numeric},
		{Name: "lat", Kind: Numeric},
		{Name: "err", Kind: Numeric},
	}
	tr := New(attrs, []string{"H4096", "RSL", "RSH", "AASP", "FFN", "SPN"}, Config{})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := []float64{float64(rng.Intn(3)), float64(rng.Intn(6)), rng.Float64(), rng.Float64(), rng.Float64()}
		tr.Learn(x, rng.Intn(6))
	}
}

func BenchmarkPredict(b *testing.B) {
	attrs := []Attribute{
		{Name: "qtype", Kind: Nominal, NumValues: 3},
		{Name: "size", Kind: Numeric},
	}
	tr := New(attrs, []string{"a", "b", "c"}, Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		x := []float64{float64(rng.Intn(3)), rng.Float64()}
		tr.Learn(x, rng.Intn(3))
	}
	x := []float64{1, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Predict(x)
	}
}
