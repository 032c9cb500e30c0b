package hoeffding

import (
	"math/rand"
	"testing"
)

// driftAttrs: two nominal attributes; which one determines the class flips
// between regimes.
var driftAttrs = []Attribute{
	{Name: "a", Kind: Nominal, NumValues: 2},
	{Name: "b", Kind: Nominal, NumValues: 2},
}

// feedRegime trains n instances where the class equals the chosen
// attribute's value and the other attribute is noise.
func feedRegime(tr *Tree, rng *rand.Rand, n int, signalAttr int) {
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x := []float64{float64(a), float64(b)}
		cls := a
		if signalAttr == 1 {
			cls = b
		}
		tr.Learn(x, cls)
	}
}

// regimeAccuracy evaluates the tree on fresh draws of the regime.
func regimeAccuracy(tr *Tree, rng *rand.Rand, signalAttr int) float64 {
	correct := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x := []float64{float64(a), float64(b)}
		want := a
		if signalAttr == 1 {
			want = b
		}
		if tr.Predict(x) == want {
			correct++
		}
	}
	return float64(correct) / trials
}

func TestEFDTRevisesSplitUnderDrift(t *testing.T) {
	cfg := Config{GracePeriod: 100}
	tr := New(driftAttrs, []string{"c0", "c1"}, cfg)
	rng := rand.New(rand.NewSource(1))

	// Regime A: attribute 0 is the signal.
	feedRegime(tr, rng, 5000, 0)
	if tr.Splits() == 0 {
		t.Fatal("no initial split")
	}
	if acc := regimeAccuracy(tr, rng, 0); acc < 0.95 {
		t.Fatalf("regime A accuracy %.3f", acc)
	}
	// Regime B: attribute 1 takes over. EFDT must revise the root split.
	feedRegime(tr, rng, 20000, 1)
	if tr.Resplits() == 0 {
		t.Fatal("EFDT never revised its split under drift")
	}
	if acc := regimeAccuracy(tr, rng, 1); acc < 0.9 {
		t.Errorf("regime B accuracy %.3f after revision", acc)
	}
}

func TestEFDTNodeAccountingStaysConsistent(t *testing.T) {
	cfg := Config{GracePeriod: 50, TieThreshold: 0.1}
	tr := New(
		[]Attribute{
			{Name: "a", Kind: Nominal, NumValues: 3},
			{Name: "v", Kind: Numeric},
		},
		[]string{"x", "y", "z"},
		cfg,
	)
	rng := rand.New(rand.NewSource(3))
	// Alternate regimes to force several revisions, then verify NodeCount
	// matches an actual walk.
	for round := 0; round < 6; round++ {
		for i := 0; i < 3000; i++ {
			a := rng.Intn(3)
			v := rng.Float64()
			var cls int
			if round%2 == 0 {
				cls = a
			} else {
				cls = int(v * 3)
				if cls > 2 {
					cls = 2
				}
			}
			tr.Learn([]float64{float64(a), v}, cls)
		}
	}
	if got, want := tr.NodeCount(), tr.subtreeSize(tr.root); got != want {
		t.Errorf("NodeCount = %d, walk says %d", got, want)
	}
	if tr.NodeCount() < 1 {
		t.Error("node count broken")
	}
}

func TestEFDTAccuracyNotWorseOnStationary(t *testing.T) {
	// On a stationary problem re-evaluation must cause no gratuitous
	// churn: the tree learns the regime and never revises its split.
	for seed := int64(1); seed <= 6; seed++ {
		tr := New(driftAttrs, []string{"c0", "c1"}, Config{GracePeriod: 100})
		rng := rand.New(rand.NewSource(seed))
		feedRegime(tr, rng, 10000, 0)
		if acc := regimeAccuracy(tr, rng, 0); acc < 0.95 {
			t.Errorf("seed %d: stationary accuracy %.3f", seed, acc)
		}
		if tr.Resplits() != 0 {
			t.Errorf("seed %d: %d resplits on stationary data", seed, tr.Resplits())
		}
	}
}

func BenchmarkLearnEFDT(b *testing.B) {
	tr := New(driftAttrs, []string{"c0", "c1"}, Config{GracePeriod: 200})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, bb := rng.Intn(2), rng.Intn(2)
		tr.Learn([]float64{float64(a), float64(bb)}, a)
	}
}
