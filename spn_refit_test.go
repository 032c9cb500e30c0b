package latest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/stream"
)

// spnSpy is SPN with its fits counted, so that a test can see when one is
// due and when one has run.
type spnSpy struct {
	*estimator.SPNEstimator
	fits int
}

func (s *spnSpy) Draw(w *stream.Window) int { s.fits++; return s.SPNEstimator.Draw(w) }

// spiedEngine is a two-shard engine over the default fleet, SPN the default
// estimator, with each shard's SPN spied (spies in shard order) and each
// shard pre-training on half of pretrain queries. The
// latency model is a constant per estimator, so no wall-clock value
// reaches an image.
func spiedEngine(t *testing.T, pretrain int) (*ShardedSystem, []*spnSpy) {
	t.Helper()
	var spies []*spnSpy
	def, reg := DefaultRegistry(), NewRegistry()
	for _, name := range def.Names() {
		reg.Register(name, func(p estimator.Params) estimator.Estimator {
			e, _ := def.Build(name, p)
			if s, ok := e.(*estimator.SPNEstimator); ok {
				spy := &spnSpy{SPNEstimator: s}
				spies = append(spies, spy)
				return spy
			}
			return e
		})
	}
	latency := WithLatencyModel(func(name string, _ *Query, _ time.Duration) time.Duration {
		return time.Duration(len(name)) * time.Microsecond
	})
	eng, err := NewSharded(testWorld(), 10*time.Second, WithShards(2), WithRegistry(reg),
		WithDefaultEstimator(EstimatorSPN), WithPretrainQueries(pretrain), WithMemoryScale(0.05), WithSeed(1), latency)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Shutdown(context.Background()) })
	return eng, spies
}

// refitRound is one step of refitScript: a batch of objects, then a
// keyword query, which reaches every shard.
type refitRound struct {
	objs []Object
	q    Query
}

// refitScript is n rounds of 400 objects and a query, after a warm-up of
// 3 000 objects in round 0. Each shard takes about 200 objects a round,
// so its SPN comes due about every 20 rounds.
func refitScript(n int) []refitRound {
	rng := rand.New(rand.NewSource(5))
	ts := int64(0)
	rounds := make([]refitRound, n)
	for i := range rounds {
		batch := 400
		if i == 0 {
			batch = 3000
		}
		for range batch {
			ts++
			rounds[i].objs = append(rounds[i].objs, Object{
				ID:        uint64(ts),
				Loc:       Pt(rng.Float64(), rng.Float64()),
				Keywords:  []string{fmt.Sprintf("kw%d", rng.Intn(20))},
				Timestamp: ts,
			})
		}
		rounds[i].q = KeywordQuery([]string{fmt.Sprintf("kw%d", rng.Intn(20))}, ts)
	}
	return rounds
}

// fits is how many fits the spies have run, in shard order.
func fits(spies []*spnSpy) []int {
	out := make([]int, len(spies))
	for i, s := range spies {
		out[i] = s.fits
	}
	return out
}

// TestRestoreAcrossDueRefit: an engine snapshotted while a shard's SPN has
// a fit due, and again just after the query that ran it, restores into
// fresh engines that answer bit for bit as the original does through the
// next two fits of every shard's SPN, fit as often, and end with the
// original's image.
func TestRestoreAcrossDueRefit(t *testing.T) {
	rounds := refitScript(120)
	orig, spies := spiedEngine(t, 2000)
	type point struct {
		img   []byte
		first int   // the round whose query the restored engine answers first
		fits  []int // the original's fits when the image was taken
	}
	var due, fitted *point
	answers := make([]float64, 0, len(rounds))
	for i, r := range rounds {
		orig.FeedBatch(r.objs)
		if due == nil && i > 0 {
			for _, s := range spies {
				if s.FitDue() {
					due = &point{snapshotImage(t, orig), i, fits(spies)}
					break
				}
			}
		}
		a, _ := orig.EstimateAndExecute(&r.q)
		answers = append(answers, a)
		if due != nil && fitted == nil {
			fitted = &point{snapshotImage(t, orig), i + 1, fits(spies)}
			if slices.Equal(fitted.fits, due.fits) {
				t.Fatalf("round %d: a fit was due, but the query ran none", i)
			}
		}
		if fitted != nil && slices.IndexFunc(spies, func(s *spnSpy) bool {
			return s.fits < fitted.fits[slices.Index(spies, s)]+2
		}) < 0 {
			break
		}
	}
	if fitted == nil || len(answers) == len(rounds) {
		t.Fatalf("the script saw no due fit, or not two more on every shard")
	}
	if p := orig.Phase(); p != PhasePretrain {
		t.Fatalf("the script left pre-training (%v): only the active SPN is measured afterwards", p)
	}
	end, want, wantFits := len(answers), snapshotImage(t, orig), fits(spies)
	t.Logf("due before round %d's query, fits %v; ran to round %d, fits %v", due.first, due.fits, end-1, wantFits)
	for name, c := range map[string]*point{"due": due, "fitted": fitted} {
		twin, twinSpies := spiedEngine(t, 2000)
		if err := restoreBytes(twin, c.img); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := c.first; i < end; i++ {
			if i > c.first || name == "fitted" {
				twin.FeedBatch(rounds[i].objs)
			}
			if got, _ := twin.EstimateAndExecute(&rounds[i].q); math.Float64bits(got) != math.Float64bits(answers[i]) {
				t.Fatalf("%s: round %d answers %v, the original %v", name, i, got, answers[i])
			}
		}
		for k, s := range twinSpies {
			if s.fits != wantFits[k]-c.fits[k] {
				t.Errorf("%s: shard %d fitted %d times after the restore, the original %d", name, k, s.fits, wantFits[k]-c.fits[k])
			}
		}
		if !bytes.Equal(snapshotImage(t, twin), want) {
			t.Errorf("%s: the restored engine's image differs from the original's", name)
		}
	}
}

// TestRefitIsNoPrefill: a due fit reaches the shard's refill as a pre-fill
// does, but the shard's pre-fill gauges count pre-fills only. Through
// pre-training, where every shard's SPN is fitted again and again, they
// stay at zero; afterwards they count what the module pre-filled and each
// cold switch's fill, and no refit of the active SPN.
func TestRefitIsNoPrefill(t *testing.T) {
	eng, spies := spiedEngine(t, 80)
	for _, r := range refitScript(150) {
		eng.FeedBatch(r.objs)
		eng.EstimateAndExecute(&r.q)
		if eng.Phase() == PhasePretrain {
			for k, sh := range eng.PerShardStats().Shards {
				if g := sh.Gauges; g.PrefillsDrawn+g.PrefillsReplayed != 0 {
					t.Fatalf("shard %d counts %d pre-fills in pre-training, after %d fits", k, g.PrefillsDrawn+g.PrefillsReplayed, spies[k].fits)
				}
			}
		}
	}
	for k, sh := range eng.PerShardStats().Shards {
		g, c := sh.Gauges, sh.Core
		if spies[k].fits < 3 {
			t.Errorf("shard %d: SPN fitted %d times; the script must refit it", k, spies[k].fits)
		}
		if got, want := g.PrefillsDrawn+g.PrefillsReplayed, uint64(c.PrefillsStarted+c.Switches-c.PrefillsAdopted); got != want {
			t.Errorf("shard %d: %d pre-fills counted; the module started %d and switched cold %d times",
				k, got, c.PrefillsStarted, c.Switches-c.PrefillsAdopted)
		}
	}
}
