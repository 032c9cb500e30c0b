package core

import (
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// The τ-breach tests run a three-estimator fleet with RSH active.
const (
	swH4096 = iota
	swRSL
	swRSH
)

// TestTauBreachSwitch stages a τ breach and runs one adapt step: a cold
// switch takes the tree's top class or else the profile argmax, never the
// tree's runner-up, and a target that fails a prevalent type's accuracy
// gate holds position with the β candidate still warming.
func TestTauBreachSwitch(t *testing.T) {
	spatial := stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)
	cases := []struct {
		name string
		// profile[est][qt] is (accuracy, latency µs); a zero row is unmeasured.
		profile [3][numQueryTypes][2]float64
		stage   func(m *Module)
		// wantActive and wantPrefill name the estimators after the step;
		// wantPicker is the switch's picker, "" when it must not switch.
		wantActive, wantPrefill, wantPicker string
	}{{
		name: "runner-up-is-not-the-argmax",
		// H4096 is fastest at equal accuracy, so it is the profile argmax.
		profile: [3][numQueryTypes][2]float64{
			swH4096: {stream.SpatialQuery: {0.9, 20}},
			swRSL:   {stream.SpatialQuery: {0.9, 400}},
			swRSH:   {stream.SpatialQuery: {0.9, 100}},
		},
		// The tree's top class is the active RSH and its runner-up RSL,
		// which scores below RSH.
		stage: func(m *Module) {
			x := m.brain.features(&spatial, swRSH, 0.9, 100*time.Microsecond, 0.1)
			for _, label := range []int{swRSH, swRSH, swRSH, swRSL, swRSL} {
				m.brain.tree.Learn(x, label)
			}
			if _, best, _, second, _ := m.brain.consult(&spatial, swRSH); best != swRSH || second != swRSL {
				t.Fatalf("tree ranks %d, %d; the case stages RSH, RSL", best, second)
			}
		},
		wantActive: estimator.NameH4096, wantPicker: "profile",
	}, {
		name: "prevalent-gate-holds",
		// H4096 is warming but fails the gate on keyword queries, half the
		// recent mix; RSL serves both types and outscores it.
		profile: [3][numQueryTypes][2]float64{
			swH4096: {stream.SpatialQuery: {0.9, 50}, stream.KeywordQuery: {0.1, 50}},
			swRSL:   {stream.SpatialQuery: {0.9, 20}, stream.KeywordQuery: {0.9, 20}},
			swRSH:   {stream.SpatialQuery: {0.9, 100}, stream.KeywordQuery: {0.9, 100}},
		},
		stage: func(m *Module) {
			for i := range m.oppQt {
				m.oppQt[i] = []stream.QueryType{stream.SpatialQuery, stream.KeywordQuery}[i%2]
			}
			m.oppN = len(m.oppQt)
			m.prefill = swH4096
		},
		wantActive: estimator.NameRSH, wantPrefill: estimator.NameH4096,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(Config{
				World:           geo.UnitSquare,
				Span:            10_000,
				Estimators:      []string{estimator.NameH4096, estimator.NameRSL, estimator.NameRSH},
				Default:         estimator.NameRSH,
				AccWindow:       40,
				PretrainQueries: 10,
				Seed:            1,
				Refill:          func(estimator.Estimator) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			m.phase = PhaseIncremental
			m.active = swRSH
			for est, row := range c.profile {
				for qt, p := range row {
					for i := 0; p[0] > 0 && i < 30; i++ {
						m.brain.observe(est, stream.QueryType(qt), p[0], time.Duration(p[1])*time.Microsecond)
					}
				}
			}
			for i := 0; i < m.cfg.AccWindow; i++ {
				m.accWindow.Add(0.5) // below τ = 0.75
			}
			c.stage(m)
			m.adapt(&spatial)
			if m.ActiveName() != c.wantActive || m.PrefillingName() != c.wantPrefill {
				t.Fatalf("active %s, pre-filling %q; want %s, %q",
					m.ActiveName(), m.PrefillingName(), c.wantActive, c.wantPrefill)
			}
			ds := m.trace.Snapshot()
			if c.wantPicker == "" {
				if len(ds) != 0 || m.cooldown != m.cfg.AccWindow/4 {
					t.Fatalf("%d switches, cool-down %d; want none, %d", len(ds), m.cooldown, m.cfg.AccWindow/4)
				}
				return
			}
			if len(ds) != 1 || ds[0].Picker != c.wantPicker {
				t.Fatalf("decisions %+v, want one picked by %s", ds, c.wantPicker)
			}
		})
	}
}
