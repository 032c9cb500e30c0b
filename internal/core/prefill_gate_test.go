package core

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// The pre-fill gate tests run a two-estimator fleet: H4096 is the
// candidate (the untrained tree's first pick) and RSH is active.
const (
	gateCand   = 0
	gateActive = 1
)

// gateProfile is one estimator's profile for one query type.
type gateProfile struct {
	acc float64
	lat time.Duration
}

// gateCase stages a module whose accuracy average sits in the pre-fill
// band (below τ/β, above τ) with the given spatial profiles for the
// candidate and the active estimator. keyword, when set, is the candidate's
// keyword accuracy, and a window half keyword queries makes that type
// prevalent.
type gateCase struct {
	name         string
	cand, active gateProfile
	keyword      float64
}

// gateModule builds the staged module, logging at debug level to log.
// Refill is a spy: it counts the fills the module asks for.
func gateModule(t *testing.T, c gateCase, log io.Writer) (*Module, *int) {
	t.Helper()
	m, err := New(Config{
		Logger:          slog.New(slog.NewTextHandler(log, &slog.HandlerOptions{Level: slog.LevelDebug})),
		World:           geo.UnitSquare,
		Span:            10_000,
		Estimators:      []string{estimator.NameH4096, estimator.NameRSH},
		Default:         estimator.NameRSH,
		AccWindow:       40,
		PretrainQueries: 10,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fills := 0
	m.cfg.Refill = func(estimator.Estimator) { fills++ }
	m.phase = PhaseIncremental
	m.active = gateActive
	m.cooldown = 0
	for i := 0; i < 30; i++ {
		m.brain.observe(gateCand, stream.SpatialQuery, c.cand.acc, c.cand.lat)
		m.brain.observe(gateActive, stream.SpatialQuery, c.active.acc, c.active.lat)
	}
	if c.keyword > 0 {
		for i := 0; i < 30; i++ {
			m.brain.observe(gateCand, stream.KeywordQuery, c.keyword, c.cand.lat)
			m.brain.observe(gateActive, stream.KeywordQuery, 0.9, c.active.lat)
		}
		for i := range m.oppQt {
			m.oppQt[i] = []stream.QueryType{stream.SpatialQuery, stream.KeywordQuery}[i%2]
		}
		m.oppN = len(m.oppQt)
	}
	for i := 0; i < m.cfg.AccWindow; i++ {
		m.accWindow.Add(0.85)
	}
	return m, &fills
}

var gateQuery = stream.SpatialQ(geo.CenteredRect(geo.Pt(0.5, 0.5), 0.1, 0.1), 0)

var gateCases = []gateCase{
	// Equal accuracy and the candidate slower: it scores below RSH.
	{name: "scored-lower", cand: gateProfile{0.9, 400 * time.Microsecond}, active: gateProfile{0.9, 100 * time.Microsecond}},
	// Identical profiles: a tie is no better, so the score gate refuses.
	{name: "scored-equal", cand: gateProfile{0.9, 100 * time.Microsecond}, active: gateProfile{0.9, 100 * time.Microsecond}},
	// Equal accuracy and the candidate faster: it scores above RSH.
	{name: "scored-higher", cand: gateProfile{0.9, 20 * time.Microsecond}, active: gateProfile{0.9, 100 * time.Microsecond}},
	// At α = 0.5 useless-but-instant RSH and accurate-but-slow H4096 tie
	// on score, but RSH breaches the accuracy gate and H4096 clears it.
	{name: "tau-bypass", cand: gateProfile{1, 1000 * time.Microsecond}, active: gateProfile{0, 1 * time.Microsecond}},
	// Faster on the spatial half, but below the gate on the prevalent
	// keyword half.
	{name: "prevalent-gate", cand: gateProfile{0.9, 20 * time.Microsecond}, active: gateProfile{0.9, 100 * time.Microsecond}, keyword: 0.1},
}

// TestPrefillGateStartsOnlyWhatTheSwitchTakes walks the β branch of adapt
// over staged profiles: a candidate the switch would refuse is never
// warmed, and one it would take is warmed once. The debug log says which
// check refused.
func TestPrefillGateStartsOnlyWhatTheSwitchTakes(t *testing.T) {
	// "" marks a case whose candidate the β branch warms.
	want := map[string]string{"scored-lower": "check=score", "scored-equal": "check=score",
		"scored-higher": "", "tau-bypass": "", "prevalent-gate": "check=gate"}
	for _, c := range gateCases {
		t.Run(c.name, func(t *testing.T) {
			var log strings.Builder
			m, fills := gateModule(t, c, &log)
			if got, _ := m.brain.recommend(&gateQuery, m.active); got != gateCand {
				t.Fatalf("recommendation %d, the case stages %d", got, gateCand)
			}
			if s, _ := m.brain.scores(gateQuery.Type()); c.name == "tau-bypass" && s[gateCand] > s[gateActive] {
				t.Fatalf("the bypass case scores the candidate %.3f above RSH's %.3f", s[gateCand], s[gateActive])
			}
			m.adapt(&gateQuery)
			if !strings.Contains(log.String(), want[c.name]) {
				t.Errorf("log lacks %q:\n%s", want[c.name], log.String())
			}
			st := m.Snapshot()
			started := st.Prefilling != ""
			if started != (want[c.name] == "") {
				t.Fatalf("pre-filling %q, want %s", st.Prefilling, want[c.name])
			}
			if started {
				if st.Prefilling != estimator.NameH4096 || *fills != 1 || st.PrefillsStarted != 1 {
					t.Fatalf("pre-filling %q after %d fills, %d started; want H4096, 1, 1",
						st.Prefilling, *fills, st.PrefillsStarted)
				}
			} else if *fills != 0 || st.PrefillsStarted != 0 {
				t.Fatalf("refused candidate cost %d fills, %d started", *fills, st.PrefillsStarted)
			}
			if len(m.switches) != 0 {
				t.Fatalf("the pre-fill band switched: %v", m.switches)
			}
		})
	}
}

// TestPrefillGateMatchesSwitch checks the start decision against the
// switch itself: from the same staged state, adapt warms the candidate
// exactly when performSwitch, handed that candidate pre-filled, adopts it.
func TestPrefillGateMatchesSwitch(t *testing.T) {
	for _, c := range gateCases {
		t.Run(c.name, func(t *testing.T) {
			m, _ := gateModule(t, c, io.Discard)
			m.adapt(&gateQuery)
			started := m.prefill == gateCand

			s, _ := gateModule(t, c, io.Discard)
			s.prefill = gateCand
			s.performSwitch(&gateQuery)
			adopted := s.ActiveName() == estimator.NameH4096
			if adopted != (len(s.switches) == 1 && s.switches[0].Prefilled) {
				t.Fatalf("switched to %s with history %v", s.ActiveName(), s.switches)
			}
			if started != adopted {
				t.Fatalf("pre-fill started %v, switch adopted %v", started, adopted)
			}
			if st := s.Snapshot(); adopted && st.PrefillsAdopted != 1 {
				t.Fatalf("adopted switch counted %d", st.PrefillsAdopted)
			}
		})
	}
}
