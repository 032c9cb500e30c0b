package check

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/replay"
	"github.com/spatiotext/latest/internal/stream"
)

// golden.go replays a checked-in object trace through a fully deterministic
// engine and renders two textual artifacts — the per-query count report and
// the switch-decision trace — that are diffed against golden files in
// testdata/check/. Any PR that silently changes window semantics, estimator
// arithmetic or switching behaviour turns into a readable line-level diff
// instead of a distant downstream symptom.
//
// Refresh flow (after an *intentional* semantics change):
//
//	go run ./cmd/latest-check -mode golden -update
//	git diff testdata/check/   # review every golden line that moved
//
// The trace itself is regenerated only when the generator is meant to
// change: go run ./cmd/latest-check -mode write-trace.

// TraceSpec pins the provenance of the checked-in object trace so it can be
// regenerated bit-identically.
var TraceSpec = struct {
	Dataset string
	Seed    int64
	Rate    float64
	Objects int
}{Dataset: "Twitter", Seed: 11, Rate: 0.5, Objects: 4000}

// WriteTrace renders the canonical golden object trace as JSONL.
func WriteTrace(w io.Writer) error {
	gen := datagen.ByName(TraceSpec.Dataset, TraceSpec.Seed, TraceSpec.Rate)
	out := replay.NewWriter(w)
	for i := 0; i < TraceSpec.Objects; i++ {
		o := gen.Next()
		if err := out.Write(&o); err != nil {
			return err
		}
	}
	return out.Flush()
}

// GoldenConfig parameterizes the golden replay. The zero value is not
// runnable; use DefaultGoldenConfig, which must stay in lockstep with the
// checked-in golden files.
type GoldenConfig struct {
	Seed            int64
	Window          time.Duration
	Pretrain        int
	AccWindow       int
	Alpha           float64
	ObjectsPerQuery int
	// MemoryScale shrinks estimator capacity so the replay exercises real
	// switching pressure (see DiffConfig.MemoryScale).
	MemoryScale float64
}

// DefaultGoldenConfig is the configuration the goldens were recorded under.
func DefaultGoldenConfig() GoldenConfig {
	return GoldenConfig{
		Seed:            11,
		Window:          5 * time.Second,
		Pretrain:        100,
		AccWindow:       40,
		Alpha:           0.5,
		ObjectsPerQuery: 8,
		// 2% of default estimator memory: at this trace's scale that is the
		// most switch-rich shape probed (15 decisions over 500 queries).
		MemoryScale: 0.02,
	}
}

// RunGolden replays the trace from r through a deterministic New engine,
// issuing one synthetic query per ObjectsPerQuery objects, and returns the
// count report and the decision trace as golden-comparable text.
func RunGolden(r io.Reader, cfg GoldenConfig) (counts, decisions string, err error) {
	sys, err := latest.New(goldenWorld(), cfg.Window, goldenOptions(cfg)...)
	if err != nil {
		return "", "", fmt.Errorf("check: build golden System: %w", err)
	}
	return replayGolden(r, cfg, shardedView{sys.ShardedSystem})
}

// replayGolden is the one golden replay loop: it feeds the trace from r
// into the engine behind view and queries it every ObjectsPerQuery objects.
func replayGolden(r io.Reader, cfg GoldenConfig, view shardedView) (counts, decisions string, err error) {
	qm := newQueryMaker(cfg.Seed, goldenWorld())
	var report strings.Builder
	reader := replay.NewReader(r)
	fed, qi := 0, 0
	var lastTS int64
	for {
		o, rerr := reader.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return "", "", rerr
		}
		view.FeedBatch([]latest.Object{o})
		qm.observe(&o)
		lastTS = o.Timestamp
		fed++
		if fed%cfg.ObjectsPerQuery != 0 {
			continue
		}
		q := qm.next(lastTS)
		est, actual := view.EstimateAndExecute(&q)
		reportLine(&report, qi, &q, est, actual, view)
		qi++
	}
	return report.String(), renderDecisions(view.Decisions()), nil
}

// RunGoldenFile is RunGolden over a trace file path.
func RunGoldenFile(tracePath string, cfg GoldenConfig) (counts, decisions string, err error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	return RunGolden(f, cfg)
}

func phaseName(p latest.Phase) string {
	switch p {
	case latest.PhaseWarmup:
		return "warmup"
	case latest.PhasePretrain:
		return "pretrain"
	case latest.PhaseIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// queryMaker derives a deterministic query stream from the trace itself: a
// seeded RNG picks types, ranges and keywords, with keywords drawn from a
// bounded pool of words actually seen in the stream so queries hit data.
type queryMaker struct {
	rng   *rand.Rand
	world latest.Rect
	pool  []string
	seen  map[string]bool
}

const queryMakerPoolSize = 512

func newQueryMaker(seed int64, world latest.Rect) *queryMaker {
	return &queryMaker{
		rng:   rand.New(rand.NewSource(seed ^ 0x607C)),
		world: world,
		seen:  make(map[string]bool),
	}
}

// observe harvests keywords into the pool (first come, bounded) so the
// query vocabulary is exactly reproducible from the trace prefix.
func (m *queryMaker) observe(o *stream.Object) {
	if len(m.pool) >= queryMakerPoolSize {
		return
	}
	for _, kw := range o.Keywords {
		if !m.seen[kw] {
			m.seen[kw] = true
			m.pool = append(m.pool, kw)
			if len(m.pool) >= queryMakerPoolSize {
				return
			}
		}
	}
}

func (m *queryMaker) next(ts int64) latest.Query {
	switch m.rng.Intn(3) {
	case 0:
		return latest.SpatialQuery(m.makeRect(), ts)
	case 1:
		return latest.KeywordQuery(m.makeKeywords(), ts)
	default:
		return latest.HybridQuery(m.makeRect(), m.makeKeywords(), ts)
	}
}

func (m *queryMaker) makeRect() latest.Rect {
	w, h := m.world.Width(), m.world.Height()
	cx := m.world.MinX + m.rng.Float64()*w
	cy := m.world.MinY + m.rng.Float64()*h
	side := 0.02 + m.rng.Float64()*0.12
	return latest.CenteredRect(latest.Pt(cx, cy), side*w, side*h)
}

func (m *queryMaker) makeKeywords() []string {
	n := 1 + m.rng.Intn(2)
	kws := make([]string, 0, n)
	for len(kws) < n && len(kws) < len(m.pool) {
		kw := m.pool[m.rng.Intn(len(m.pool))]
		if !slices.Contains(kws, kw) {
			kws = append(kws, kw)
		}
	}
	if len(kws) == 0 {
		kws = append(kws, "fire") // trace prefix had no keywords yet
	}
	return kws
}
