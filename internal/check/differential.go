package check

import (
	"fmt"
	"hash/fnv"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/workload"
)

// DeterministicLatencyModel is the WithLatencyModel function the harness
// installs in every engine: a fixed synthetic latency per estimator name,
// loosely following the paper's relative costs (histogram lookups are
// cheap, sample scans and learned-model inference are not). With measured
// wall time out of the training signal, the α-weighted switching decisions
// of two runs — or of two engines fed the same stream — are
// bit-identical.
func DeterministicLatencyModel(name string, _ *latest.Query, _ time.Duration) time.Duration {
	switch name {
	case latest.EstimatorH4096:
		return 50 * time.Microsecond
	case latest.EstimatorAASP:
		return 80 * time.Microsecond
	case latest.EstimatorRSH:
		return 120 * time.Microsecond
	case latest.EstimatorFFN:
		return 200 * time.Microsecond
	case latest.EstimatorSPN:
		return 300 * time.Microsecond
	case latest.EstimatorRSL:
		return 400 * time.Microsecond
	default:
		// Custom estimators get a stable pseudo-latency from their name so
		// the model still ranks them deterministically.
		h := fnv.New32a()
		h.Write([]byte(name))
		return time.Duration(100+h.Sum32()%400) * time.Microsecond
	}
}

// DiffConfig parameterizes one differential run. The zero value is not
// runnable; use DefaultDiffConfig for the CI shape.
type DiffConfig struct {
	Dataset  string // datagen preset: Twitter, eBird, CheckIn
	Workload string // workload preset, e.g. TwQW1
	Seed     int64
	// Queries is the number of query steps; ObjectsPerQuery objects are fed
	// before each, so the run makes Queries*(ObjectsPerQuery+1) steps.
	Queries         int
	ObjectsPerQuery int
	Window          time.Duration
	Rate            float64 // objects per virtual millisecond
	Pretrain        int     // pre-training phase length
	AccWindow       int
	Alpha           float64
	Tau             float64 // switch threshold; zero keeps the engine default
	// MemoryScale shrinks estimator capacities (zero keeps 1.0). At harness
	// scale the default capacities cover the whole window, making every
	// estimator near-exact and switching pressure nil; a small scale
	// restores the paper's capacity-to-window ratio.
	MemoryScale float64
	// CheckEvery is the cadence (in queries) of the deep coherence check
	// over stats snapshots, switch histories and decision traces; counts
	// and estimates are compared on every query regardless. Zero = 50.
	CheckEvery int
	// MaxDetails caps the recorded mismatch detail strings (zero = 20).
	MaxDetails int
}

// DefaultDiffConfig is the short-mode differential run, small enough for
// seconds-scale test time. Its workload, TwSwitch, switches by
// construction: after the mixed third that pre-training consumes, a
// spatial third moves the fleet to the histogram and a keyword third moves
// it off again (at least two switches on each of seeds 1 to 20).
func DefaultDiffConfig() DiffConfig {
	return DiffConfig{
		Dataset:         "Twitter",
		Workload:        "TwSwitch",
		Seed:            1,
		Queries:         400,
		ObjectsPerQuery: 20,
		Window:          8 * time.Second,
		Rate:            1,
		Pretrain:        120,
		AccWindow:       60,
		Alpha:           0.5,
		// A tenth of the default estimator memory restores the paper's
		// capacity-to-window ratio at harness scale, so the run actually
		// exercises estimator switches rather than six near-exact summaries.
		MemoryScale: 0.1,
	}
}

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	Config      DiffConfig
	FeedSteps   int
	QuerySteps  int
	Switches    int // switch events observed on the reference engine
	FinalActive string
	FinalWindow int

	CountMismatches     int
	EstimateMismatches  int
	StateMismatches     int // active-estimator / phase disagreement
	DecisionDivergences int
	StatsDivergences    int

	// Details holds the first MaxDetails human-readable mismatch
	// descriptions.
	Details []string
}

// Steps returns the total feed+query step count of the run.
func (r *DiffReport) Steps() int { return r.FeedSteps + r.QuerySteps }

// Mismatches returns the total number of divergences of any kind.
func (r *DiffReport) Mismatches() int {
	return r.CountMismatches + r.EstimateMismatches + r.StateMismatches +
		r.DecisionDivergences + r.StatsDivergences
}

// Ok reports whether the run was divergence-free.
func (r *DiffReport) Ok() bool { return r.Mismatches() == 0 }

// Summary renders a one-line verdict.
func (r *DiffReport) Summary() string {
	return fmt.Sprintf("differential %s/%s seed=%d: %d steps (%d feeds, %d queries), %d switches, window=%d, active=%s — %d mismatches (counts=%d estimates=%d state=%d decisions=%d stats=%d)",
		r.Config.Dataset, r.Config.Workload, r.Config.Seed,
		r.Steps(), r.FeedSteps, r.QuerySteps, r.Switches, r.FinalWindow, r.FinalActive,
		r.Mismatches(), r.CountMismatches, r.EstimateMismatches,
		r.StateMismatches, r.DecisionDivergences, r.StatsDivergences)
}

func (r *DiffReport) note(kind *int, format string, args ...any) {
	*kind++
	max := r.Config.MaxDetails
	if max == 0 {
		max = 20
	}
	if len(r.Details) < max {
		r.Details = append(r.Details, fmt.Sprintf(format, args...))
	}
}

// engine adapts one differential leg to a comparable surface.
type engine struct {
	name string
	// eng is the leg's engine: feeds, stats and accessors go to it.
	eng *latest.ShardedSystem
	// query answers one query approximately, then exactly: through the
	// split Estimate and Execute on one leg and the fused
	// EstimateAndExecute on the other, so the two paths are checked bit
	// for bit against each other.
	query func(q *latest.Query) (estimate float64, actual int)
}

// active is the leg's one module's active estimator.
func (e engine) active() string { return e.eng.ActiveEstimators()[0] }

// RunDifferential feeds one deterministic workload into New's engine,
// queried through the split Estimate and Execute, and NewSharded(1),
// queried through EstimateAndExecute, plus the brute-force oracle,
// comparing counts, estimates, switching state and stats snapshots at
// every step. The returned report is non-nil whenever
// err is nil, even when it records mismatches.
func RunDifferential(cfg DiffConfig) (*DiffReport, error) {
	if cfg.Queries <= 0 || cfg.ObjectsPerQuery <= 0 {
		return nil, fmt.Errorf("check: Queries and ObjectsPerQuery must be positive, got %d/%d", cfg.Queries, cfg.ObjectsPerQuery)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 50
	}

	gen := datagen.ByName(cfg.Dataset, cfg.Seed, cfg.Rate)
	spec := workload.ByName(cfg.Workload)
	queries := workload.NewGenerator(spec, gen, cfg.Queries)
	world := gen.World()

	opts := []latest.Option{
		latest.WithSeed(cfg.Seed),
		latest.WithPretrainQueries(cfg.Pretrain),
		latest.WithAccWindow(cfg.AccWindow),
		latest.WithAlpha(cfg.Alpha),
		latest.WithLatencyModel(DeterministicLatencyModel),
	}
	if cfg.Tau > 0 {
		opts = append(opts, latest.WithTau(cfg.Tau))
	}
	if cfg.MemoryScale > 0 {
		opts = append(opts, latest.WithMemoryScale(cfg.MemoryScale))
	}

	sys, err := latest.New(world, cfg.Window, opts...)
	if err != nil {
		return nil, fmt.Errorf("check: build System: %w", err)
	}
	shard, err := latest.NewSharded(world, cfg.Window,
		append(append([]latest.Option(nil), opts...),
			latest.WithShards(1))...)
	if err != nil {
		return nil, fmt.Errorf("check: build ShardedSystem: %w", err)
	}

	engines := []engine{
		{
			name: "system", eng: sys.ShardedSystem,
			query: func(q *latest.Query) (float64, int) {
				est := sys.Estimate(q)
				return est, sys.Execute(q)
			},
		},
		{
			name: "sharded1", eng: shard,
			query: shard.EstimateAndExecute,
		},
	}

	oracle := NewOracle(cfg.Window.Milliseconds())
	report := &DiffReport{Config: cfg}

	for qi := 0; qi < cfg.Queries; qi++ {
		for j := 0; j < cfg.ObjectsPerQuery; j++ {
			one := []latest.Object{gen.Next()}
			for _, e := range engines {
				e.eng.FeedBatch(one)
			}
			oracle.Insert(&one[0])
			report.FeedSteps++
		}

		q := queries.Next(gen.Now())
		want := oracle.Count(&q)
		report.QuerySteps++

		var ests [2]float64
		var acts [2]int
		for i, e := range engines {
			// Each engine gets its own copy: validation repairs in place,
			// and a shared struct would let one engine's repair leak into
			// the next engine's input.
			qc := q
			ests[i], acts[i] = e.query(&qc)
		}
		for i, e := range engines {
			if acts[i] != want {
				report.note(&report.CountMismatches,
					"q%d %s: %s exact count %d, oracle %d", qi, q.Type(), e.name, acts[i], want)
			}
		}
		for i := 1; i < len(engines); i++ {
			if ests[i] != ests[0] {
				report.note(&report.EstimateMismatches,
					"q%d %s: %s estimate %v, %s estimate %v", qi, q.Type(),
					engines[i].name, ests[i], engines[0].name, ests[0])
			}
		}
		a0, p0 := engines[0].active(), engines[0].eng.Phase()
		for i := 1; i < len(engines); i++ {
			if a, p := engines[i].active(), engines[i].eng.Phase(); a != a0 || p != p0 {
				report.note(&report.StateMismatches,
					"q%d: %s active=%s phase=%v, %s active=%s phase=%v", qi,
					engines[i].name, a, p, engines[0].name, a0, p0)
			}
		}

		if (qi+1)%cfg.CheckEvery == 0 || qi == cfg.Queries-1 {
			compareDeep(report, qi, engines, oracle)
		}
	}

	report.Switches = len(sys.Stats().Decisions)
	report.FinalActive = engines[0].active()
	report.FinalWindow = oracle.Size()
	return report, nil
}

// compareDeep cross-checks window occupancy against the oracle and the
// deterministic parts of the stats snapshots, switch histories and
// decision traces across engines.
func compareDeep(report *DiffReport, qi int, engines []engine, oracle *Oracle) {
	for _, e := range engines {
		if ws := e.eng.WindowSize(); ws != oracle.Size() {
			report.note(&report.StatsDivergences,
				"q%d: %s window size %d, oracle %d", qi, e.name, ws, oracle.Size())
		}
	}
	ref := engines[0].eng.Stats()
	for i := 1; i < len(engines); i++ {
		st := engines[i].eng.Stats()
		diffStats(report, qi, engines[i].name, &st, engines[0].name, &ref)
	}
}

// diffStats compares every wall-clock-free Stats field. EstimateLatency
// and Decision.WallTime are genuinely nondeterministic (they time the host)
// and are skipped.
func diffStats(report *DiffReport, qi int, name string, got *latest.Stats, refName string, want *latest.Stats) {
	mismatch := func(field string, g, w any) {
		report.note(&report.StatsDivergences,
			"q%d stats.%s: %s=%v, %s=%v", qi, field, name, g, refName, w)
	}
	if got.Phase != want.Phase {
		mismatch("Phase", got.Phase, want.Phase)
	}
	if got.Active != want.Active {
		mismatch("Active", got.Active, want.Active)
	}
	if got.Prefilling != want.Prefilling {
		mismatch("Prefilling", got.Prefilling, want.Prefilling)
	}
	if got.PretrainSeen != want.PretrainSeen {
		mismatch("PretrainSeen", got.PretrainSeen, want.PretrainSeen)
	}
	if got.IncrementalSeen != want.IncrementalSeen {
		mismatch("IncrementalSeen", got.IncrementalSeen, want.IncrementalSeen)
	}
	if got.Switches != want.Switches {
		mismatch("Switches", got.Switches, want.Switches)
	}
	if got.TrainingRecords != want.TrainingRecords {
		mismatch("TrainingRecords", got.TrainingRecords, want.TrainingRecords)
	}
	if got.TreeNodes != want.TreeNodes {
		mismatch("TreeNodes", got.TreeNodes, want.TreeNodes)
	}
	if got.TreeSplits != want.TreeSplits {
		mismatch("TreeSplits", got.TreeSplits, want.TreeSplits)
	}
	if got.ModelRetrains != want.ModelRetrains {
		mismatch("ModelRetrains", got.ModelRetrains, want.ModelRetrains)
	}
	if got.AccuracyAvg != want.AccuracyAvg {
		mismatch("AccuracyAvg", got.AccuracyAvg, want.AccuracyAvg)
	}
	if got.MemoryBytes != want.MemoryBytes {
		mismatch("MemoryBytes", got.MemoryBytes, want.MemoryBytes)
	}
	if len(got.QError) != len(want.QError) {
		mismatch("len(QError)", len(got.QError), len(want.QError))
	} else {
		for i := range got.QError {
			if got.QError[i] != want.QError[i] {
				mismatch(fmt.Sprintf("QError[%d]", i), got.QError[i], want.QError[i])
			}
		}
	}
	if len(got.Decisions) != len(want.Decisions) {
		mismatch("len(Decisions)", len(got.Decisions), len(want.Decisions))
		return
	}
	for i := range got.Decisions {
		g, w := got.Decisions[i], want.Decisions[i]
		if !decisionsEqual(&g, &w) {
			report.note(&report.DecisionDivergences,
				"q%d decision[%d]: %s %s→%s(%s) @q%d, %s %s→%s(%s) @q%d", qi, i,
				name, g.From, g.To, g.Reason, g.QueryIndex,
				refName, w.From, w.To, w.Reason, w.QueryIndex)
		}
	}
}

// decisionsEqual compares the deterministic fields of two switch-decision
// audit records — everything except WallTime (host clock) and Shard (the
// sharded engine stamps its shard index, trivially 0 here but semantically
// an addressing detail, not a decision).
func decisionsEqual(a, b *latest.Decision) bool {
	if a.QueryIndex != b.QueryIndex || a.Timestamp != b.Timestamp ||
		a.From != b.From || a.To != b.To || a.Reason != b.Reason ||
		a.AccuracyAvg != b.AccuracyAvg || a.QueryType != b.QueryType ||
		a.Prefilled != b.Prefilled ||
		a.Recommended != b.Recommended || a.Confidence != b.Confidence ||
		a.RunnerUp != b.RunnerUp || a.RunnerUpConf != b.RunnerUpConf {
		return false
	}
	if len(a.Features) != len(b.Features) || len(a.QError) != len(b.QError) {
		return false
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			return false
		}
	}
	for i := range a.QError {
		if a.QError[i] != b.QError[i] {
			return false
		}
	}
	return true
}

// buildStandalone constructs one registered estimator directly — the
// envelope suite drives estimators outside any engine so their raw error
// is measured, not the switching module's.
func buildStandalone(name string, p estimator.Params) (estimator.Estimator, error) {
	return estimator.DefaultRegistry().Build(name, p)
}
