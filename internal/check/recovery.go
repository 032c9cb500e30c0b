package check

import (
	"context"
	"fmt"
	"io"
	"strings"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/replay"
	"github.com/spatiotext/latest/internal/stream"
)

// recovery.go turns the golden replay into a recovery-correctness oracle:
// the same deterministic trace is driven through an engine that crashes
// and recovers from persisted state mid-run, and the per-query count
// report plus the switch-decision trace must come out identical to the
// uninterrupted run. Because the golden replay pins every observable the
// engine produces, any state the snapshot or WAL fails to carry — a
// sampler's RNG position, a sliding accuracy average, the learner's
// profile grids — surfaces as a readable line diff, not a vague
// statistical drift.

// goldenWorld returns the world rect the golden trace was generated in.
func goldenWorld() latest.Rect {
	return datagen.ByName(TraceSpec.Dataset, TraceSpec.Seed, TraceSpec.Rate).World()
}

// goldenOptions builds the exact option set of the golden replay; recovery
// runs must construct every engine incarnation with it, both because the
// replay must be deterministic and because a restore fingerprints the
// options.
func goldenOptions(cfg GoldenConfig) []latest.Option {
	opts := []latest.Option{
		latest.WithSeed(cfg.Seed),
		latest.WithPretrainQueries(cfg.Pretrain),
		latest.WithAccWindow(cfg.AccWindow),
		latest.WithAlpha(cfg.Alpha),
		latest.WithLatencyModel(DeterministicLatencyModel),
	}
	if cfg.MemoryScale > 0 {
		opts = append(opts, latest.WithMemoryScale(cfg.MemoryScale))
	}
	return opts
}

// LoadTrace reads a full JSONL object trace into memory, for runners that
// need to replay segments of it against multiple engine incarnations.
func LoadTrace(r io.Reader) ([]stream.Object, error) {
	reader := replay.NewReader(r)
	var objs []stream.Object
	for {
		o, err := reader.Next()
		if err == io.EOF {
			return objs, nil
		}
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
}

// reportLine appends one golden count-report line; every runner goes
// through here so the formats can never drift apart.
func reportLine(b *strings.Builder, qi int, q *latest.Query, est float64, actual int, v shardedView) {
	fmt.Fprintf(b, "q=%04d type=%-7s est=%.6f actual=%d active=%s phase=%s window=%d\n",
		qi, q.Type(), est, actual, v.ActiveName(), phaseName(v.Phase()), v.WindowSize())
}

// renderDecisions formats the switch-decision trace; same single-source
// rule as reportLine.
func renderDecisions(ds []latest.Decision) string {
	var trace strings.Builder
	for i, d := range ds {
		fmt.Fprintf(&trace, "switch=%02d q=%d ts=%d from=%s to=%s reason=%s picker=%s prefilled=%t qtype=%s recommended=%s\n",
			i, d.QueryIndex, d.Timestamp, d.From, d.To, d.Reason, d.Picker, d.Prefilled, d.QueryType, d.Recommended)
	}
	return trace.String()
}

// RecoveryConfig shapes a mid-run crash/recovery replay.
type RecoveryConfig struct {
	Golden GoldenConfig
	// SnapshotAt: the snapshot is taken right after this many objects have
	// been fed (2000 in the checked-in scenario) and after any query due at
	// that exact point has been served — query feedback lives only in
	// process memory, so a snapshot taken between a feed and its co-located
	// query would silently shed that query's learning from the durable
	// state while the control run keeps it.
	SnapshotAt int
	// WALTailObjects: how many objects past the snapshot are fed — and
	// write-ahead logged — before the simulated crash. Queries pause for
	// this span: the WAL records feeds only, so the control run must have
	// the same no-query gap for the comparison to be exact. Zero means the
	// crash happens immediately after the snapshot (pure snapshot restore).
	WALTailObjects int
	// SecondSnapshotAt (> SnapshotAt, < SnapshotAt+WALTailObjects) takes a
	// second snapshot inside the WAL tail, producing generation 2 on top of
	// generation 1. On its own it just proves multi-generation recovery
	// restores the newest snapshot; combined with CorruptLatest it becomes
	// the fallback oracle. Zero disables it.
	SecondSnapshotAt int
	// CorruptLatest flips a byte in the middle of the newest snapshot
	// generation right before the crash-recovery rebuild. Recovery must
	// detect the damage (whole-file CRC), fall back to generation 1, and
	// replay BOTH WAL generations — byte-identical to the control run, or
	// the fallback chain is losing state. Requires SecondSnapshotAt:
	// corrupting the only snapshot is the refusal case, not fallback.
	CorruptLatest bool
	// Sharded runs both incarnations as 1-shard NewSharded engines, the
	// engine latestd builds, instead of System: the durable layer's WAL
	// append, snapshot and replay then go through the shard's lock and its
	// snapshot layout ("shard-0/" sections), and recovery must come out
	// byte-identical to the control run.
	Sharded bool
}

// RunGoldenRecovery replays the golden trace through an engine that is
// snapshotted, crashed and recovered mid-run, and through an uninterrupted
// control engine with an identical query schedule. It returns both runs'
// count reports and decision traces; recovery is correct iff they are
// byte-identical.
//
// The crash is simulated faithfully: the first engine incarnation is
// abandoned (no Shutdown, no final snapshot), so recovery sees exactly
// what a SIGKILL would leave on disk — the committed snapshot plus the
// fsynced WAL tail.
func RunGoldenRecovery(objs []stream.Object, rc RecoveryConfig) (control, recovered Replay, err error) {
	if rc.SnapshotAt <= 0 || rc.SnapshotAt >= len(objs) {
		return control, recovered, fmt.Errorf("check: SnapshotAt %d out of trace (%d objects)", rc.SnapshotAt, len(objs))
	}
	gapStart := rc.SnapshotAt
	gapEnd := rc.SnapshotAt + rc.WALTailObjects
	if gapEnd > len(objs) {
		return control, recovered, fmt.Errorf("check: WAL tail past trace end (%d+%d > %d)", rc.SnapshotAt, rc.WALTailObjects, len(objs))
	}
	if rc.SecondSnapshotAt != 0 && (rc.SecondSnapshotAt <= rc.SnapshotAt || rc.SecondSnapshotAt >= gapEnd) {
		return control, recovered, fmt.Errorf("check: SecondSnapshotAt %d outside (%d, %d)", rc.SecondSnapshotAt, rc.SnapshotAt, gapEnd)
	}
	if rc.CorruptLatest && rc.SecondSnapshotAt == 0 {
		return control, recovered, fmt.Errorf("check: CorruptLatest needs SecondSnapshotAt (one corrupt snapshot is refusal, not fallback)")
	}

	control, err = runGoldenSegmented(objs, rc, gapStart, gapEnd, -1)
	if err != nil {
		return control, recovered, fmt.Errorf("check: control run: %w", err)
	}
	recovered, err = runGoldenSegmented(objs, rc, gapStart, gapEnd, rc.SnapshotAt)
	if err != nil {
		return control, recovered, fmt.Errorf("check: recovery run: %w", err)
	}
	return control, recovered, nil
}

// Replay is one run's observable output. Fallback records whether the
// crash-recovery incarnation restored an older snapshot generation than
// the newest written — always false for control runs; the corruption
// oracle asserts it so a fallback test can never pass vacuously.
type Replay struct {
	Counts    string
	Decisions string
	Fallback  bool
}

// runGoldenSegmented drives the golden replay with a no-query gap over
// [gapStart, gapEnd) and, when crashAt >= 0, a snapshot + simulated crash
// + recovery at that object index. The crash engine persists into a
// latest.MemStore via a DurableEngine with per-record WAL fsync, so the
// post-crash incarnation recovers through exactly the production path:
// NewDurable restores the newest decodable snapshot generation (falling
// back across generations when rc.CorruptLatest damages the newest one),
// then replays the WAL tail.
func runGoldenSegmented(objs []stream.Object, rc RecoveryConfig, gapStart, gapEnd, crashAt int) (Replay, error) {
	cfg := rc.Golden
	world := goldenWorld()
	build := func() (shardedView, error) {
		if rc.Sharded {
			s, err := latest.NewSharded(world, cfg.Window, append(goldenOptions(cfg), latest.WithShards(1))...)
			return shardedView{s}, err
		}
		sys, err := latest.New(world, cfg.Window, goldenOptions(cfg)...)
		if err != nil {
			return shardedView{}, err
		}
		return shardedView{sys.ShardedSystem}, nil
	}
	view, err := build()
	if err != nil {
		return Replay{}, err
	}

	var eng latest.Engine = view.ShardedSystem
	store := latest.NewMemStore()
	if crashAt >= 0 {
		dur, derr := latest.NewDurable(view.ShardedSystem, store, latest.DurableConfig{WALSyncEvery: 1})
		if derr != nil {
			return Replay{}, derr
		}
		eng = dur
	}

	qm := newQueryMaker(cfg.Seed, world)
	var report strings.Builder
	var fellBack bool
	fed, qi := 0, 0
	var lastTS int64
	for i := range objs {
		eng.FeedBatch(objs[i : i+1])
		qm.observe(&objs[i])
		lastTS = objs[i].Timestamp
		fed++

		// Any query due at this object is served BEFORE a co-located
		// snapshot or crash: query feedback is process memory, not durable
		// state, so a snapshot taken between the feed and its query would
		// shed that query's learning while the control engine keeps it —
		// the runs would then disagree about history, not about recovery.
		if fed%cfg.ObjectsPerQuery == 0 && !(fed > gapStart && fed <= gapEnd) {
			q := qm.next(lastTS)
			est, actual := eng.EstimateAndExecute(&q)
			reportLine(&report, qi, &q, est, actual, view)
			qi++
		}

		if fed == crashAt || (crashAt >= 0 && rc.SecondSnapshotAt > 0 && fed == rc.SecondSnapshotAt) {
			if err := eng.(*latest.DurableEngine).SnapshotNow(context.Background()); err != nil {
				return Replay{}, fmt.Errorf("snapshot at object %d: %w", fed, err)
			}
		}
		if crashAt >= 0 && fed == gapEnd {
			if rc.CorruptLatest {
				// Bit rot on the newest generation, right where a crash
				// would find it. The whole-file CRC must catch this before
				// any section reaches the engine.
				name := persist.SnapshotNameFor(eng.TelemetrySnapshot().Durable.Generation)
				data, lerr := store.Load(name)
				if lerr != nil {
					return Replay{}, fmt.Errorf("corrupt %s: %w", name, lerr)
				}
				if cerr := store.Corrupt(name, len(data)/2); cerr != nil {
					return Replay{}, fmt.Errorf("corrupt %s: %w", name, cerr)
				}
			}
			// Crash: abandon the incarnation without Shutdown and recover a
			// fresh one from the store, exactly as a SIGKILL would.
			// Everything since the restored snapshot must come back out of
			// the WAL chain.
			if view, err = build(); err != nil {
				return Replay{}, err
			}
			dur, derr := latest.NewDurable(view.ShardedSystem, store, latest.DurableConfig{WALSyncEvery: 1})
			if derr != nil {
				return Replay{}, fmt.Errorf("recover at object %d: %w", fed, derr)
			}
			if s := dur.TelemetrySnapshot().Durable; s != nil && s.RecoveredFallback {
				fellBack = true
			}
			eng = dur
		}
	}
	return Replay{Counts: report.String(), Decisions: renderDecisions(view.Decisions()), Fallback: fellBack}, nil
}
