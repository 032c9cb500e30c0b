package check

import (
	"fmt"
	"io"
	"os"
	"strings"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/replay"
)

// golden_sharded.go replays the golden trace through the ShardedSystem as
// latestd builds it — feeds applied on the caller, switch candidates
// pre-filled by the query that asks — and with one shard the observable
// output must be byte-identical to the monolithic goldens: the shard layer
// adds routing and a lock around one System, and nothing else.

// engineView abstracts the observables a golden report line reads, so one
// formatter serves both the monolithic System and the sharded engine.
type engineView interface {
	ActiveName() string
	Phase() latest.Phase
	WindowSize() int
	Decisions() []latest.Decision
}

// sysView adapts *latest.System to engineView.
type sysView struct{ *latest.System }

func (v sysView) ActiveName() string { return v.ActiveEstimator() }

// shardedView adapts *latest.ShardedSystem to engineView. With one shard
// the observables are the ones a System reports; with more, each is listed
// in shard order.
type shardedView struct{ *latest.ShardedSystem }

func (v shardedView) ActiveName() string { return strings.Join(v.ActiveEstimators(), ",") }

// Decisions concatenates the shards' records in shard order; Stats() merges
// them by the wall time each was made at, which no seed fixes.
func (v shardedView) Decisions() []latest.Decision {
	var out []latest.Decision
	for _, sh := range v.PerShardStats().Shards {
		out = append(out, sh.Core.Decisions...)
	}
	return out
}

// RunGoldenSharded replays the trace from r through a ShardedSystem of the
// given shard count and returns the same count report and decision trace
// as RunGolden — golden-comparable when shards is 1.
// Beyond the shard count the engine takes no option RunGolden's does not.
func RunGoldenSharded(r io.Reader, cfg GoldenConfig, shards int) (counts, decisions string, err error) {
	world := goldenWorld()
	s, err := latest.NewSharded(world, cfg.Window, append(goldenOptions(cfg), latest.WithShards(shards))...)
	if err != nil {
		return "", "", fmt.Errorf("check: build golden ShardedSystem: %w", err)
	}
	defer s.Close()
	view := shardedView{s}

	qm := newQueryMaker(cfg.Seed, world)
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
		s.Feed(o)
		qm.observe(&o)
		lastTS = o.Timestamp
		fed++
		if fed%cfg.ObjectsPerQuery != 0 {
			continue
		}
		q := qm.next(lastTS)
		est, actual := s.EstimateAndExecute(&q)
		reportLine(&report, qi, &q, est, actual, view)
		qi++
	}
	return report.String(), renderDecisions(view.Decisions()), nil
}

// RunGoldenShardedFile is RunGoldenSharded over a trace file path.
func RunGoldenShardedFile(tracePath string, cfg GoldenConfig, shards int) (counts, decisions string, err error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	return RunGoldenSharded(f, cfg, shards)
}
