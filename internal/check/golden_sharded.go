package check

import (
	"fmt"
	"io"
	"os"
	"strings"

	latest "github.com/spatiotext/latest"
)

// golden_sharded.go replays the golden trace through the ShardedSystem as
// latestd builds it — feeds applied on the caller, switch candidates
// pre-filled by the query that asks — and with one shard the observable
// output must be byte-identical to the goldens New's engine writes.

// shardedView reads the observables a golden report line prints from a
// *latest.ShardedSystem. With one shard they are the one module's; with
// more, each is listed in shard order.
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
	s, err := latest.NewSharded(goldenWorld(), cfg.Window, append(goldenOptions(cfg), latest.WithShards(shards))...)
	if err != nil {
		return "", "", fmt.Errorf("check: build golden ShardedSystem: %w", err)
	}
	return replayGolden(r, cfg, shardedView{s})
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
