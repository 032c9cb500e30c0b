package check

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenReplaySharded pins the sharded engine to the goldens: the
// golden trace replayed through NewSharded(WithShards(1)), every other
// option RunGolden's, must match the golden files New's engine writes
// byte-for-byte — counts AND switch decisions. Never refresh the goldens
// from this runner; if it diverges, NewSharded(WithShards(1)) stopped
// building the engine New builds.
func TestGoldenReplaySharded(t *testing.T) {
	counts, decisions, err := RunGoldenShardedFile(
		filepath.Join(goldenDir, traceFile), DefaultGoldenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(decisions, "switch=") {
		t.Fatal("sharded replay recorded no switches; the scenario is not exercising the adaptor")
	}
	compareGolden(t, filepath.Join(goldenDir, countsGolden), counts)
	compareGolden(t, filepath.Join(goldenDir, decisionGolden), decisions)
}

// TestShardedSeededRunRepeats: a seed names one run of the engine latestd
// builds. The golden trace through a ShardedSystem, one caller,
// yields the same count report and decision trace every time — with one
// shard and with four, whose fan-outs run in parallel but whose shards each
// see one fixed order of feeds and queries. A pre-fill that ran anywhere
// but on the query that asked for it would break this: which later query
// found the candidate half-filled would be the scheduler's choice.
func TestShardedSeededRunRepeats(t *testing.T) {
	for _, shards := range []int{1, 4} {
		var counts, decisions string
		for run := 0; run < 5; run++ {
			c, d, err := RunGoldenShardedFile(
				filepath.Join(goldenDir, traceFile), DefaultGoldenConfig(), shards)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				if !strings.Contains(d, "switch=") {
					t.Fatalf("%d shards: no switches recorded; the scenario is not exercising the adaptor", shards)
				}
				counts, decisions = c, d
				continue
			}
			diffReplays(t, fmt.Sprintf("%d shards, run %d: count report", shards, run), counts, c)
			diffReplays(t, fmt.Sprintf("%d shards, run %d: decision trace", shards, run), decisions, d)
		}
	}
}

// TestGoldenRecoverySharded is the recovery oracle over the sharded
// engine latestd builds: a 1-shard NewSharded under the durable layer
// takes a snapshot at object 2000, feeds a 400-object WAL tail, is
// abandoned SIGKILL-style and recovers from snapshot + WAL replay.
// Byte-identity with the uninterrupted sharded control run proves the
// shard's snapshot carried every feed logged before it and the WAL carried
// every one after.
func TestGoldenRecoverySharded(t *testing.T) {
	objs := loadGoldenTrace(t)
	control, recovered, err := RunGoldenRecovery(objs, RecoveryConfig{
		Golden:         DefaultGoldenConfig(),
		SnapshotAt:     2000,
		WALTailObjects: 400,
		Sharded:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(control.Decisions, "switch=") {
		t.Fatal("control run recorded no switches; the scenario is not exercising the adaptor")
	}
	diffReplays(t, "count report", control.Counts, recovered.Counts)
	diffReplays(t, "decision trace", control.Decisions, recovered.Decisions)
}
