// latest-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	latest-bench -exp fig3            # one experiment, text output
//	latest-bench -exp all             # the full evaluation section
//	latest-bench -exp table1 -json    # machine-readable output
//	latest-bench -list                # available experiment ids
//
// The -queries/-pretrain/-scale/-seed flags rescale any experiment; zero
// values take the defaults documented in DESIGN.md §2.
//
// Beyond the paper, -exp ingest-matrix sweeps the shards × GOMAXPROCS ×
// producers grid over the sharded engine and reports one datapoint per
// cell, plus each cell's speedup over the 1-shard cell at the same (procs,
// producers) coordinate:
//
//	latest-bench -exp ingest-matrix -shards-list 1,2,4 -procs-list 1,2,4 \
//	    -producers-list 1,4 -objects 400000 -out matrix.json
//
// With -min-speedup N the run fails unless some multi-shard cell reaches
// N× its 1-shard baseline; the gate auto-skips (with a warning) on hosts
// with fewer than 4 CPUs, where parallel speedup is physically capped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so tests can drive every flag
// path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latest-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id (fig3..fig13, table1, table2), 'all' or 'ingest-matrix'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		queries  = fs.Int("queries", 0, "incremental-phase query count (0 = default 3000)")
		pretrain = fs.Int("pretrain", 0, "pre-training query count (0 = default 600)")
		windowMS = fs.Int64("window", 0, "time window T in virtual ms (0 = default 30000)")
		rate     = fs.Float64("rate", 0, "stream rate in objects per virtual ms (0 = default 2)")
		scale    = fs.Float64("scale", 0, "estimator memory scale (0 = default 1)")
		seed     = fs.Int64("seed", 0, "random seed (0 = default 1)")
		alpha    = fs.Float64("alpha", -1, "accuracy/latency weight override (-1 = experiment default)")
		asJSON   = fs.Bool("json", false, "emit JSON instead of text")
		outFile  = fs.String("out", "", "also write JSON results to this file")

		producers     = fs.Int("producers", 8, "ingest-matrix: concurrent producer goroutines")
		objects       = fs.Int("objects", 1_000_000, "ingest-matrix: objects fed per cell")
		batchLen      = fs.Int("batch", 256, "ingest-matrix: objects per FeedBatch call")
		shardsList    = fs.String("shards-list", "1,2,4", "ingest-matrix: comma-separated shard counts")
		procsList     = fs.String("procs-list", "", "ingest-matrix: comma-separated GOMAXPROCS values (empty = current)")
		producersList = fs.String("producers-list", "", "ingest-matrix: comma-separated producer counts (empty = -producers)")
		minSpeedup    = fs.Float64("min-speedup", 0, "ingest-matrix: fail unless some multi-shard cell reaches this speedup over its 1-shard baseline (0 = report only; auto-skipped below 4 CPUs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *exp == "ingest-matrix":
		return runIngestMatrix(stdout, stderr, ingestMatrixConfig{
			ShardsList:    *shardsList,
			ProcsList:     *procsList,
			ProducersList: *producersList,
			Producers:     *producers,
			Objects:       *objects,
			BatchLen:      *batchLen,
			Seed:          *seed,
			MinSpeedup:    *minSpeedup,
		}, *asJSON, *outFile)
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-8s %s\n", id, experiments.Describe(id))
		}
		return 0
	case *exp == "":
		fmt.Fprintln(stderr, "latest-bench: -exp required (use -list to see ids)")
		return 2
	}

	cfg := experiments.RunConfig{
		Queries:         *queries,
		PretrainQueries: *pretrain,
		WindowMS:        *windowMS,
		Rate:            *rate,
		Scale:           *scale,
		Seed:            *seed,
	}
	if *alpha >= 0 {
		cfg.Alpha, cfg.AlphaSet = *alpha, true
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	var collected []any
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "latest-bench: %v\n", err)
			return 1
		}
		if *outFile != "" {
			collected = append(collected, res)
		}
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fmt.Fprintf(stderr, "latest-bench: encoding %s: %v\n", id, err)
				return 1
			}
			continue
		}
		if _, err := res.WriteTo(stdout); err != nil {
			fmt.Fprintf(stderr, "latest-bench: writing %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *outFile != "" {
		if err := writeJSONFile(stderr, *outFile, collected); err != nil {
			fmt.Fprintf(stderr, "latest-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeJSONFile writes v to path as indented JSON (a lost result file is a
// benchmark run wasted, so failures propagate to the exit code).
func writeJSONFile(stderr io.Writer, path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "latest-bench: wrote %s\n", path)
	return nil
}

// ingestMatrixConfig shapes an -exp ingest-matrix sweep.
type ingestMatrixConfig struct {
	ShardsList    string
	ProcsList     string
	ProducersList string
	Producers     int
	Objects       int
	BatchLen      int
	Seed          int64
	MinSpeedup    float64
}

// ingestMatrixCell is one (shards, GOMAXPROCS, producers) datapoint.
type ingestMatrixCell struct {
	Shards     int     `json:"shards"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Producers  int     `json:"producers"`
	Seconds    float64 `json:"seconds"`
	ObjectsSec float64 `json:"objects_per_sec"`
	WindowSize int     `json:"window_size"`
	BatchP50Ms float64 `json:"batch_p50_ms"`
	BatchP99Ms float64 `json:"batch_p99_ms"`
	BatchCount uint64  `json:"batch_count"`
	// SpeedupVs1Shard is this cell's throughput over the 1-shard cell at
	// the same (GOMAXPROCS, producers) coordinate; 0 when the sweep has no
	// such baseline cell.
	SpeedupVs1Shard float64 `json:"speedup_vs_1shard,omitempty"`
}

// ingestMatrixGate records whether the -min-speedup gate applied and what
// it saw, so a skipped gate is visible in the result file rather than
// indistinguishable from a passing one.
type ingestMatrixGate struct {
	MinSpeedup  float64 `json:"min_speedup"`
	Enforced    bool    `json:"enforced"`
	BestSpeedup float64 `json:"best_speedup"`
	Reason      string  `json:"reason,omitempty"`
}

// ingestMatrixResult is the machine-readable output of -exp ingest-matrix.
type ingestMatrixResult struct {
	Experiment string             `json:"experiment"`
	Objects    int                `json:"objects"`
	BatchLen   int                `json:"batch_len"`
	Seed       int64              `json:"seed"`
	NumCPU     int                `json:"num_cpu"`
	Cells      []ingestMatrixCell `json:"cells"`
	Gate       *ingestMatrixGate  `json:"gate,omitempty"`
}

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer", flagName, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list", flagName)
	}
	return out, nil
}

// runIngestMatrix sweeps shards × GOMAXPROCS × producers over the sharded
// engine, one fresh engine per cell on the identical object stream, and
// reports per-cell throughput plus speedup against the 1-shard baseline at
// the same (procs, producers) coordinate. GOMAXPROCS is restored to its
// entry value before returning.
func runIngestMatrix(stdout, stderr io.Writer, cfg ingestMatrixConfig, asJSON bool, outFile string) int {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Objects < 1 {
		cfg.Objects = 1
	}
	if cfg.BatchLen < 1 {
		cfg.BatchLen = 1
	}
	shardsList, err := parseIntList("shards-list", cfg.ShardsList)
	if err != nil {
		fmt.Fprintf(stderr, "latest-bench: %v\n", err)
		return 2
	}
	procsList := []int{runtime.GOMAXPROCS(0)}
	if cfg.ProcsList != "" {
		if procsList, err = parseIntList("procs-list", cfg.ProcsList); err != nil {
			fmt.Fprintf(stderr, "latest-bench: %v\n", err)
			return 2
		}
	}
	producersList := []int{cfg.Producers}
	if cfg.ProducersList != "" {
		if producersList, err = parseIntList("producers-list", cfg.ProducersList); err != nil {
			fmt.Fprintf(stderr, "latest-bench: %v\n", err)
			return 2
		}
	}

	world := latest.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	objs := genIngestObjects(cfg.Objects, cfg.Seed)
	result := ingestMatrixResult{
		Experiment: "ingest-matrix", Objects: cfg.Objects,
		BatchLen: cfg.BatchLen, Seed: cfg.Seed, NumCPU: runtime.NumCPU(),
	}
	if !asJSON {
		fmt.Fprintf(stdout, "ingest-matrix: %d objects, batch %d, NumCPU %d\n",
			cfg.Objects, cfg.BatchLen, result.NumCPU)
		fmt.Fprintf(stdout, "%-8s %-6s %-10s %12s %14s %10s\n",
			"shards", "procs", "producers", "obj/s", "batch p99", "speedup")
	}

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		for _, producers := range producersList {
			for _, shards := range shardsList {
				ss, serr := latest.NewSharded(world, time.Hour,
					latest.WithSeed(cfg.Seed), latest.WithShards(shards))
				if serr != nil {
					fmt.Fprintf(stderr, "latest-bench: shards=%d: %v\n", shards, serr)
					return 1
				}
				dur := driveProducers(objs, producers, cfg.BatchLen, ss.FeedBatch)
				st := ss.PerShardStats()
				gauges := make([]latest.GaugeSnapshot, len(st.Shards))
				for i, sh := range st.Shards {
					gauges[i] = sh.Gauges
				}
				hist := batchHistOf(gauges...)
				windowSize := ss.WindowSize()
				ss.Close()

				cell := ingestMatrixCell{
					Shards: shards, GOMAXPROCS: procs, Producers: producers,
					Seconds: dur.Seconds(), ObjectsSec: float64(cfg.Objects) / dur.Seconds(),
					WindowSize: windowSize,
					BatchP50Ms: durMS(hist.P50()), BatchP99Ms: durMS(hist.P99()),
					BatchCount: hist.Count,
				}
				for _, base := range result.Cells {
					if base.Shards == 1 && base.GOMAXPROCS == procs && base.Producers == producers {
						cell.SpeedupVs1Shard = cell.ObjectsSec / base.ObjectsSec
						break
					}
				}
				result.Cells = append(result.Cells, cell)
				if !asJSON {
					sp := "-"
					if cell.SpeedupVs1Shard > 0 {
						sp = fmt.Sprintf("%.2fx", cell.SpeedupVs1Shard)
					}
					fmt.Fprintf(stdout, "%-8d %-6d %-10d %12.0f %12.3fms %10s\n",
						shards, procs, producers, cell.ObjectsSec, cell.BatchP99Ms, sp)
				}
			}
		}
	}
	runtime.GOMAXPROCS(prevProcs)

	gateFailed := false
	if cfg.MinSpeedup > 0 {
		gate := &ingestMatrixGate{MinSpeedup: cfg.MinSpeedup}
		for _, c := range result.Cells {
			if c.Shards > 1 && c.SpeedupVs1Shard > gate.BestSpeedup {
				gate.BestSpeedup = c.SpeedupVs1Shard
			}
		}
		switch {
		case runtime.NumCPU() < 4:
			// Parallel speedup is capped by the core count; on a 1-2 core
			// host a 2x scaling demand is physically unmeetable, so the
			// gate reports instead of failing.
			gate.Reason = fmt.Sprintf("skipped: NumCPU=%d < 4, parallel speedup not measurable", runtime.NumCPU())
		case gate.BestSpeedup >= cfg.MinSpeedup:
			gate.Enforced = true
		default:
			gate.Enforced = true
			gateFailed = true
			gate.Reason = fmt.Sprintf("failed: best multi-shard speedup %.2fx below floor %.2fx", gate.BestSpeedup, cfg.MinSpeedup)
		}
		if gate.Reason != "" {
			fmt.Fprintf(stderr, "latest-bench: ingest-matrix gate %s (best %.2fx, floor %.2fx)\n",
				gate.Reason, gate.BestSpeedup, gate.MinSpeedup)
		}
		result.Gate = gate
	}

	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result); err != nil {
			fmt.Fprintf(stderr, "latest-bench: encoding ingest-matrix: %v\n", err)
			return 1
		}
	}
	if outFile != "" {
		if err := writeJSONFile(stderr, outFile, result); err != nil {
			fmt.Fprintf(stderr, "latest-bench: %v\n", err)
			return 1
		}
	}
	if gateFailed {
		return 1
	}
	return 0
}

// batchHistOf folds an engine's per-shard batch-latency histograms into one.
func batchHistOf(gauges ...latest.GaugeSnapshot) latest.HistogramSnapshot {
	var merged latest.HistogramSnapshot
	for _, g := range gauges {
		merged.Merge(g.BatchLatency)
	}
	return merged
}

// genIngestObjects builds the deterministic synthetic stream every ingest
// experiment feeds: uniform locations over the unit world, a small rotating
// keyword set, monotonically increasing timestamps.
func genIngestObjects(objects int, seed int64) []latest.Object {
	rng := rand.New(rand.NewSource(seed))
	kws := []string{"a", "b", "c", "d", "e"}
	objs := make([]latest.Object, objects)
	for i := range objs {
		objs[i] = latest.Object{
			ID:        uint64(i + 1),
			Loc:       latest.Pt(rng.Float64(), rng.Float64()),
			Keywords:  kws[i%len(kws) : i%len(kws)+1],
			Timestamp: int64(i + 1),
		}
	}
	return objs
}

// driveProducers splits objs into producer-count contiguous shares and
// feeds them concurrently through fn in batchLen-sized slices, returning
// the wall-clock duration of the whole fan-in.
func driveProducers(objs []latest.Object, producers, batchLen int, fn func(batch []latest.Object)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	per := (len(objs) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := p * per
		hi := lo + per
		if hi > len(objs) {
			hi = len(objs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(share []latest.Object) {
			defer wg.Done()
			for off := 0; off < len(share); off += batchLen {
				end := off + batchLen
				if end > len(share) {
					end = len(share)
				}
				fn(share[off:end])
			}
		}(objs[lo:hi])
	}
	wg.Wait()
	return time.Since(start)
}

// durMS converts a duration to float milliseconds for JSON output.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
