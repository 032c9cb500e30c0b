// Command benchmark is the repository's one performance instrument: five
// steady-state workloads over the whole stack, the end-to-end metrics a
// user of the system sees, and — in a traced run — a per-layer ledger
// measured from outside by timing calls into each layer's public
// functions. README.md in this directory explains the rules that make the
// numbers repeat; BENCHMARK.json at the repository root declares every
// name printed here.
//
//	go run ./benchmark                       every workload, plain
//	go run ./benchmark -workload embed-query -seed 7
//	go run ./benchmark -traced               per-layer ledger + span files
//	go run ./benchmark -out runs.json        append the runs to an envelope
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envelope is the one schema run results are stored in: provenance plus
// every run appended to the file.
type envelope struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*result `json:"runs"`
}

// outDir holds span files and per-run scratch data, relative to the
// checkout root the benchmark is run from.
const outDir = "benchmark/out"

func main() {
	// This sandbox's two vCPUs mostly share one core: two busy threads
	// take twice one thread's time, except when they do not, and wall-clock
	// numbers at GOMAXPROCS=2 swing by a fifth from run to run. One P
	// measures the work the program does per op, steadily. Set GOMAXPROCS
	// in the environment to measure on a host with real cores.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all five)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal measured-phase length; scales the fixed op counts")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and span files (as -traced)")
	traced := fs.Bool("traced", false, "traced run: per-layer metrics and span files")
	out := fs.String("out", "", "append the runs to this envelope file")
	compare := fs.Bool("compare", false, "compare two envelope files: -compare old.json new.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as declared in metrics.go")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}
	specs := workloads
	if *workload != "" {
		spec, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	opt := runOptions{
		seed: *seed, scale: *seconds / nominalSeconds,
		traced: *traced || *trace != 0, outDir: outDir, log: stderr, window: windowSpan,
	}
	code := 0
	var results []*result
	for _, spec := range specs {
		res, err := runWorkload(spec, opt)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", spec.name, err)
			return 1
		}
		if err := checkComplete(res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		results = append(results, res)
		printResult(stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		if err := appendRuns(*out, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}

// declared returns the metric list a run's result object carries in full:
// the per-layer list for a traced run, the gated end-to-end list otherwise.
func declared(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printed is declared plus, on a plain run, the demoted end-to-end metrics,
// which every run measures and the table shows.
func printed(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return append(endToEnd[:len(endToEnd):len(endToEnd)], demoted...)
}

// checkComplete enforces that a run measured every metric it must print.
func checkComplete(res *result) error {
	var missing []string
	for _, d := range printed(res.Traced) {
		if _, ok := res.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: run did not measure %v", res.Workload, missing)
	}
	return nil
}

// printResult writes the human-readable table and, as the last line, the
// one JSON object the acceptance driver reads.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  traced %v  ops %v\n",
		res.Workload, res.Seed, res.Scale, res.Traced, res.Ops)
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]outMetric{}}
	for i, d := range printed(res.Traced) {
		m := res.Metrics[d.Name]
		n, note := "-", ""
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		if m.Weak {
			note = "  (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-7s n=%s%s\n", d.Name, m.Value, m.Unit, n, note)
		if i < len(declared(res.Traced)) {
			last.Metrics[d.Name] = outMetric{m.Value, m.Unit}
		}
	}
	if len(res.Ledger) > 0 {
		fmt.Fprintln(w, "  per-request ledger (median self time, share of the caller-observed median):")
		for _, row := range res.Ledger {
			fmt.Fprintf(w, "    %-6s %-30s %10.2f us %6.1f%%\n", row.Op, row.Layer, row.SelfUS, 100*row.Share)
		}
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", res.SpanFile)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, _ := json.Marshal(last)
	fmt.Fprintf(w, "%s\n", b)
}

// appendRuns adds results to the envelope at path, creating it if absent.
func appendRuns(path string, results []*result) error {
	env, err := readEnvelope(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	env.Commit = commit()
	env.GoVersion = runtime.Version()
	env.NProc = runtime.NumCPU()
	env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	env.Runs = append(env.Runs, results...)
	b, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readEnvelope(path string) (envelope, error) {
	var env envelope
	b, err := os.ReadFile(path)
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return env, fmt.Errorf("%s: %w", path, err)
	}
	return env, nil
}

// commit is the checked-out revision, or "unknown" outside a git checkout.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
