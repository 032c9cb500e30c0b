package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/replay"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// jsonQuery is the emitted format of one query.
type jsonQuery struct {
	Type     string    `json:"type"`
	Range    []float64 `json:"range,omitempty"` // minx, miny, maxx, maxy
	Keywords []string  `json:"keywords,omitempty"`
}

// workloadCmd prints a workload's composition (query types per timeline
// decile, handy for checking a phase schedule), emits its queries as JSON
// lines, or exports -export objects of -dataset at -rate as replay JSONL
// for run -input. Queries are drawn over the workload's own dataset at rate
// 2; -dataset and -rate apply to -export only.
func workloadCmd(args []string, stdout, stderr io.Writer) int {
	o := defaults()
	o.queries = 100_000 // the paper's workload size
	fs := newFlagSet("workload", &o, stderr, "dataset", "workload", "seed", "rate", "queries")
	fs.BoolVar(&o.list, "list", false, "list workload presets and exit")
	fs.BoolVar(&o.emit, "emit", false, "emit queries as JSON lines instead of a summary")
	fs.Var(checked[int]{&o.export, atLeast(1)}, "export", "emit this many objects of -dataset as replay JSONL instead")
	if !parse(fs, args) ||
		o.export > 0 && refuse(fs, "with -export", "workload", "queries", "emit", "list") ||
		o.export == 0 && refuse(fs, "without -export", "dataset", "rate") ||
		o.list && refuse(fs, "with -list", "workload", "seed", "queries", "emit") {
		return 2
	}

	var err error
	switch {
	case o.export > 0:
		err = exportStream(stdout, o)
	case o.list:
		for _, name := range workload.Names() {
			spec := workload.ByName(name)
			fmt.Fprintf(stdout, "%-8s dataset=%-8s phases=%d rangeSide=%.3f kw=%d..%d\n",
				name, spec.Dataset, len(spec.Phases), spec.RangeSide, spec.KwMin, spec.KwMax)
		}
	default:
		spec := workload.ByName(o.workload)
		gen := workload.NewGenerator(spec, datagen.ByName(spec.Dataset, o.seed, 2), o.queries)
		if o.emit {
			err = emitQueries(stdout, gen)
		} else {
			summarize(stdout, spec, gen, o.queries)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "latest-lab workload: %v\n", err)
		return 1
	}
	return 0
}

// exportStream writes o.export objects of o's source as replay JSONL.
func exportStream(w io.Writer, o options) error {
	src, err := openSource(o)
	if err != nil {
		return err
	}
	defer src.close()
	out := replay.NewWriter(w)
	for i := 0; i < o.export; i++ {
		obj, err := src.next()
		if err != nil {
			return err
		}
		if err := out.Write(&obj); err != nil {
			return err
		}
	}
	return out.Flush()
}

// emitQueries drains gen as JSON lines.
func emitQueries(w io.Writer, gen *workload.Generator) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for gen.Remaining() > 0 {
		q := gen.Next(0)
		jq := jsonQuery{Type: q.Type().String(), Keywords: q.Keywords}
		if q.HasRange {
			jq.Range = []float64{q.Range.MinX, q.Range.MinY, q.Range.MaxX, q.Range.MaxY}
		}
		if err := enc.Encode(jq); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// summarize prints query-type counts per timeline decile.
func summarize(w io.Writer, spec workload.Spec, gen *workload.Generator, n int) {
	const deciles = 10
	var counts [deciles][3]int
	kwTotal, kwQueries := 0, 0
	for gen.Remaining() > 0 {
		d := min(int(gen.Progress()*deciles), deciles-1)
		q := gen.Next(0)
		counts[d][q.Type()]++
		if len(q.Keywords) > 0 {
			kwTotal += len(q.Keywords)
			kwQueries++
		}
	}
	fmt.Fprintf(w, "# %s on %s — %d queries\n", spec.Name, spec.Dataset, n)
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "decile", "spatial", "keyword", "hybrid")
	var totals [3]int
	for d := 0; d < deciles; d++ {
		fmt.Fprintf(w, "%d0-%d0%%   %10d %10d %10d\n", d, d+1,
			counts[d][stream.SpatialQuery], counts[d][stream.KeywordQuery], counts[d][stream.HybridQuery])
		for t := 0; t < 3; t++ {
			totals[t] += counts[d][t]
		}
	}
	fmt.Fprintf(w, "%-8s %10d %10d %10d\n", "total", totals[0], totals[1], totals[2])
	if kwQueries > 0 {
		fmt.Fprintf(w, "mean keywords per keyword-bearing query: %.2f\n", float64(kwTotal)/float64(kwQueries))
	}
}
