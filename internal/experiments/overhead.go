package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/index"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// OverheadRow is one Table I row: a full index's query latency next to an
// estimator's latency and accuracy on the same (dataset, workload).
type OverheadRow struct {
	Dataset        string        `json:"dataset"`
	Index          string        `json:"index"`
	IndexLatency   time.Duration `json:"index_latency"`
	Estimator      string        `json:"estimator"`
	EstLatency     time.Duration `json:"est_latency"`
	EstAccuracy    float64       `json:"est_accuracy"`
	OverheadFactor float64       `json:"overhead_factor"` // index / estimator latency
}

// OverheadResult reproduces Table I.
type OverheadResult struct {
	Rows []OverheadRow `json:"rows"`
}

// overheadCell is one (dataset, workload, index) cell of Table I and the
// estimators its rows report.
type overheadCell struct {
	dataset, wl string
	index       string
	estimators  []string
}

// tableICells mirrors the paper's Table I: grid indexes against the
// grid-flavoured estimators, quadtree indexes against AASP.
var tableICells = []overheadCell{
	{"eBird", "EbRQW1", "Grid", []string{estimator.NameH4096, estimator.NameRSL, estimator.NameRSH}},
	{"eBird", "EbRQW1", "QuadTree", []string{estimator.NameAASP}},
	{"CheckIn", "CiQW1", "Grid", []string{estimator.NameRSL, estimator.NameRSH}},
	{"CheckIn", "CiQW1", "QuadTree", []string{estimator.NameAASP}},
	{"Twitter", "TwQW4", "Grid", []string{estimator.NameH4096, estimator.NameRSL, estimator.NameRSH}},
	{"Twitter", "TwQW4", "QuadTree", []string{estimator.NameAASP}},
}

// RunIndexOverhead regenerates Table I: for each cell it feeds the same
// stream into a full index and the cell's estimators, then measures
// exact-search latency against estimator latency/accuracy.
func RunIndexOverhead(cfg RunConfig) *OverheadResult {
	cfg = cfg.withDefaults()
	res := &OverheadResult{}
	for _, c := range tableICells {
		res.Rows = append(res.Rows, c.run(cfg)...)
	}
	return res
}

// run feeds one stream into the cell's index and estimators and measures
// them all on the workload's queries, one row per estimator.
func (c overheadCell) run(cfg RunConfig) []OverheadRow {
	data := datagen.ByName(c.dataset, cfg.Seed, cfg.Rate)
	queries := cfg.Queries / 2
	if queries < 200 {
		queries = 200
	}
	gen := workload.NewGenerator(workload.ByName(c.wl), data, queries)
	oracle := stream.NewWindow(data.World(), cfg.WindowMS, 4096)

	var idx index.Index
	if c.index == "Grid" {
		idx = index.NewGrid(data.World(), 4096, cfg.WindowMS)
	} else {
		idx = index.NewQuadTree(data.World(), cfg.WindowMS)
	}
	reg := estimator.DefaultRegistry()
	params := estimator.Params{World: data.World(), Span: cfg.WindowMS, Scale: cfg.Scale, Seed: cfg.Seed}
	fleet := make([]estimator.Estimator, len(c.estimators))
	for i, name := range c.estimators {
		est, err := reg.Build(name, params)
		if err != nil {
			panic(err) // the cells are code-authored; this is a harness bug
		}
		fleet[i] = est
	}

	feed := func(n int) {
		for i := 0; i < n; i++ {
			o := data.Next()
			oracle.Insert(o)
			idx.Insert(&o)
			for _, f := range fleet {
				f.Insert(&o)
			}
		}
	}
	feed(int(float64(cfg.WindowMS) * cfg.Rate)) // one full warm-up window

	var idxLat metrics.LatencyTracker
	estLat := make([]metrics.LatencyTracker, len(fleet))
	estAcc := make([]metrics.Welford, len(fleet))
	for gen.Remaining() > 0 {
		feed(cfg.ObjectsPerQuery)
		q := gen.Next(data.Now())
		actual := float64(oracle.Answer(&q))

		start := time.Now()
		_ = idx.Search(&q) // the query processor materializes the results
		idxLat.Add(time.Since(start))

		for i, f := range fleet {
			start = time.Now()
			est := f.Estimate(&q)
			estLat[i].Add(time.Since(start))
			estAcc[i].Add(metrics.Accuracy(est, actual))
			f.Observe(&q, actual)
		}
	}
	rows := make([]OverheadRow, len(fleet))
	for i, name := range c.estimators {
		rows[i] = OverheadRow{
			Dataset:      c.dataset,
			Index:        c.index,
			IndexLatency: idxLat.Mean(),
			Estimator:    name,
			EstLatency:   estLat[i].Mean(),
			EstAccuracy:  estAcc[i].Mean(),
		}
		if rows[i].EstLatency > 0 {
			rows[i].OverheadFactor = float64(rows[i].IndexLatency) / float64(rows[i].EstLatency)
		}
	}
	return rows
}

// WriteTo renders Table I.
func (r *OverheadResult) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "# Table I — index overhead vs estimators")
	fmt.Fprintf(&b, "%-10s %-9s %12s   %-6s %12s %9s %9s\n",
		"dataset", "index", "idx-latency", "est", "est-latency", "accuracy", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-9s %12s   %-6s %12s %8.0f%% %8.1fx\n",
			row.Dataset, row.Index, row.IndexLatency.Round(time.Microsecond),
			row.Estimator, row.EstLatency.Round(time.Microsecond),
			row.EstAccuracy*100, row.OverheadFactor)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Row finds the row for (dataset, estimator), used by tests.
func (r *OverheadResult) Row(dataset, est string) (OverheadRow, bool) {
	for _, row := range r.Rows {
		if row.Dataset == dataset && row.Estimator == est {
			return row, true
		}
	}
	return OverheadRow{}, false
}
