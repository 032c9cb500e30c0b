package estimator

import (
	"fmt"

	"github.com/spatiotext/latest/internal/asptree"
	"github.com/spatiotext/latest/internal/stream"
)

// AASP defaults. The paper's "split value of 0.5" is interpreted as the
// node split threshold being 0.5% of the expected windowed arrivals; with
// this repository's default synthetic rates that lands near 64 points per
// node, which is what defaultAASPSplit encodes directly so the structure is
// deterministic regardless of rate.
const (
	defaultAASPSplit    = 64
	defaultAASPMaxNodes = 32768
	defaultAASPSlices   = 8
	defaultAASPKwBucket = 64
)

// AASP is the augmented adaptive space-partitioning tree estimator
// (Figure 1(c)): a compressed 4-ary quadtree with windowed per-node count
// rings, per-node keyword summaries and a KMV synopsis. The tight coupling
// of spatial and keyword statistics is the paper's explanation for its
// weak performance on mixed workloads (§VI-D) — faithfully reproduced here,
// since keyword fractions degrade wherever spatial cells mix vocabularies.
type AASP struct {
	tree   *asptree.Tree
	slicer Slicer
}

// NewAASP builds the estimator; p.Scale multiplies the node budget.
func NewAASP(p Params) *AASP {
	// A larger memory budget buys finer spatial granularity: the split
	// threshold shrinks as the node budget grows, so Fig. 13's budget axis
	// moves both the cap and the resolution.
	split := int(float64(defaultAASPSplit) / scaleOf(p))
	if split < 8 {
		split = 8
	}
	return &AASP{
		tree: asptree.New(p.World, asptree.Config{
			SplitThreshold: split,
			MaxNodes:       p.scaledInt(defaultAASPMaxNodes, 128),
			Slices:         defaultAASPSlices,
			KeywordBuckets: defaultAASPKwBucket,
		}),
		slicer: NewSlicer(p.Span, defaultAASPSlices),
	}
}

// Name implements Estimator.
func (a *AASP) Name() string { return NameAASP }

func (a *AASP) advance(ts int64) {
	for i := a.slicer.AdvanceTo(ts); i > 0; i-- {
		a.tree.AdvanceSlice()
	}
}

// Insert implements Estimator.
func (a *AASP) Insert(o *stream.Object) {
	a.advance(o.Timestamp)
	a.tree.Insert(o.Loc, o.Keywords)
}

// Estimate implements Estimator. Every query consults the KMV synopsis for
// the background keyword frequency floor; the synopsis answers from its
// merged cache unless an insert changed a slice's minima or the window
// advanced since the last query, so the per-query cost is the tree walk.
func (a *AASP) Estimate(q *stream.Query) float64 {
	a.advance(q.Timestamp)
	floor := a.tree.KeywordFloor()
	switch q.Type() {
	case stream.SpatialQuery:
		return a.tree.EstimateRange(q.Range)
	case stream.KeywordQuery:
		est := a.tree.EstimateKeywords(q.Keywords)
		if lo := floor * float64(a.tree.Live()) * float64(len(q.Keywords)); est < lo {
			est = lo
		}
		return est
	default:
		est := a.tree.EstimateRangeKeywords(q.Range, q.Keywords)
		if lo := floor * a.tree.EstimateRange(q.Range) * float64(len(q.Keywords)); est < lo {
			est = lo
		}
		return est
	}
}

// Observe implements Estimator; the tree does not learn from feedback.
func (a *AASP) Observe(q *stream.Query, actual float64) {}

// Reset implements Estimator.
func (a *AASP) Reset() {
	a.tree.Reset()
	a.slicer.Reset()
}

// MemoryBytes implements Estimator.
func (a *AASP) MemoryBytes() int { return a.tree.MemoryBytes() }

// NodeCount exposes the tree size for tests and diagnostics.
func (a *AASP) NodeCount() int { return a.tree.NodeCount() }

// String summarizes state for diagnostics.
func (a *AASP) String() string {
	return fmt.Sprintf("AASP{nodes=%d live=%d}", a.tree.NodeCount(), a.tree.Live())
}
