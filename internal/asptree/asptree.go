// Package asptree implements the adaptive space-partitioning (ASP) tree of
// Hershberger et al. ("Adaptive Spatial Partitioning for Multidimensional
// Data Streams"), augmented per Wang et al.'s AASP design with per-node
// keyword summaries so that local spatial-keyword correlations can be
// exploited (paper §IV, Figure 1(c)).
//
// The tree is a 4-ary quadtree over the world rectangle in which every data
// point is counted by exactly one node: points land in the deepest existing
// node covering them, and a node splits once its live count crosses the
// split threshold, directing *future* points into its children while the
// node keeps the counts it already absorbed. Counts are kept in a ring of
// time slices so the structure tracks a sliding window without storing
// points: advancing a slice retires the oldest counts everywhere in one
// O(nodes) sweep.
//
// Keyword information is summarised per node by hashing keywords into a
// fixed number of buckets of per-slice counts. Bucket collisions make the
// per-keyword fractions approximate, which is faithful to AASP's observed
// behaviour in the paper: strong on spatially-clustered keyword
// correlations, weak on high-cardinality keyword workloads.
package asptree

import (
	"fmt"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/kmv"
)

// Config controls tree shape and windowing.
type Config struct {
	// SplitThreshold is the live count at which a leaf splits. The paper's
	// "split value of 0.5" is mapped by the AASP estimator to a threshold of
	// 0.5% of the expected window size (see internal/estimator).
	SplitThreshold int
	// MaxNodes caps the total node count; splits stop once reached. This is
	// the tree's memory budget lever.
	MaxNodes int
	// MaxDepth caps subdivision depth to keep cells above floating-point
	// noise. Zero means the default of 20.
	MaxDepth int
	// Slices is the number of time slices in the window ring. Zero means
	// the default of 8.
	Slices int
	// KeywordBuckets is the number of hash buckets in each node's keyword
	// summary. Zero means the default of 32.
	KeywordBuckets int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.SplitThreshold <= 0 {
		out.SplitThreshold = 128
	}
	if out.MaxNodes <= 0 {
		out.MaxNodes = 4096
	}
	if out.MaxDepth <= 0 {
		out.MaxDepth = 20
	}
	if out.Slices <= 0 {
		out.Slices = 8
	}
	if out.KeywordBuckets <= 0 {
		out.KeywordBuckets = 32
	}
	return out
}

// node is a quadtree cell with windowed count summaries. children[i] follows
// geo.Rect.Quadrants order; a node either has all four children or none.
type node struct {
	bounds   geo.Rect
	depth    int
	children *[4]node

	// slices[s] counts points absorbed by this node (not descendants)
	// during time slice s; live caches the ring sum.
	slices []uint32
	live   uint32

	// kw[b*S+s] counts keyword occurrences hashed to bucket b in slice s.
	// kwLive[b] caches each bucket's ring sum.
	kw     []uint32
	kwLive []uint32
}

// Tree is a windowed AASP tree. Not safe for concurrent use.
type Tree struct {
	cfg   Config
	root  *node
	nodes int
	cur   int // current slice index

	totalLive uint32
	synopsis  *kmv.Sliced // windowed distinct-keyword synopsis
}

// synopsisK is the size of the windowed distinct-keyword synopsis.
const synopsisK = 256

// New creates an empty tree over the given world rectangle.
func New(world geo.Rect, cfg Config) *Tree {
	if world.Empty() || !world.Valid() {
		panic(fmt.Sprintf("asptree: invalid world %v", world))
	}
	c := cfg.withDefaults()
	t := &Tree{cfg: c, synopsis: kmv.NewSliced(synopsisK, c.Slices)}
	t.root = t.newNode(world, 0)
	t.nodes = 1
	return t
}

func (t *Tree) newNode(bounds geo.Rect, depth int) *node {
	return &node{
		bounds: bounds,
		depth:  depth,
		slices: make([]uint32, t.cfg.Slices),
		kw:     make([]uint32, t.cfg.KeywordBuckets*t.cfg.Slices),
		kwLive: make([]uint32, t.cfg.KeywordBuckets),
	}
}

// NodeCount returns the number of nodes currently allocated.
func (t *Tree) NodeCount() int { return t.nodes }

// Live returns the total windowed count across all nodes.
func (t *Tree) Live() int { return int(t.totalLive) }

// DistinctKeywords estimates the number of distinct keywords in the window
// via the tree's KMV synopsis.
func (t *Tree) DistinctKeywords() float64 { return t.synopsis.Distinct() }

// Insert counts a point with its keywords into the deepest covering node,
// splitting that node when it crosses the threshold.
func (t *Tree) Insert(p geo.Point, kws []string) {
	n := t.root
	for n.children != nil {
		n = &n.children[n.bounds.QuadrantOf(p)]
	}
	n.slices[t.cur]++
	n.live++
	t.totalLive++
	for _, kw := range kws {
		h := kmv.Hash64(kw)
		b := int(h % uint64(t.cfg.KeywordBuckets))
		n.kw[b*t.cfg.Slices+t.cur]++
		n.kwLive[b]++
		t.synopsis.AddHash(h)
	}
	if int(n.live) > t.cfg.SplitThreshold &&
		n.depth < t.cfg.MaxDepth &&
		t.nodes+4 <= t.cfg.MaxNodes {
		t.split(n)
	}
}

// split attaches four empty children; the node keeps its absorbed counts.
func (t *Tree) split(n *node) {
	quads := n.bounds.Quadrants()
	var ch [4]node
	for i := range ch {
		ch[i] = *t.newNode(quads[i], n.depth+1)
	}
	n.children = &ch
	t.nodes += 4
}

// AdvanceSlice rotates the window ring, retiring the oldest slice in every
// node, and collapses subtrees that have gone empty so the node budget is
// reclaimed for the stream's current hot spots.
func (t *Tree) AdvanceSlice() {
	t.cur = (t.cur + 1) % t.cfg.Slices
	t.retire(t.root)
	t.collapse(t.root)
	t.synopsis.Advance()
}

// retire zeroes the (new) current slice throughout the subtree, updating
// live caches.
func (t *Tree) retire(n *node) {
	old := n.slices[t.cur]
	n.slices[t.cur] = 0
	n.live -= old
	t.totalLive -= old
	S := t.cfg.Slices
	for b := 0; b < t.cfg.KeywordBuckets; b++ {
		k := n.kw[b*S+t.cur]
		n.kw[b*S+t.cur] = 0
		n.kwLive[b] -= k
	}
	if n.children != nil {
		for i := range n.children {
			t.retire(&n.children[i])
		}
	}
}

// collapse removes child quartets whose subtrees hold no live counts.
// It returns the subtree's live total.
func (t *Tree) collapse(n *node) uint32 {
	if n.children == nil {
		return n.live
	}
	sub := uint32(0)
	for i := range n.children {
		sub += t.collapse(&n.children[i])
	}
	if sub == 0 {
		n.children = nil
		t.nodes -= 4
	}
	return n.live + sub
}

// EstimateRange estimates how many windowed points fall inside r, assuming
// points are uniform within each node's cell (the quadtree's adaptivity is
// what keeps that assumption tolerable).
func (t *Tree) EstimateRange(r geo.Rect) float64 {
	return t.estimate(t.root, r, nil)
}

// keywordBuckets maps query keywords to their summary buckets once per
// query, so the tree walk hashes nothing. The result is non-nil exactly
// when kws is, which is how estimate tells "no keyword predicate" apart.
func (t *Tree) keywordBuckets(kws []string, buf []int) []int {
	if kws == nil {
		return nil
	}
	for _, kw := range kws {
		buf = append(buf, int(kmv.Hash64(kw)%uint64(t.cfg.KeywordBuckets)))
	}
	return buf
}

// EstimateRangeKeywords estimates points inside r carrying at least one of
// kws, using each node's local keyword summary.
func (t *Tree) EstimateRangeKeywords(r geo.Rect, kws []string) float64 {
	if len(kws) == 0 {
		return t.EstimateRange(r)
	}
	var buf [8]int
	return t.estimate(t.root, r, t.keywordBuckets(kws, buf[:0]))
}

// EstimateKeywords estimates windowed points carrying at least one of kws,
// regardless of location.
func (t *Tree) EstimateKeywords(kws []string) float64 {
	var buf [8]int
	return t.estimate(t.root, t.root.bounds.Expand(1), t.keywordBuckets(kws, buf[:0]))
}

// estimate sums the subtree's contribution to range r; kwb is the query's
// keyword buckets, nil for no keyword predicate.
func (t *Tree) estimate(n *node, r geo.Rect, kwb []int) float64 {
	if !n.bounds.Intersects(r) {
		return 0
	}
	frac := 1.0
	if !r.ContainsRect(n.bounds) {
		frac = r.Intersect(n.bounds).Area() / n.bounds.Area()
	}
	est := float64(n.live) * frac
	if kwb != nil {
		est *= keywordFraction(n, kwb)
	}
	if n.children != nil {
		for i := range n.children {
			est += t.estimate(&n.children[i], r, kwb)
		}
	}
	return est
}

// keywordFraction estimates the fraction of this node's own points matching
// any query keyword, as the capped sum of per-bucket frequencies. Bucket
// collisions and multi-keyword objects both bias this upward; the cap keeps
// it a probability.
func keywordFraction(n *node, kwb []int) float64 {
	if n.live == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range kwb {
		sum += float64(n.kwLive[b])
	}
	frac := sum / float64(n.live)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// KeywordFloor estimates the background frequency of a single unseen
// keyword as 1/D, where D is the KMV synopsis's distinct-keyword estimate.
// The AASP estimator consults it on every query to bound collision noise
// from below. The synopsis re-merges its slices only after an insert
// changed a slice's k minima or the ring advanced, so between those events
// this is a cached read.
func (t *Tree) KeywordFloor() float64 {
	d := t.synopsis.Distinct()
	if d < 1 {
		return 0
	}
	return 1 / d
}

// Reset drops all counts and structure, returning the tree to its freshly
// constructed state (used when an estimator is wiped after pre-training).
func (t *Tree) Reset() {
	t.root = t.newNode(t.root.bounds, 0)
	t.nodes = 1
	t.cur = 0
	t.totalLive = 0
	t.synopsis = kmv.NewSliced(synopsisK, t.cfg.Slices)
}

// MemoryBytes approximates the tree's footprint for the memory-budget
// experiment.
func (t *Tree) MemoryBytes() int {
	perNode := 64 + // struct overhead
		4*t.cfg.Slices + // slices ring
		4*t.cfg.KeywordBuckets*t.cfg.Slices + // kw ring
		4*t.cfg.KeywordBuckets // kwLive cache
	return t.nodes*perNode + t.synopsis.MemoryBytes()
}

// Depth returns the maximum depth of any node, a diagnostics hook used by
// tests and the workload explorer.
func (t *Tree) Depth() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		d := n.depth
		if n.children != nil {
			for i := range n.children {
				if cd := walk(&n.children[i]); cd > d {
					d = cd
				}
			}
		}
		return d
	}
	return walk(t.root)
}
