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
// fixed number of buckets of windowed counts. Each time slice logs the
// (node, bucket) cells it counted, so retiring the slice takes exactly those
// counts back out and no node holds a per-slice keyword ring. Bucket
// collisions make the per-keyword fractions approximate, which is faithful
// to AASP's observed behaviour in the paper: strong on spatially-clustered
// keyword correlations, weak on high-cardinality keyword workloads.
package asptree

import (
	"fmt"
	"math"

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

// Tree is a windowed AASP tree. Not safe for concurrent use.
type Tree struct {
	cfg Config
	columns
	nodes int
	cur   int // current slice index

	totalLive uint32
	synopsis  *kmv.Sliced // windowed distinct-keyword synopsis
}

// columns hold the quadtree's nodes as flat arrays indexed by node id. The
// root is id 0. A split gives the four children consecutive ids in
// geo.Rect.Quadrants order; a node either has all four children or none. A
// walk that reads one slice or one keyword bucket of many nodes finds it in
// one row of a slice-major or bucket-major array whose rows are stride ids
// long.
type columns struct {
	bounds []geo.Rect
	depth  []int32
	node   []node

	// slices[s*stride+id] counts points node id absorbed (not its
	// descendants) during time slice s; node[id].live caches the ring sum.
	slices []uint32

	// kwLog[s] logs the keyword occurrences counted during time slice s as
	// (cell, count) entries, cell = id*KeywordBuckets + b, so a node holds
	// no keyword memory of its own; kwLive[b*stride+id] sums the logs'
	// counts for node id and bucket b.
	kwLog  [][]uint32
	kwLive []uint32

	stride int     // ids every column holds
	top    int     // ids below top have been handed out
	free   []int32 // first ids of collapsed quartets, reused before top grows

	// degenerate records that a split produced an empty cell (subdivision
	// below floating-point resolution). An empty cell intersects nothing,
	// so EstimateKeywords must then take the walk that reads bounds.
	degenerate bool
}

// node is what every walk reads of a node, kept together so one visit
// touches one cache line: child is the first of its children's ids, or -1
// for a leaf, and live is the sum of its slice ring.
type node struct {
	child int32
	live  uint32
}

// A keyword log entry is one word, the cell, when it counts one
// occurrence, and two, kwRun|count then the cell, when it counts more.
// Cells stay below kwRun (New checks), so a word says which kind it is, and
// a log's last word is always a cell.
const kwRun = 1 << 31

// logCell counts one occurrence of cell into log: it bumps the last entry
// when that names cell, and appends an entry otherwise.
func logCell(log []uint32, cell uint32) []uint32 {
	k := len(log) - 1
	switch {
	case k < 0 || log[k] != cell:
		return append(log, cell)
	case k > 0 && log[k-1]&kwRun != 0:
		if log[k-1] == math.MaxUint32 {
			return append(log, cell)
		}
		log[k-1]++
		return log
	default:
		log[k] = kwRun | 2
		return append(log, cell)
	}
}

// logRun appends an entry counting n > 0 occurrences of cell.
func logRun(log []uint32, cell, n uint32) []uint32 {
	for ; n > kwRun-1; n -= kwRun - 1 {
		log = append(log, math.MaxUint32, cell)
	}
	if n > 1 {
		log = append(log, kwRun|n)
	}
	return append(log, cell)
}

// eachEntry calls fn with every entry of log.
func eachEntry(log []uint32, fn func(cell, n uint32)) {
	n := uint32(1)
	for _, w := range log {
		if w&kwRun != 0 {
			n = w &^ kwRun
			continue
		}
		fn(w, n)
		n = 1
	}
}

// synopsisK is the size of the windowed distinct-keyword synopsis.
const synopsisK = 256

// New creates an empty tree over the given world rectangle.
func New(world geo.Rect, cfg Config) *Tree {
	if world.Empty() || !world.Valid() {
		panic(fmt.Sprintf("asptree: invalid world %v", world))
	}
	c := cfg.withDefaults()
	if uint64(c.MaxNodes)*uint64(c.KeywordBuckets) > kwRun {
		panic(fmt.Sprintf("asptree: %d nodes × %d keyword buckets overflow a log cell", c.MaxNodes, c.KeywordBuckets))
	}
	t := &Tree{cfg: c, synopsis: kmv.NewSliced(synopsisK, c.Slices)}
	t.plant(world)
	return t
}

// plant replaces the columns with a lone root over world.
func (t *Tree) plant(world geo.Rect) {
	t.columns = columns{kwLog: make([][]uint32, t.cfg.Slices)}
	t.grow(1)
	t.top = 1
	t.initNode(0, world, 0)
	t.nodes = 1
}

// grow widens every column to at least need ids: by a quarter, so that a
// growing tree copies each count a bounded number of times, but never past
// MaxNodes, which no id reaches.
func (t *Tree) grow(need int) {
	n := max(need, min(t.stride+t.stride/4, t.cfg.MaxNodes))
	t.bounds = resized(t.bounds, n)
	t.depth = resized(t.depth, n)
	t.node = resized(t.node, n)
	t.slices = restrided(t.slices, t.stride, n, t.cfg.Slices)
	t.kwLive = restrided(t.kwLive, t.stride, n, t.cfg.KeywordBuckets)
	t.stride = n
}

func resized[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// restrided copies a rows × old row-major array into a rows × n one.
func restrided(m []uint32, old, n, rows int) []uint32 {
	out := make([]uint32, rows*n)
	for r := 0; r < rows; r++ {
		copy(out[r*n:], m[r*old:(r+1)*old])
	}
	return out
}

// initNode makes id an empty leaf. Its counters are zero already: a fresh
// id was never counted, and a quartet collapses only once it is empty.
func (t *Tree) initNode(id int32, bounds geo.Rect, depth int32) {
	t.bounds[id] = bounds
	t.depth[id] = depth
	t.node[id].child = -1
	if bounds.Empty() {
		t.degenerate = true
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
	id := int32(0)
	for t.node[id].child >= 0 {
		id = t.node[id].child + int32(t.bounds[id].QuadrantOf(p))
	}
	t.slices[t.cur*t.stride+int(id)]++
	t.node[id].live++
	t.totalLive++
	log := t.kwLog[t.cur]
	for _, kw := range kws {
		h := kmv.Hash64(kw)
		b := int(h % uint64(t.cfg.KeywordBuckets))
		log = logCell(log, uint32(int(id)*t.cfg.KeywordBuckets+b))
		t.kwLive[b*t.stride+int(id)]++
		t.synopsis.AddHash(h)
	}
	t.kwLog[t.cur] = log
	if int(t.node[id].live) > t.cfg.SplitThreshold &&
		int(t.depth[id]) < t.cfg.MaxDepth &&
		t.nodes+4 <= t.cfg.MaxNodes {
		t.split(id)
	}
}

// split attaches four empty children; the node keeps its absorbed counts.
func (t *Tree) split(id int32) {
	var c int32
	if k := len(t.free); k > 0 {
		c, t.free = t.free[k-1], t.free[:k-1]
	} else {
		if t.top+4 > t.stride {
			t.grow(t.top + 4)
		}
		c = int32(t.top)
		t.top += 4
	}
	quads := t.bounds[id].Quadrants()
	for i := range quads {
		t.initNode(c+int32(i), quads[i], t.depth[id]+1)
	}
	t.node[id].child = c
	t.nodes += 4
}

// AdvanceSlice rotates the window ring, retiring the oldest slice in every
// node, and collapses subtrees that have gone empty so the node budget is
// reclaimed for the stream's current hot spots.
func (t *Tree) AdvanceSlice() {
	t.cur = (t.cur + 1) % t.cfg.Slices
	t.retire()
	t.collapse(0)
	t.synopsis.Advance()
}

// retire zeroes the (new) current slice in every node, updating live
// caches, and takes the slice's keyword log back out of the bucket sums.
// The log keeps its array for the slice's next turn.
func (t *Tree) retire() {
	row := t.slices[t.cur*t.stride : t.cur*t.stride+t.top]
	for id, old := range row {
		if old == 0 {
			continue
		}
		row[id] = 0
		t.node[id].live -= old
		t.totalLive -= old
	}
	B := uint32(t.cfg.KeywordBuckets)
	eachEntry(t.kwLog[t.cur], func(cell, n uint32) {
		t.kwLive[int(cell%B)*t.stride+int(cell/B)] -= n
	})
	t.kwLog[t.cur] = t.kwLog[t.cur][:0]
}

// collapse removes child quartets whose subtrees hold no live counts,
// keeping their ids for the next split. A node with no live count was
// counted in no slice still in the ring, so no log names it. It returns the
// subtree's live total.
func (t *Tree) collapse(id int32) uint32 {
	c := t.node[id].child
	if c < 0 {
		return t.node[id].live
	}
	sub := uint32(0)
	for i := c; i < c+4; i++ {
		sub += t.collapse(i)
	}
	if sub == 0 {
		t.node[id].child = -1
		t.free = append(t.free, c)
		t.nodes -= 4
	}
	return t.node[id].live + sub
}

// EstimateRange estimates how many windowed points fall inside r, assuming
// points are uniform within each node's cell (the quadtree's adaptivity is
// what keeps that assumption tolerable).
func (t *Tree) EstimateRange(r geo.Rect) float64 {
	return t.estimate(0, r, nil)
}

// keywordRows maps query keywords to the offsets of their buckets' rows in
// kwLive once per query, so the tree walk hashes nothing. The result is
// non-nil exactly when kws is, which is how estimate tells "no keyword
// predicate" apart.
func (t *Tree) keywordRows(kws []string, buf []int) []int {
	if kws == nil {
		return nil
	}
	for _, kw := range kws {
		buf = append(buf, int(kmv.Hash64(kw)%uint64(t.cfg.KeywordBuckets))*t.stride)
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
	return t.estimate(0, r, t.keywordRows(kws, buf[:0]))
}

// EstimateKeywords estimates windowed points carrying at least one of kws,
// regardless of location. It is estimate over a range that covers the
// world: every cell lies wholly inside it, so each node counts in full and
// no bounds need be read — unless an empty cell exists, which estimate
// would skip.
func (t *Tree) EstimateKeywords(kws []string) float64 {
	var buf [8]int
	rows := t.keywordRows(kws, buf[:0])
	if t.degenerate {
		return t.estimate(0, t.bounds[0].Expand(1), rows)
	}
	return t.estimateAll(0, rows)
}

// estimateAll is estimate for a range containing the subtree; it adds the
// same terms in the same order, so the sum is bit-identical.
func (t *Tree) estimateAll(id int32, rows []int) float64 {
	est := float64(t.node[id].live)
	if rows != nil {
		est *= t.keywordFraction(id, rows)
	}
	if c := t.node[id].child; c >= 0 {
		for i := c; i < c+4; i++ {
			est += t.estimateAll(i, rows)
		}
	}
	return est
}

// estimate sums the subtree's contribution to range r; rows is the query's
// keyword rows, nil for no keyword predicate.
func (t *Tree) estimate(id int32, r geo.Rect, rows []int) float64 {
	b := &t.bounds[id]
	if !b.Intersects(r) {
		return 0
	}
	frac := 1.0
	if !r.ContainsRect(*b) {
		frac = r.Intersect(*b).Area() / b.Area()
	}
	est := float64(t.node[id].live) * frac
	if rows != nil {
		est *= t.keywordFraction(id, rows)
	}
	if c := t.node[id].child; c >= 0 {
		for i := c; i < c+4; i++ {
			est += t.estimate(i, r, rows)
		}
	}
	return est
}

// keywordFraction estimates the fraction of this node's own points matching
// any query keyword, as the capped sum of per-bucket frequencies. Bucket
// collisions and multi-keyword objects both bias this upward; the cap keeps
// it a probability.
func (t *Tree) keywordFraction(id int32, rows []int) float64 {
	live := t.node[id].live
	if live == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range rows {
		sum += float64(t.kwLive[row+int(id)])
	}
	frac := sum / float64(live)
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
	t.plant(t.bounds[0])
	t.cur = 0
	t.totalLive = 0
	t.synopsis = kmv.NewSliced(synopsisK, t.cfg.Slices)
}

// MemoryBytes is the tree's footprint for the memory-budget experiment:
// every column at the ids it holds, the free list, the keyword logs at
// their capacity and the synopsis.
func (t *Tree) MemoryBytes() int {
	perID := 32 + 4 + 8 + // bounds, depth, node
		4*t.cfg.Slices + // slice counts
		4*t.cfg.KeywordBuckets // kwLive
	b := 128 + t.stride*perID + 4*cap(t.free)
	for _, log := range t.kwLog {
		b += 24 + 4*cap(log)
	}
	return b + t.synopsis.MemoryBytes()
}

// Depth returns the maximum depth of any node, a diagnostics hook used by
// tests and the workload explorer.
func (t *Tree) Depth() int { return t.depthBelow(0) }

func (t *Tree) depthBelow(id int32) int {
	d := int(t.depth[id])
	if c := t.node[id].child; c >= 0 {
		for i := c; i < c+4; i++ {
			d = max(d, t.depthBelow(i))
		}
	}
	return d
}
