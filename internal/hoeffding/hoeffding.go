// Package hoeffding implements the incremental classifier at the heart of
// LATEST (§V-B): the Extremely Fast Decision Tree (EFDT, also called the
// Hoeffding Anytime Tree) of Manapragada et al., the paper's model
// reference [44], which extends the Very Fast Decision Tree of Domingos &
// Hulten ("Mining High-Speed Data Streams"). It is the only tree the
// package builds: information-gain splits, Majority Class leaf prediction,
// and WEKA's default grace period, delta and tie threshold.
//
// The tree learns from a stream of labelled instances in constant time per
// instance. Every node an instance passes through accumulates sufficient
// statistics — per-value class counts for nominal attributes, per-class
// Gaussians for numeric ones — and is re-examined every GracePeriod
// instances. A leaf splits on the best attribute when its information gain
// beats the runner-up by the Hoeffding bound ε = sqrt(R²·ln(1/δ) / 2n), or
// when the two are tied within TieThreshold. An internal node keeps its
// statistics and replaces its subtree when another attribute's gain beats
// the installed split's by ε, so the tree revises early decisions under
// drift instead of waiting for a full rebuild.
package hoeffding

import (
	"fmt"
	"math"
)

// AttributeKind distinguishes nominal from numeric attributes.
type AttributeKind int

const (
	// Nominal attributes take one of a fixed set of values, encoded as the
	// value's index.
	Nominal AttributeKind = iota
	// Numeric attributes are real-valued.
	Numeric
)

// Attribute describes one feature column.
type Attribute struct {
	Name string
	Kind AttributeKind
	// NumValues is the domain size for nominal attributes (ignored for
	// numeric ones).
	NumValues int
}

// Config holds the tree's hyper-parameters. Zero values take the WEKA
// defaults quoted in the comments.
type Config struct {
	// GracePeriod is the number of instances a node absorbs between split
	// attempts. WEKA default: 200.
	GracePeriod int
	// TieThreshold breaks near-ties: if ε falls below it, the best
	// attribute splits even without dominating the runner-up. WEKA
	// default: 0.05.
	TieThreshold float64
	// MaxDepth caps tree depth (0 = 32).
	MaxDepth int
}

const (
	// delta is the Hoeffding bound's confidence parameter (probability of
	// choosing the wrong attribute), WEKA's default.
	delta = 1e-7
	// numCandidates is how many thresholds a numeric attribute evaluates
	// between its observed min and max.
	numCandidates = 10
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.GracePeriod <= 0 {
		out.GracePeriod = 200
	}
	if out.TieThreshold <= 0 {
		out.TieThreshold = 0.05
	}
	if out.MaxDepth <= 0 {
		out.MaxDepth = 32
	}
	return out
}

// gaussian is a per-class running Gaussian estimator (Welford).
type gaussian struct {
	n    float64
	mean float64
	m2   float64
}

func (g *gaussian) add(v float64) {
	g.n++
	d := v - g.mean
	g.mean += d / g.n
	g.m2 += d * (v - g.mean)
}

func (g *gaussian) variance() float64 {
	if g.n < 2 {
		return 0
	}
	return g.m2 / (g.n - 1)
}

// cdf is the Gaussian CDF at v.
func (g *gaussian) cdf(v float64) float64 {
	if g.n == 0 {
		return 0.5
	}
	sd := math.Sqrt(g.variance())
	if sd < 1e-12 {
		if v < g.mean {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((v-g.mean)/(sd*math.Sqrt2)))
}

// nominalObserver tracks counts[value][class].
type nominalObserver struct {
	counts [][]float64
}

func newNominalObserver(values, classes int) *nominalObserver {
	c := make([][]float64, values)
	for i := range c {
		c[i] = make([]float64, classes)
	}
	return &nominalObserver{counts: c}
}

func (o *nominalObserver) observe(value int, class int) {
	if value < 0 {
		value = 0
	}
	if value >= len(o.counts) {
		value = len(o.counts) - 1
	}
	o.counts[value][class]++
}

// numericObserver tracks per-class Gaussians plus the global value range.
type numericObserver struct {
	perClass []gaussian
	min, max float64
	seen     bool
}

func newNumericObserver(classes int) *numericObserver {
	return &numericObserver{perClass: make([]gaussian, classes)}
}

func (o *numericObserver) observe(v float64, class int) {
	o.perClass[class].add(v)
	if !o.seen {
		o.min, o.max, o.seen = v, v, true
	} else {
		if v < o.min {
			o.min = v
		}
		if v > o.max {
			o.max = v
		}
	}
}

// node is a tree node: a leaf or an internal split. Both kinds keep their
// counts and observers, so an internal node can re-test its split.
type node struct {
	// Split fields (internal nodes).
	splitAttr int
	threshold float64 // numeric splits: left if v <= threshold
	children  []*node // nominal: one per value; numeric: [left, right]

	// Statistics.
	classCounts []float64
	nominal     map[int]*nominalObserver
	numeric     map[int]*numericObserver
	seenAtSplit float64 // instances seen at the last split attempt
	depth       int
}

func (n *node) isLeaf() bool { return n.children == nil }

func (n *node) total() float64 {
	t := 0.0
	for _, c := range n.classCounts {
		t += c
	}
	return t
}

// majority returns the index of the most frequent class at the leaf, or -1
// for an empty leaf.
func (n *node) majority() int {
	best, bestC := -1, 0.0
	for i, c := range n.classCounts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	return best
}

// Tree is the EFDT classifier. Not safe for concurrent use.
type Tree struct {
	cfg     Config
	attrs   []Attribute
	classes []string
	root    *node

	nodes     int
	instances int
	splits    int
	resplits  int
}

// New creates an empty tree. Attributes and classes are fixed for the
// tree's lifetime; classes must be non-empty and nominal attributes need at
// least two values.
func New(attrs []Attribute, classes []string, cfg Config) *Tree {
	if len(classes) < 2 {
		panic(fmt.Sprintf("hoeffding: need at least 2 classes, got %d", len(classes)))
	}
	for _, a := range attrs {
		if a.Kind == Nominal && a.NumValues < 2 {
			panic(fmt.Sprintf("hoeffding: nominal attribute %q needs ≥2 values", a.Name))
		}
	}
	t := &Tree{cfg: cfg.withDefaults(), attrs: attrs, classes: classes}
	t.root = t.newLeaf(0)
	t.nodes = 1
	return t
}

func (t *Tree) newLeaf(depth int) *node {
	return &node{
		classCounts: make([]float64, len(t.classes)),
		nominal:     make(map[int]*nominalObserver),
		numeric:     make(map[int]*numericObserver),
		depth:       depth,
	}
}

// NodeCount returns the number of tree nodes.
func (t *Tree) NodeCount() int { return t.nodes }

// Splits returns how many leaf splits have occurred.
func (t *Tree) Splits() int { return t.splits }

// Resplits returns how many internal-node split revisions have occurred.
func (t *Tree) Resplits() int { return t.resplits }

// Instances returns how many training instances the tree has absorbed.
func (t *Tree) Instances() int { return t.instances }

// sortToLeaf routes an instance to its leaf.
func (t *Tree) sortToLeaf(x []float64) *node {
	n := t.root
	for !n.isLeaf() {
		n = n.children[t.routeIndex(n, x)]
	}
	return n
}

// Learn absorbs one labelled instance. x must have one entry per attribute
// (nominal entries are value indices); class is the label index. The
// instance updates the statistics of every node it passes through; a due
// leaf attempts a split and a due internal node re-tests its split.
func (t *Tree) Learn(x []float64, class int) {
	if len(x) != len(t.attrs) {
		panic(fmt.Sprintf("hoeffding: instance has %d attributes, tree expects %d", len(x), len(t.attrs)))
	}
	if class < 0 || class >= len(t.classes) {
		panic(fmt.Sprintf("hoeffding: class %d out of range [0,%d)", class, len(t.classes)))
	}
	t.instances++
	n := t.root
	for {
		t.observeAt(n, x, class)
		due := n.total()-n.seenAtSplit >= float64(t.cfg.GracePeriod)
		if n.isLeaf() {
			if due && n.depth < t.cfg.MaxDepth {
				t.attemptSplit(n)
			}
			return
		}
		if due {
			t.reevaluate(n)
		}
		n = n.children[t.routeIndex(n, x)]
	}
}

// observeAt folds one instance into a node's counts and observers.
func (t *Tree) observeAt(n *node, x []float64, class int) {
	n.classCounts[class]++
	for ai, attr := range t.attrs {
		if attr.Kind == Nominal {
			obs := n.nominal[ai]
			if obs == nil {
				obs = newNominalObserver(attr.NumValues, len(t.classes))
				n.nominal[ai] = obs
			}
			obs.observe(int(x[ai]), class)
		} else {
			obs := n.numeric[ai]
			if obs == nil {
				obs = newNumericObserver(len(t.classes))
				n.numeric[ai] = obs
			}
			obs.observe(x[ai], class)
		}
	}
}

// routeIndex picks the child index an instance follows at an internal node.
func (t *Tree) routeIndex(n *node, x []float64) int {
	if t.attrs[n.splitAttr].Kind == Nominal {
		idx := int(x[n.splitAttr])
		if idx < 0 {
			idx = 0
		}
		if idx >= len(n.children) {
			idx = len(n.children) - 1
		}
		return idx
	}
	if x[n.splitAttr] <= n.threshold {
		return 0
	}
	return 1
}

// reevaluate re-tests an internal node's split: when a different
// attribute's gain now dominates the installed one by the Hoeffding bound,
// the stale subtree is discarded and the node re-splits on the winner.
func (t *Tree) reevaluate(n *node) {
	n.seenAtSplit = n.total()
	baseEntropy := entropy(n.classCounts)
	if baseEntropy == 0 {
		return
	}
	var best candidate
	var current candidate
	for ai, attr := range t.attrs {
		var c candidate
		if attr.Kind == Nominal {
			c = t.nominalCandidate(n, ai, baseEntropy)
		} else {
			c = t.numericCandidate(n, ai, baseEntropy)
		}
		if ai == n.splitAttr {
			current = c
		}
		if !c.valid {
			continue
		}
		if !best.valid || c.gain > best.gain {
			best = c
		}
	}
	if !best.valid || best.attr == n.splitAttr {
		return
	}
	currentGain := 0.0
	if current.valid {
		currentGain = current.gain
	}
	total := n.total()
	r := math.Log2(float64(len(t.classes)))
	eps := math.Sqrt(r * r * math.Log(1/delta) / (2 * total))
	if best.gain-currentGain <= eps {
		return
	}
	// Kill the stale subtree and re-split on the winner.
	t.nodes -= t.subtreeSize(n) - 1
	n.children = nil
	t.split(n, best)
	t.resplits++
}

// subtreeSize counts the nodes rooted at n (including n).
func (t *Tree) subtreeSize(n *node) int {
	if n.isLeaf() {
		return 1
	}
	total := 1
	for _, c := range n.children {
		total += t.subtreeSize(c)
	}
	return total
}

// Predict classifies an instance as the majority class of its leaf, or -1
// when the leaf has seen nothing: no evidence names no class.
func (t *Tree) Predict(x []float64) int {
	return t.sortToLeaf(x).majority()
}

// PredictProba returns the normalized class distribution at the instance's
// leaf, all zeros for a leaf that has seen nothing.
func (t *Tree) PredictProba(x []float64) []float64 {
	leaf := t.sortToLeaf(x)
	out := make([]float64, len(t.classes))
	if total := leaf.total(); total > 0 {
		for i, c := range leaf.classCounts {
			out[i] = c / total
		}
	}
	return out
}

// candidate is a potential split of one attribute.
type candidate struct {
	attr      int
	gain      float64
	threshold float64 // numeric only
	valid     bool
}

// attemptSplit evaluates the Hoeffding bound at a leaf.
func (t *Tree) attemptSplit(leaf *node) {
	leaf.seenAtSplit = leaf.total()
	baseEntropy := entropy(leaf.classCounts)
	if baseEntropy == 0 {
		return // pure leaf: nothing to gain
	}
	best, second := candidate{}, candidate{}
	for ai, attr := range t.attrs {
		var c candidate
		if attr.Kind == Nominal {
			c = t.nominalCandidate(leaf, ai, baseEntropy)
		} else {
			c = t.numericCandidate(leaf, ai, baseEntropy)
		}
		if !c.valid {
			continue
		}
		if c.gain > best.gain || !best.valid {
			second = best
			best = c
		} else if c.gain > second.gain || !second.valid {
			second = c
		}
	}
	if !best.valid || best.gain <= 0 {
		return
	}
	n := leaf.total()
	r := math.Log2(float64(len(t.classes)))
	eps := math.Sqrt(r * r * math.Log(1/delta) / (2 * n))
	secondGain := 0.0
	if second.valid {
		secondGain = second.gain
	}
	if best.gain-secondGain > eps || eps < t.cfg.TieThreshold {
		t.split(leaf, best)
	}
}

// nominalCandidate computes the info gain of a multiway nominal split.
func (t *Tree) nominalCandidate(leaf *node, ai int, baseEntropy float64) candidate {
	obs := leaf.nominal[ai]
	if obs == nil {
		return candidate{}
	}
	total := leaf.total()
	weighted := 0.0
	nonEmpty := 0
	for _, counts := range obs.counts {
		sub := 0.0
		for _, c := range counts {
			sub += c
		}
		if sub == 0 {
			continue
		}
		nonEmpty++
		weighted += sub / total * entropy(counts)
	}
	if nonEmpty < 2 {
		return candidate{} // splitting on a constant attribute is useless
	}
	return candidate{attr: ai, gain: baseEntropy - weighted, valid: true}
}

// numericCandidate evaluates equally spaced thresholds between the observed
// min and max, estimating the class distribution on each side from the
// per-class Gaussians (WEKA's Gaussian approximation).
func (t *Tree) numericCandidate(leaf *node, ai int, baseEntropy float64) candidate {
	obs := leaf.numeric[ai]
	if obs == nil || !obs.seen || obs.max <= obs.min {
		return candidate{}
	}
	total := leaf.total()
	bestGain, bestThresh := -1.0, 0.0
	left := make([]float64, len(t.classes))
	right := make([]float64, len(t.classes))
	for i := 1; i <= numCandidates; i++ {
		thresh := obs.min + (obs.max-obs.min)*float64(i)/(numCandidates+1)
		lTot, rTot := 0.0, 0.0
		for cls := range t.classes {
			g := &obs.perClass[cls]
			below := g.n * g.cdf(thresh)
			left[cls] = below
			right[cls] = g.n - below
			lTot += below
			rTot += g.n - below
		}
		if lTot < 1 || rTot < 1 {
			continue
		}
		gain := baseEntropy - (lTot/total*entropy(left) + rTot/total*entropy(right))
		if gain > bestGain {
			bestGain, bestThresh = gain, thresh
		}
	}
	if bestGain < 0 {
		return candidate{}
	}
	return candidate{attr: ai, gain: bestGain, threshold: bestThresh, valid: true}
}

// split converts a leaf into an internal node. Children start with the
// parent's class distribution projected through the observer so Majority
// Class predictions stay sensible immediately after the split.
func (t *Tree) split(leaf *node, c candidate) {
	attr := t.attrs[c.attr]
	var children []*node
	if attr.Kind == Nominal {
		obs := leaf.nominal[c.attr]
		children = make([]*node, attr.NumValues)
		for v := range children {
			child := t.newLeaf(leaf.depth + 1)
			if obs != nil {
				copy(child.classCounts, obs.counts[v])
			}
			children[v] = child
		}
	} else {
		obs := leaf.numeric[c.attr]
		lo, hi := t.newLeaf(leaf.depth+1), t.newLeaf(leaf.depth+1)
		for cls := range t.classes {
			g := &obs.perClass[cls]
			below := g.n * g.cdf(c.threshold)
			lo.classCounts[cls] = below
			hi.classCounts[cls] = g.n - below
		}
		children = []*node{lo, hi}
	}
	leaf.children = children
	leaf.splitAttr = c.attr
	leaf.threshold = c.threshold
	t.nodes += len(children)
	t.splits++
}

// entropy is Shannon entropy in bits of an unnormalized count vector.
func entropy(counts []float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Depth returns the maximum leaf depth.
func (t *Tree) Depth() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n.isLeaf() {
			return n.depth
		}
		d := n.depth
		for _, c := range n.children {
			if cd := walk(c); cd > d {
				d = cd
			}
		}
		return d
	}
	return walk(t.root)
}
