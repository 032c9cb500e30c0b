package asptree

import (
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/kmv"
	"github.com/spatiotext/latest/internal/persist"
)

// refTree is the tree as it was before the flat columns: quadtree nodes
// joined by pointers, each with its own slice, keyword and bucket-sum
// arrays. The differential test drives it beside Tree, which must agree to
// the bit — estimates, NodeCount, Live, Depth, image — because the columns
// claim to change only where the counts live; the heap test holds Tree's
// footprint to this one's.

type refNode struct {
	bounds   geo.Rect
	depth    int
	children *[4]refNode
	slices   []uint32
	live     uint32
	kw       []uint32
	kwLive   []uint32
}

type refTree struct {
	cfg       Config
	root      *refNode
	nodes     int
	cur       int
	totalLive uint32
	synopsis  *kmv.Sliced
}

func newRefTree(world geo.Rect, cfg Config) *refTree {
	c := cfg.withDefaults()
	t := &refTree{cfg: c, synopsis: kmv.NewSliced(synopsisK, c.Slices)}
	t.root = t.newNode(world, 0)
	t.nodes = 1
	return t
}

func (t *refTree) newNode(bounds geo.Rect, depth int) *refNode {
	return &refNode{
		bounds: bounds,
		depth:  depth,
		slices: make([]uint32, t.cfg.Slices),
		kw:     make([]uint32, t.cfg.KeywordBuckets*t.cfg.Slices),
		kwLive: make([]uint32, t.cfg.KeywordBuckets),
	}
}

func (t *refTree) NodeCount() int { return t.nodes }

func (t *refTree) Live() int { return int(t.totalLive) }

func (t *refTree) Insert(p geo.Point, kws []string) {
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
		quads := n.bounds.Quadrants()
		var ch [4]refNode
		for i := range ch {
			ch[i] = *t.newNode(quads[i], n.depth+1)
		}
		n.children = &ch
		t.nodes += 4
	}
}

func (t *refTree) AdvanceSlice() {
	t.cur = (t.cur + 1) % t.cfg.Slices
	t.retire(t.root)
	t.collapse(t.root)
	t.synopsis.Advance()
}

func (t *refTree) retire(n *refNode) {
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

func (t *refTree) collapse(n *refNode) uint32 {
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

func (t *refTree) EstimateRange(r geo.Rect) float64 {
	return t.estimate(t.root, r, nil)
}

func (t *refTree) EstimateRangeKeywords(r geo.Rect, kws []string) float64 {
	if len(kws) == 0 {
		return t.EstimateRange(r)
	}
	return t.estimate(t.root, r, refBuckets(t.cfg, kws))
}

func (t *refTree) EstimateKeywords(kws []string) float64 {
	return t.estimate(t.root, t.root.bounds.Expand(1), refBuckets(t.cfg, kws))
}

func refBuckets(cfg Config, kws []string) []int {
	if kws == nil {
		return nil
	}
	out := []int{}
	for _, kw := range kws {
		out = append(out, int(kmv.Hash64(kw)%uint64(cfg.KeywordBuckets)))
	}
	return out
}

func (t *refTree) estimate(n *refNode, r geo.Rect, kwb []int) float64 {
	if !n.bounds.Intersects(r) {
		return 0
	}
	frac := 1.0
	if !r.ContainsRect(n.bounds) {
		frac = r.Intersect(n.bounds).Area() / n.bounds.Area()
	}
	est := float64(n.live) * frac
	if kwb != nil {
		est *= refKeywordFraction(n, kwb)
	}
	if n.children != nil {
		for i := range n.children {
			est += t.estimate(&n.children[i], r, kwb)
		}
	}
	return est
}

func refKeywordFraction(n *refNode, kwb []int) float64 {
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

func (t *refTree) Reset() {
	t.root = t.newNode(t.root.bounds, 0)
	t.nodes = 1
	t.cur = 0
	t.totalLive = 0
	t.synopsis = kmv.NewSliced(synopsisK, t.cfg.Slices)
}

func (t *refTree) Depth() int {
	var walk func(n *refNode) int
	walk = func(n *refNode) int {
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

func (t *refTree) SaveState(e *persist.Enc) {
	e.Int(t.nodes)
	e.Int(t.cur)
	e.U32(t.totalLive)
	refSaveNode(e, t.root)
	t.synopsis.SaveState(e)
}

func refSaveNode(e *persist.Enc, n *refNode) {
	e.Bool(n.children != nil)
	e.U32s(n.slices)
	e.U32(n.live)
	e.U32s(n.kw)
	e.U32s(n.kwLive)
	if n.children != nil {
		for i := range n.children {
			refSaveNode(e, &n.children[i])
		}
	}
}
