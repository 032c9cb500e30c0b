package hoeffding

import "github.com/spatiotext/latest/internal/persist"

// SaveState serializes the tree: shape fingerprint, counters, then a
// preorder node walk. Observer maps are written in ascending attribute
// index order so the encoding is deterministic regardless of map iteration
// order. Node depths re-derive from the walk. Each node still carries two
// retired per-leaf tallies, written as zeros, and a presence flag before
// each observer map, written true, so images keep their layout.
func (t *Tree) SaveState(e *persist.Enc) {
	e.Int(len(t.attrs))
	e.Int(len(t.classes))
	e.Int(t.nodes)
	e.Int(t.instances)
	e.Int(t.splits)
	e.Int(t.resplits)
	t.saveNode(e, t.root)
}

func (t *Tree) saveNode(e *persist.Enc, n *node) {
	e.Bool(n.isLeaf())
	if !n.isLeaf() {
		e.Int(n.splitAttr)
		e.F64(n.threshold)
		e.Int(len(n.children))
	}
	e.F64s(n.classCounts)
	e.F64(n.seenAtSplit)
	e.F64(0) // retired per-leaf tallies
	e.F64(0)

	e.Bool(true) // nominal observers present
	e.Int(len(n.nominal))
	for ai := range t.attrs {
		obs := n.nominal[ai]
		if obs == nil {
			continue
		}
		e.Int(ai)
		e.Int(len(obs.counts))
		for _, row := range obs.counts {
			e.F64s(row)
		}
	}
	e.Bool(true) // numeric observers present
	e.Int(len(n.numeric))
	for ai := range t.attrs {
		obs := n.numeric[ai]
		if obs == nil {
			continue
		}
		e.Int(ai)
		for ci := range obs.perClass {
			g := &obs.perClass[ci]
			e.F64(g.n)
			e.F64(g.mean)
			e.F64(g.m2)
		}
		e.F64(obs.min)
		e.F64(obs.max)
		e.Bool(obs.seen)
	}
	if !n.isLeaf() {
		for _, c := range n.children {
			t.saveNode(e, c)
		}
	}
}

// LoadState restores a tree saved with the same attribute/class schema.
// The restore is atomic: the receiver is untouched on error.
func (t *Tree) LoadState(d *persist.Dec) error {
	const op = "hoeffding tree"
	attrs := d.Int()
	classes := d.Int()
	nodes := d.Int()
	instances := d.Int()
	splits := d.Int()
	resplits := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if attrs != len(t.attrs) || classes != len(t.classes) {
		return persist.Errf(persist.CodeMismatch, op,
			"schema %d attrs / %d classes, receiver has %d / %d",
			attrs, classes, len(t.attrs), len(t.classes))
	}
	if nodes < 1 {
		return persist.Errf(persist.CodeMalformed, op, "node count %d", nodes)
	}
	read := 1
	root, err := t.loadNode(d, 0, &read, nodes)
	if err != nil {
		return err
	}
	if read != nodes {
		return persist.Errf(persist.CodeMalformed, op, "%d nodes decoded, header says %d", read, nodes)
	}
	t.root, t.nodes, t.instances, t.splits, t.resplits = root, nodes, instances, splits, resplits
	return nil
}

func (t *Tree) loadNode(d *persist.Dec, depth int, read *int, limit int) (*node, error) {
	const op = "hoeffding node"
	if depth > t.cfg.MaxDepth {
		return nil, persist.Errf(persist.CodeMalformed, op, "depth exceeds max %d", t.cfg.MaxDepth)
	}
	leaf := d.Bool()
	splitAttr, childCount := 0, 0
	threshold := 0.0
	if !leaf {
		splitAttr = d.Int()
		threshold = d.F64()
		childCount = d.Int()
	}
	classCounts := d.F64s()
	seenAtSplit := d.F64()
	d.F64() // retired per-leaf tallies
	d.F64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(classCounts) != len(t.classes) {
		return nil, persist.Errf(persist.CodeMismatch, op, "%d class counts, tree has %d classes", len(classCounts), len(t.classes))
	}
	// Every node gets both maps, so Learn can observe at it; a presence
	// flag only says whether entries follow.
	n := &node{
		classCounts: classCounts,
		nominal:     make(map[int]*nominalObserver),
		numeric:     make(map[int]*numericObserver),
		seenAtSplit: seenAtSplit,
		depth:       depth,
	}
	if d.Bool() { // nominal observers present
		count := d.Int()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if count < 0 || count > len(t.attrs) {
			return nil, persist.Errf(persist.CodeMalformed, op, "%d nominal observers", count)
		}
		for i := 0; i < count; i++ {
			ai := d.Int()
			values := d.Int()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if ai < 0 || ai >= len(t.attrs) || t.attrs[ai].Kind != Nominal {
				return nil, persist.Errf(persist.CodeMalformed, op, "nominal observer on attribute %d", ai)
			}
			if values != t.attrs[ai].NumValues {
				return nil, persist.Errf(persist.CodeMismatch, op, "attribute %d has %d values, schema says %d", ai, values, t.attrs[ai].NumValues)
			}
			obs := &nominalObserver{counts: make([][]float64, values)}
			for v := 0; v < values; v++ {
				row := d.F64s()
				if d.Err() != nil {
					return nil, d.Err()
				}
				if len(row) != len(t.classes) {
					return nil, persist.Errf(persist.CodeMismatch, op, "observer row has %d classes, tree has %d", len(row), len(t.classes))
				}
				obs.counts[v] = row
			}
			n.nominal[ai] = obs
		}
	}
	if d.Bool() { // numeric observers present
		count := d.Int()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if count < 0 || count > len(t.attrs) {
			return nil, persist.Errf(persist.CodeMalformed, op, "%d numeric observers", count)
		}
		for i := 0; i < count; i++ {
			ai := d.Int()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if ai < 0 || ai >= len(t.attrs) || t.attrs[ai].Kind != Numeric {
				return nil, persist.Errf(persist.CodeMalformed, op, "numeric observer on attribute %d", ai)
			}
			obs := newNumericObserver(len(t.classes))
			for ci := range obs.perClass {
				obs.perClass[ci].n = d.F64()
				obs.perClass[ci].mean = d.F64()
				obs.perClass[ci].m2 = d.F64()
			}
			obs.min = d.F64()
			obs.max = d.F64()
			obs.seen = d.Bool()
			if d.Err() != nil {
				return nil, d.Err()
			}
			n.numeric[ai] = obs
		}
	}
	if leaf {
		return n, nil
	}
	if splitAttr < 0 || splitAttr >= len(t.attrs) {
		return nil, persist.Errf(persist.CodeMalformed, op, "split attribute %d of %d", splitAttr, len(t.attrs))
	}
	want := 2
	if t.attrs[splitAttr].Kind == Nominal {
		want = t.attrs[splitAttr].NumValues
	}
	if childCount != want {
		return nil, persist.Errf(persist.CodeMalformed, op, "%d children for attribute %d, want %d", childCount, splitAttr, want)
	}
	*read += childCount
	if *read > limit {
		return nil, persist.Errf(persist.CodeMalformed, op, "more nodes than the header's %d", limit)
	}
	n.splitAttr = splitAttr
	n.threshold = threshold
	n.children = make([]*node, childCount)
	for i := range n.children {
		child, err := t.loadNode(d, depth+1, read, limit)
		if err != nil {
			return nil, err
		}
		n.children[i] = child
	}
	return n, nil
}
