package asptree

import (
	"github.com/spatiotext/latest/internal/kmv"
	"github.com/spatiotext/latest/internal/persist"
)

// SaveState serializes the tree: counters, a preorder walk of the nodes,
// then the keyword synopsis. Node bounds and depths are not written — they
// re-derive deterministically from the world rectangle via Quadrants on
// load, because a node either has all four children or none.
func (t *Tree) SaveState(e *persist.Enc) {
	e.Int(t.nodes)
	e.Int(t.cur)
	e.U32(t.totalLive)
	w := nodeWriter{
		buf:  make([]uint32, max(t.cfg.Slices, t.cfg.KeywordBuckets)),
		ring: make([]uint32, t.cfg.KeywordBuckets*t.cfg.Slices),
	}
	w.off, w.at = t.logsByNode()
	t.saveNode(e, 0, &w)
	t.synopsis.SaveState(e)
}

// nodeWriter is saveNode's scratch: buf gathers a column, ring a node's
// keyword ring, and the logs' entries for node id are at[off[id]:off[id+1]].
type nodeWriter struct {
	buf, ring []uint32
	off       []int32
	at        []ringCount
}

// ringCount is n occurrences counted at index i of a node's keyword ring.
type ringCount struct{ i, n uint32 }

// logsByNode groups the keyword logs' entries by node with a counting
// sort, each as the ring index b*Slices + s it counts at.
func (t *Tree) logsByNode() (off []int32, at []ringCount) {
	B, S := uint32(t.cfg.KeywordBuckets), uint32(t.cfg.Slices)
	off = make([]int32, t.top+1)
	for _, log := range t.kwLog {
		eachEntry(log, func(cell, _ uint32) { off[cell/B+1]++ })
	}
	for id := 1; id <= t.top; id++ {
		off[id] += off[id-1]
	}
	at = make([]ringCount, off[t.top])
	next := append([]int32(nil), off[:t.top]...)
	for s, log := range t.kwLog {
		eachEntry(log, func(cell, n uint32) {
			id := cell / B
			at[next[id]] = ringCount{i: cell%B*S + uint32(s), n: n}
			next[id]++
		})
	}
	return off, at
}

// saveNode writes the subtree at id in preorder, each node's rings in the
// order of a node that owns its arrays.
func (t *Tree) saveNode(e *persist.Enc, id int32, w *nodeWriter) {
	c := t.node[id].child
	e.Bool(c >= 0)
	e.U32s(t.gather(t.slices, t.cfg.Slices, id, w.buf))
	e.U32(t.node[id].live)
	clear(w.ring)
	for _, x := range w.at[w.off[id]:w.off[id+1]] {
		w.ring[x.i] += x.n
	}
	e.U32s(w.ring)
	e.U32s(t.gather(t.kwLive, t.cfg.KeywordBuckets, id, w.buf))
	if c >= 0 {
		for i := c; i < c+4; i++ {
			t.saveNode(e, i, w)
		}
	}
}

// gather copies node id's entries of a rows × stride array into buf.
func (t *Tree) gather(m []uint32, rows int, id int32, buf []uint32) []uint32 {
	buf = buf[:rows]
	for r := range buf {
		buf[r] = m[r*t.stride+int(id)]
	}
	return buf
}

// LoadState restores a tree saved under the same Config and world
// rectangle. The restore is atomic: the receiver is untouched on error.
func (t *Tree) LoadState(d *persist.Dec) error {
	const op = "asp tree"
	nodes := d.Int()
	cur := d.Int()
	totalLive := d.U32()
	if d.Err() != nil {
		return d.Err()
	}
	if cur < 0 || cur >= t.cfg.Slices {
		return persist.Errf(persist.CodeMalformed, op, "slice %d of %d", cur, t.cfg.Slices)
	}
	if nodes < 1 || nodes > t.cfg.MaxNodes {
		return persist.Errf(persist.CodeMalformed, op, "node count %d (cap %d)", nodes, t.cfg.MaxNodes)
	}
	nt := &Tree{cfg: t.cfg}
	nt.plant(t.bounds[0])
	liveSum := uint32(0)
	if err := nt.loadNode(d, 0, nodes, &liveSum); err != nil {
		return err
	}
	if nt.nodes != nodes {
		return persist.Errf(persist.CodeMalformed, op, "%d nodes decoded, header says %d", nt.nodes, nodes)
	}
	if liveSum != totalLive {
		return persist.Errf(persist.CodeMalformed, op, "live sum %d, header says %d", liveSum, totalLive)
	}
	syn := kmv.NewSliced(synopsisK, t.cfg.Slices)
	if err := syn.LoadState(d); err != nil {
		return err
	}
	t.columns, t.nodes, t.cur, t.totalLive, t.synopsis = nt.columns, nodes, cur, totalLive, syn
	return nil
}

// loadNode decodes the subtree at id, splitting as the image says, and logs
// one entry per non-zero keyword cell. Every cache must equal the sum it
// caches, and a slice with no points must hold no keyword counts: a node
// with no live count can collapse and hand its id to a new node, which a
// log entry left behind would then be retired from.
func (t *Tree) loadNode(d *persist.Dec, id int32, limit int, liveSum *uint32) error {
	const op = "asp node"
	hasChildren := d.Bool()
	slices := d.U32s()
	live := d.U32()
	kw := d.U32s()
	kwLive := d.U32s()
	if d.Err() != nil {
		return d.Err()
	}
	S, B := t.cfg.Slices, t.cfg.KeywordBuckets
	if len(slices) != S || len(kw) != B*S || len(kwLive) != B {
		return persist.Errf(persist.CodeMismatch, op,
			"ring shapes %d/%d/%d, config wants %d/%d/%d",
			len(slices), len(kw), len(kwLive), S, B*S, B)
	}
	if sum := sum64(slices); sum != uint64(live) {
		return persist.Errf(persist.CodeMalformed, op, "slices sum to %d, live says %d", sum, live)
	}
	for b, want := range kwLive {
		if sum := sum64(kw[b*S : (b+1)*S]); sum != uint64(want) {
			return persist.Errf(persist.CodeMalformed, op, "bucket %d sums to %d, cache says %d", b, sum, want)
		}
	}
	for s, v := range slices {
		for b := 0; v == 0 && b < B; b++ {
			if k := kw[b*S+s]; k != 0 {
				return persist.Errf(persist.CodeMalformed, op, "bucket %d counts %d in slice %d, which holds no point", b, k, s)
			}
		}
	}
	for s, v := range slices {
		t.slices[s*t.stride+int(id)] = v
	}
	t.node[id].live = live
	*liveSum += live
	for b := 0; b < B; b++ {
		for s, k := range kw[b*S : (b+1)*S] {
			if k != 0 {
				t.kwLog[s] = logRun(t.kwLog[s], uint32(int(id)*B+b), k)
			}
		}
	}
	for b, v := range kwLive {
		t.kwLive[b*t.stride+int(id)] = v
	}
	if !hasChildren {
		return nil
	}
	if int(t.depth[id]) >= t.cfg.MaxDepth {
		return persist.Errf(persist.CodeMalformed, op, "children below max depth %d", t.cfg.MaxDepth)
	}
	if t.nodes+4 > limit {
		return persist.Errf(persist.CodeMalformed, op, "more nodes than the header's %d", limit)
	}
	t.split(id)
	c := t.node[id].child
	for i := c; i < c+4; i++ {
		if err := t.loadNode(d, i, limit, liveSum); err != nil {
			return err
		}
	}
	return nil
}

func sum64(vs []uint32) uint64 {
	s := uint64(0)
	for _, v := range vs {
		s += uint64(v)
	}
	return s
}
