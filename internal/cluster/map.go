// Package cluster is the multi-node serving layer: a versioned spatial
// partition map assigning uniform grid cells over the world rectangle to
// nodes, a router that fans feeds and queries out to the owning nodes with
// exact scatter-gather aggregation, and a wire-speaking proxy front end
// (cmd/latest-router) so unmodified clients talk to a cluster exactly as
// they talk to one latestd.
//
// Exactness rests on two invariants. First, every object lives on exactly
// one node: the map routes a point to the geo.Grid cell it locates in,
// clamping out-of-world points onto the boundary cells. Second, a
// multi-owner query is clipped at interior partition boundaries only — the
// clip rectangles use the grid's cell edges, which are derived from that
// locate, and extend to the query's own edges at the world border — so the
// per-node sub-rectangles are disjoint, cover the query exactly, and agree
// bit-for-bit with object placement. Window counts depend only on the
// query timestamp (execution evicts to q.Timestamp - span before
// counting), so summing per-node counts over disjoint object sets equals
// the single-node answer exactly.
package cluster

import (
	"fmt"
	"hash/crc32"
	"math"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
)

// mapMagic and mapVersion frame the serialized partition map.
var mapMagic = [4]byte{'L', 'M', 'A', 'P'}

const mapVersion = 1

// maxCells bounds a decoded grid so a corrupt cell count cannot drive a
// huge allocation; 1M cells is far beyond any deployment this package
// targets.
const maxCells = 1 << 20

// Map is a versioned spatial partition map: a Cols×Rows uniform grid over
// the world rectangle, each cell owned by one node. Maps are immutable
// after construction (Uniform or DecodeMap); a new assignment is a new Map
// with a higher Epoch.
type Map struct {
	// Epoch orders map versions; a node refusing a request as not-owner
	// reports its epoch so a stale router knows to refetch.
	Epoch uint64
	// World is the partitioned region. Out-of-world points clamp onto the
	// boundary cells, exactly as the engines' grid estimators do.
	World geo.Rect
	Cols  int
	Rows  int
	// Owners holds the owning node index of each cell, row-major
	// (cell = row*Cols + col).
	Owners []int32
	// Nodes holds the wire-protocol addresses, indexed by owner.
	Nodes []string

	// grid locates points and plans ranges over the Cols×Rows cells.
	grid *geo.Grid
}

// Uniform builds a map assigning contiguous column stripes to nodes:
// cell (col, row) belongs to node col*len(nodes)/cols. Stripes keep each
// node's territory a single rectangle, which maximizes the single-owner
// fast path for small query rects.
func Uniform(world geo.Rect, cols, rows int, nodes []string, epoch uint64) (*Map, error) {
	m := &Map{Epoch: epoch, World: world, Cols: cols, Rows: rows, Nodes: nodes}
	if cols > 0 && rows > 0 && cols*rows <= maxCells {
		m.Owners = make([]int32, cols*rows)
		for row := 0; row < rows; row++ {
			for col := 0; col < cols; col++ {
				m.Owners[row*cols+col] = int32(col * len(nodes) / cols)
			}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks structural invariants and builds the cell grid.
// Constructors call it; hand-assembled maps (tests) must call it before
// use.
func (m *Map) Validate() error {
	if m.Cols <= 0 || m.Rows <= 0 {
		return fmt.Errorf("cluster: map grid %dx%d not positive", m.Cols, m.Rows)
	}
	if m.Cols*m.Rows > maxCells {
		return fmt.Errorf("cluster: map grid %dx%d exceeds %d cells", m.Cols, m.Rows, maxCells)
	}
	if m.World.Empty() || !m.World.Valid() {
		return fmt.Errorf("cluster: map world %v empty or invalid", m.World)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: map has no nodes")
	}
	if len(m.Owners) != m.Cols*m.Rows {
		return fmt.Errorf("cluster: map has %d owners for %d cells", len(m.Owners), m.Cols*m.Rows)
	}
	for i, o := range m.Owners {
		if o < 0 || int(o) >= len(m.Nodes) {
			return fmt.Errorf("cluster: cell %d owned by node %d, have %d nodes", i, o, len(m.Nodes))
		}
	}
	m.grid = geo.NewGrid(m.World, m.Cols, m.Rows)
	return nil
}

// OwnerOf returns the node index owning point p, clamping out-of-world
// points onto the boundary cells.
func (m *Map) OwnerOf(p geo.Point) int { return int(m.Owners[m.grid.CellOf(p)]) }

// Align rounds range r outward onto the lattice of the map's world (see
// geo.Lattice.Align). A node's engine over its territory snaps on a
// lattice that refines the map's, so a range aligned here counts the same
// objects on every node, and in sum, as on one engine over the world.
func (m *Map) Align(r geo.Rect) geo.Rect { return m.grid.Lattice().Align(r) }

// OwnsPoint reports whether node owns point p.
func (m *Map) OwnsPoint(node int, p geo.Point) bool { return m.OwnerOf(p) == node }

// Territory returns the bounding rectangle of the cells node owns — one
// stripe for a Uniform map — or an empty Rect when it owns none. A node's
// engine covers it, so the node's summaries spend nothing on space the
// node never stores.
func (m *Map) Territory(node int) geo.Rect {
	var t geo.Rect
	for i, o := range m.Owners {
		if int(o) == node {
			t = t.Union(m.grid.CellRect(i))
		}
	}
	return t
}

// NodeClips is one node's share of a scattered query: disjoint clip
// rectangles covering the cells the node owns within the query rect.
type NodeClips struct {
	Node  int
	Rects []geo.Rect
}

// PlanQuery classifies a range query rect against the map. When every cell
// the rect overlaps — out-of-world extents clamp onto the boundary cells,
// exactly as points do — has one owner, it returns (owner, nil): forward
// the query unmodified. Otherwise it returns (-1, parts): per-node disjoint
// clips whose per-node counts sum to the unpartitioned answer.
//
// Clips cut only at interior partition boundaries. A clip bordering the
// world edge extends to the query's own edge on that side, so out-of-world
// points — clamped onto boundary cells for placement — stay in the clip of
// the node that stores them.
func (m *Map) PlanQuery(r geo.Rect) (owner int, parts []NodeClips) {
	cr := m.grid.Span(r)
	colMin, colMax, rowMin, rowMax := cr.ColMin, cr.ColMax, cr.RowMin, cr.RowMax

	first := m.Owners[rowMin*m.Cols+colMin]
	single := true
	for row := rowMin; row <= rowMax && single; row++ {
		for col := colMin; col <= colMax; col++ {
			if m.Owners[row*m.Cols+col] != first {
				single = false
				break
			}
		}
	}
	if single {
		return int(first), nil
	}

	// Scatter: horizontal runs of same-owner cells per row, merged
	// vertically when adjacent rows produce an identical column range for
	// the same owner — a stripe map yields one rect per node.
	type strip struct {
		owner      int32
		c0, c1     int
		row0, row1 int
	}
	var strips []strip
	for row := rowMin; row <= rowMax; row++ {
		rowStart := len(strips)
		cur, c0 := m.Owners[row*m.Cols+colMin], colMin
		for col := colMin + 1; col <= colMax+1; col++ {
			if col <= colMax && m.Owners[row*m.Cols+col] == cur {
				continue
			}
			merged := false
			for i := 0; i < rowStart; i++ {
				s := &strips[i]
				if s.owner == cur && s.c0 == c0 && s.c1 == col-1 && s.row1 == row-1 {
					s.row1 = row
					merged = true
					break
				}
			}
			if !merged {
				strips = append(strips, strip{owner: cur, c0: c0, c1: col - 1, row0: row, row1: row})
			}
			if col <= colMax {
				cur, c0 = m.Owners[row*m.Cols+col], col
			}
		}
	}

	byNode := make(map[int32]int)
	for _, s := range strips {
		xlo, xhi := math.Inf(-1), math.Inf(1)
		if s.c0 > 0 {
			xlo = m.grid.ColEdge(s.c0)
		}
		if s.c1 < m.Cols-1 {
			xhi = m.grid.ColEdge(s.c1 + 1)
		}
		ylo, yhi := math.Inf(-1), math.Inf(1)
		if s.row0 > 0 {
			ylo = m.grid.RowEdge(s.row0)
		}
		if s.row1 < m.Rows-1 {
			yhi = m.grid.RowEdge(s.row1 + 1)
		}
		clip := r.Intersect(geo.Rect{MinX: xlo, MinY: ylo, MaxX: xhi, MaxY: yhi})
		if clip.Empty() {
			// A query edge exactly on a partition boundary leaves a
			// zero-area sliver on the far side; half-open rects contain no
			// points there and the engines reject empty rects, so skip.
			continue
		}
		i, ok := byNode[s.owner]
		if !ok {
			i = len(parts)
			parts = append(parts, NodeClips{Node: int(s.owner)})
			byNode[s.owner] = i
		}
		parts[i].Rects = append(parts[i].Rects, clip)
	}
	if len(parts) == 1 {
		// All surviving clips landed on one node (the competing cells held
		// only zero-area slivers): forwarding the whole rect is exact.
		return parts[0].Node, nil
	}
	return -1, parts
}

// OwnsQuery reports whether node may answer query footprint r under this
// map: the rect (or its clamped landing cell, when out of world) must be
// owned entirely by node. Clipped sub-rects produced by PlanQuery against
// the same map always pass on their target node.
func (m *Map) OwnsQuery(node int, r geo.Rect) bool {
	owner, parts := m.PlanQuery(r)
	return parts == nil && owner == node
}

// Encode serializes the map in the CRC-framed persist format:
//
//	magic "LMAP", version u16, epoch u64, world 4×f64, cols u32, rows u32,
//	nodes []string, owners u32 count + count×u32, crc32-IEEE of all
//	preceding bytes
func (m *Map) Encode() []byte {
	var e persist.Enc
	e.U8(mapMagic[0])
	e.U8(mapMagic[1])
	e.U8(mapMagic[2])
	e.U8(mapMagic[3])
	e.U16(mapVersion)
	e.U64(m.Epoch)
	e.F64(m.World.MinX)
	e.F64(m.World.MinY)
	e.F64(m.World.MaxX)
	e.F64(m.World.MaxY)
	e.U32(uint32(m.Cols))
	e.U32(uint32(m.Rows))
	e.Strs(m.Nodes)
	e.U32(uint32(len(m.Owners)))
	for _, o := range m.Owners {
		e.U32(uint32(o))
	}
	crc := crc32.ChecksumIEEE(e.Data())
	e.U32(crc)
	return e.Data()
}

// DecodeMap parses and validates an encoded partition map. The returned
// map is fully initialized and shares no memory with data.
func DecodeMap(data []byte) (*Map, error) {
	if len(data) < 4+2+4 {
		return nil, fmt.Errorf("cluster: map blob truncated (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	d := persist.NewDec(crcBytes)
	if got, want := d.U32(), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("cluster: map CRC mismatch (got %08x want %08x)", got, want)
	}
	d = persist.NewDec(body)
	var magic [4]byte
	magic[0], magic[1], magic[2], magic[3] = d.U8(), d.U8(), d.U8(), d.U8()
	if magic != mapMagic {
		return nil, fmt.Errorf("cluster: bad map magic %q", magic[:])
	}
	if v := d.U16(); v != mapVersion {
		return nil, fmt.Errorf("cluster: map version %d, this build reads %d", v, mapVersion)
	}
	m := &Map{Epoch: d.U64()}
	m.World.MinX = d.F64()
	m.World.MinY = d.F64()
	m.World.MaxX = d.F64()
	m.World.MaxY = d.F64()
	m.Cols = int(d.U32())
	m.Rows = int(d.U32())
	m.Nodes = d.Strs()
	n := int(d.U32())
	if d.Err() == nil && (n < 0 || n*4 > d.Remaining()) {
		return nil, fmt.Errorf("cluster: map declares %d owners, %d bytes remain", n, d.Remaining())
	}
	m.Owners = make([]int32, n)
	for i := range m.Owners {
		m.Owners[i] = int32(d.U32())
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: map decode: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
