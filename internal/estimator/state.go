package estimator

import (
	"math"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
)

// Stateful is implemented by estimators whose internal state serializes
// bit-exactly: a restored estimator answers every future query and absorbs
// every future insert exactly as the original would have. Estimators built
// by this package all implement it; third-party registry entries that do
// not are restored by replaying the restored window through the usual
// refill path instead.
//
// LoadState must be called on a freshly constructed estimator with the
// same Params; on error the estimator must be discarded.
type Stateful interface {
	SaveState(e *persist.Enc)
	LoadState(d *persist.Dec) error
}

// FloatStateful is implemented by the Stateful estimators whose image
// format changed when their samples became lattice points: LoadFloatState
// reads an image of the earlier format, whose points are float64 pairs,
// and snaps each point as Insert snaps it. It is called as LoadState is.
type FloatStateful interface {
	LoadFloatState(d *persist.Dec) error
}

// --- shared component codecs ---

func saveSlicer(e *persist.Enc, s *Slicer) {
	e.Bool(s.started)
	e.I64(s.boundary)
}

func loadSlicer(d *persist.Dec, s *Slicer) error {
	started := d.Bool()
	boundary := d.I64()
	if d.Err() != nil {
		return d.Err()
	}
	s.started, s.boundary = started, boundary
	return nil
}

// SaveState serializes the arrival counter.
func (w *WindowCounter) SaveState(e *persist.Enc) {
	saveSlicer(e, &w.slicer)
	e.F64s(w.counts)
	e.Int(w.cur)
	e.F64(w.live)
}

// LoadState restores a counter saved with the same span and slice count.
func (w *WindowCounter) LoadState(d *persist.Dec) error {
	const op = "window counter"
	sl := w.slicer
	if err := loadSlicer(d, &sl); err != nil {
		return err
	}
	counts := d.F64s()
	cur := d.Int()
	live := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	if len(counts) != len(w.counts) {
		return persist.Errf(persist.CodeMismatch, op, "%d slices, receiver has %d", len(counts), len(w.counts))
	}
	if cur < 0 || cur >= len(w.counts) {
		return persist.Errf(persist.CodeMalformed, op, "current slice %d of %d", cur, len(w.counts))
	}
	w.slicer = sl
	copy(w.counts, counts)
	w.cur, w.live = cur, live
	return nil
}

// sampleCount reads a sample-array length prefix, bounding it by the
// reservoir capacity (same Params ⇒ same capacity, so more is malformed).
func sampleCount(d *persist.Dec, capacity int, op string) (int, error) {
	n := int(d.U32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	if n < 0 || n > capacity {
		return 0, persist.Errf(persist.CodeMalformed, op, "%d samples exceeds capacity %d", n, capacity)
	}
	return n, nil
}

// --- H4096 ---

// SaveState implements Stateful. A histogram that counts nothing writes
// the zeros its released arrays stand for: the image does not say whether
// they were allocated.
func (h *Histogram) SaveState(e *persist.Enc) {
	saveSlicer(e, &h.slicer)
	cells := h.grid.NumCells()
	saveCounts(e, h.ring, h.slicer.Slices()*cells)
	saveCounts(e, h.live, cells)
	e.Int(h.cur)
	e.F64(h.totalLive)
}

// saveCounts writes the n counts vs, or n zeros when vs is nil, as
// Enc.F64s writes them as float64s.
func saveCounts(e *persist.Enc, vs []uint32, n int) {
	e.U32(uint32(n))
	for i := 0; i < n; i++ {
		v := 0.0
		if vs != nil {
			v = float64(vs[i])
		}
		e.F64(v)
	}
}

// loadCounts reads what saveCounts writes. A count that is negative, not
// whole or not below 2³² is malformed.
func loadCounts(d *persist.Dec, op string) ([]uint32, error) {
	vs := d.F64s()
	if d.Err() != nil {
		return nil, d.Err()
	}
	counts := make([]uint32, len(vs))
	for i, v := range vs {
		if !(v >= 0 && v < 1<<32 && v == math.Trunc(v)) {
			return nil, persist.Errf(persist.CodeMalformed, op, "count %d is %v", i, v)
		}
		counts[i] = uint32(v)
	}
	return counts, nil
}

// allZero reports whether vs holds nothing but zeros.
func allZero(vs []uint32) bool {
	for _, v := range vs {
		if v != 0 {
			return false
		}
	}
	return true
}

// LoadState implements Stateful.
func (h *Histogram) LoadState(d *persist.Dec) error {
	const op = "histogram"
	sl := h.slicer
	if err := loadSlicer(d, &sl); err != nil {
		return err
	}
	ring, err := loadCounts(d, op)
	if err != nil {
		return err
	}
	live, err := loadCounts(d, op)
	if err != nil {
		return err
	}
	cur := d.Int()
	totalLive := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	if cells := h.grid.NumCells(); len(ring) != h.slicer.Slices()*cells || len(live) != cells {
		return persist.Errf(persist.CodeMismatch, op,
			"ring %d / live %d, receiver %d / %d", len(ring), len(live), h.slicer.Slices()*cells, cells)
	}
	if cur < 0 || cur >= h.slicer.Slices() {
		return persist.Errf(persist.CodeMalformed, op, "current slice %d of %d", cur, h.slicer.Slices())
	}
	// live caches each cell's sum over the slices and totalLive theirs: a
	// count that disagrees would wrap below zero when its slice expires.
	cells, total := len(live), 0.0
	for c, v := range live {
		sum := uint64(0)
		for s := c; s < len(ring); s += cells {
			sum += uint64(ring[s])
		}
		if sum != uint64(v) {
			return persist.Errf(persist.CodeMalformed, op, "cell %d: live %d, slices sum to %d", c, v, sum)
		}
		total += float64(v)
	}
	if total != totalLive {
		return persist.Errf(persist.CodeMalformed, op, "live total %v, cells sum to %v", totalLive, total)
	}
	if allZero(ring) && allZero(live) { // a wiped histogram restores released
		ring, live = nil, nil
	}
	h.slicer = sl
	h.ring, h.live = ring, live
	h.cur, h.totalLive = cur, totalLive
	return nil
}

// --- RSL and RSH ---

// saveHeader writes what every reservoir image starts with: the RNG
// state, the arrival counter and the sample count.
func (r *reservoir) saveHeader(e *persist.Enc) {
	saveRNG(e, r.src)
	r.counter.SaveState(e)
	e.U32(uint32(len(r.ts)))
}

// reservoirImage is a decoded reservoir image, not yet installed.
type reservoirImage struct {
	rngHi, rngLo uint64
	store        sampleStore
}

// loadSamples reads a reservoir image into a new store, built in bulk as a
// draw builds one: the samples go in, then the posting lists are cut once.
// float says the image is of the format whose points are float64 pairs,
// which are snapped: RSL's and RSH's older images and every SPN image that
// holds samples. The current format's are lattice points, which must lie
// on the lattice. each, if not nil, runs after every sample for what a
// reservoir stores beside it. Only the arrival counter has changed when it
// returns; install does the rest.
func (r *reservoir) loadSamples(d *persist.Dec, op string, float bool, each func(st *sampleStore, j int32)) (im reservoirImage, err error) {
	im.rngHi, im.rngLo = d.U64(), d.U64()
	if err := r.counter.LoadState(d); err != nil {
		return im, err
	}
	count, err := sampleCount(d, r.capacity, op)
	if err != nil {
		return im, err
	}
	if count > 0 {
		im.store.reserve(count)
	}
	for j := int32(0); int(j) < count && d.Err() == nil; j++ {
		var loc geo.LPoint
		if float {
			loc = r.lat.Snap(geo.Point{X: d.F64(), Y: d.F64()})
		} else {
			loc = geo.LPoint{X: d.U32(), Y: d.U32()}
		}
		ts, kws := d.I64(), d.Strs()
		if !float && d.Err() == nil && !r.lat.Holds(loc) {
			return im, persist.Errf(persist.CodeMalformed, op, "sample %d at %v is off the lattice", j, loc)
		}
		im.store.add(ts, loc, kws)
		if each != nil {
			each(&im.store, j)
		}
	}
	if d.Err() != nil {
		return im, d.Err()
	}
	if count > 0 {
		im.store.postAll(true)
	}
	return im, nil
}

func (r *reservoir) install(im reservoirImage) {
	r.src.Seed(im.rngHi, im.rngLo)
	r.sampleStore = im.store
}

// SaveState implements Stateful.
func (r *ReservoirList) SaveState(e *persist.Enc) {
	r.saveHeader(e)
	for i := range r.ts {
		r.save(e, int32(i))
	}
}

// LoadState implements Stateful.
func (r *ReservoirList) LoadState(d *persist.Dec) error { return r.load(d, false) }

// LoadFloatState implements FloatStateful.
func (r *ReservoirList) LoadFloatState(d *persist.Dec) error { return r.load(d, true) }

func (r *ReservoirList) load(d *persist.Dec, float bool) error {
	im, err := r.loadSamples(d, "rsl", float, nil)
	if err == nil {
		r.install(im)
	}
	return err
}

// SaveState implements Stateful. Slots are written in array order with
// their position inside their grid bucket: the slot array's layout governs
// future reservoir replacement and the bucket order governs purge order,
// so both must survive exactly. Cells re-derive from the sample location.
func (r *ReservoirHashmap) SaveState(e *persist.Enc) {
	r.saveHeader(e)
	for i := range int32(len(r.ts)) {
		r.save(e, i)
		e.U32(r.link(i))
	}
}

// LoadState implements Stateful.
func (r *ReservoirHashmap) LoadState(d *persist.Dec) error { return r.load(d, false) }

// LoadFloatState implements FloatStateful.
func (r *ReservoirHashmap) LoadFloatState(d *persist.Dec) error { return r.load(d, true) }

func (r *ReservoirHashmap) load(d *persist.Dec, float bool) error {
	const op = "rsh"
	var links []uint32
	var sizes []uint32
	im, err := r.loadSamples(d, op, float, func(st *sampleStore, j int32) {
		if sizes == nil {
			sizes = make([]uint32, r.grid.NumCells())
		}
		links = append(links, d.U32())
		sizes[r.grid.CellOfL(st.loc[j])]++
	})
	if err != nil {
		return err
	}
	// Rebuild buckets by placing each slot at its recorded position; any
	// duplicate or out-of-range position means the image is inconsistent.
	var buckets lists
	var placed []uint64 // by array index
	if len(links) > 0 {
		buckets.reset(sizes)
		placed = make([]uint64, (len(buckets.slab)+63)/64)
	}
	for j, pos := range links {
		cell := r.grid.CellOfL(im.store.loc[j])
		off, n, _ := buckets.span(cell)
		k := off + pos
		if pos >= n || placed[k/64]&(1<<(k%64)) != 0 {
			return persist.Errf(persist.CodeMalformed, op, "slot %d bucket position %d invalid", j, int32(pos))
		}
		placed[k/64] |= 1 << (k % 64)
		buckets.set(cell, int(pos), uint32(j))
	}
	r.install(im)
	r.links, r.linksHi, r.buckets = nil, nil, buckets
	if len(links) > 0 {
		r.links = make([]uint16, len(links))
	}
	for j, pos := range links {
		r.setLink(int32(j), pos)
	}
	return nil
}

// --- AASP ---

// SaveState implements Stateful.
func (a *AASP) SaveState(e *persist.Enc) {
	saveSlicer(e, &a.slicer)
	a.tree.SaveState(e)
}

// LoadState implements Stateful.
func (a *AASP) LoadState(d *persist.Dec) error {
	sl := a.slicer
	if err := loadSlicer(d, &sl); err != nil {
		return err
	}
	if err := a.tree.LoadState(d); err != nil {
		return err
	}
	a.slicer = sl
	return nil
}

// --- FFN ---

// SaveState implements Stateful.
func (f *FFN) SaveState(e *persist.Enc) {
	f.net.SaveState(e)
	e.Int(len(f.xs))
	for i := range f.xs {
		e.F64s(f.xs[i])
		e.F64s(f.ys[i])
	}
	e.Int(f.n)
	e.Bool(f.trained)
}

// LoadState implements Stateful.
func (f *FFN) LoadState(d *persist.Dec) error {
	const op = "ffn"
	if err := f.net.LoadState(d); err != nil {
		return err
	}
	count := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if count < 0 || count > ffnReplayBuffer {
		return persist.Errf(persist.CodeMalformed, op, "replay buffer length %d (cap %d)", count, ffnReplayBuffer)
	}
	xs := make([][]float64, 0, count)
	ys := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		x := d.F64s()
		y := d.F64s()
		if d.Err() != nil {
			return d.Err()
		}
		if len(x) != ffnInputDim || len(y) != 1 {
			return persist.Errf(persist.CodeMalformed, op, "replay sample dims %d/%d, want %d/1", len(x), len(y), ffnInputDim)
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	n := d.Int()
	trained := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	f.xs, f.ys, f.n, f.trained = xs, ys, n, trained
	return nil
}

// --- SPN ---

// SaveState implements Stateful. The image keeps the layout of one written
// while SPN kept its sample — generator, counter, sample count, insert and
// fit counts, network — with a sample count of 0.
func (s *SPNEstimator) SaveState(e *persist.Enc) {
	saveRNG(e, s.src)
	s.counter.SaveState(e)
	e.U32(0)
	e.Int(s.inserts)
	e.Int(s.retrains)
	s.net.SaveState(e)
}

// LoadState implements Stateful. The samples of an older image are read
// as a reservoir of the float format reads them, and dropped.
func (s *SPNEstimator) LoadState(d *persist.Dec) error {
	old := reservoir{lat: geo.NewLattice(s.world), capacity: s.k, counter: s.counter}
	im, err := old.loadSamples(d, "spn", true, nil)
	if err != nil {
		return err
	}
	inserts := d.Int()
	retrains := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if err := s.net.LoadState(d); err != nil {
		return err
	}
	s.src.Seed(im.rngHi, im.rngLo)
	s.inserts, s.retrains = inserts, retrains
	return nil
}
