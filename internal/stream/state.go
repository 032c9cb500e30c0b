package stream

import (
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
)

// EncodeObject appends one object's fields, its location as float64s. It
// is the feed WAL's encoding, and was the window image's before the window
// stored lattice points (LoadFloatState reads those images).
func EncodeObject(e *persist.Enc, o *Object) {
	e.U64(o.ID)
	e.F64(o.Loc.X)
	e.F64(o.Loc.Y)
	e.I64(o.Timestamp)
	e.Strs(o.Keywords)
}

// DecodeObject reads one object; check d.Err after the last object.
func DecodeObject(d *persist.Dec) Object {
	id := d.U64()
	x := d.F64()
	y := d.F64()
	ts := d.I64()
	kws := d.Strs()
	return Object{ID: id, Loc: geo.Point{X: x, Y: y}, Keywords: kws, Timestamp: ts}
}

// SaveState serializes the window: sequence counters plus every live
// object in arrival order, its location as its lattice point. The grid and
// postings index re-derive on load by re-inserting the objects.
func (w *Window) SaveState(e *persist.Enc) {
	e.U64(w.base)
	e.U64(w.inserted)
	e.U64(w.evicted)
	e.U32(uint32(w.Size()))
	var o Object
	for i := 0; i < w.n; i++ {
		w.At(i, &o)
		c, slot := w.slot(i)
		e.U64(o.ID)
		e.U32(c.recs[slot].loc.X)
		e.U32(c.recs[slot].loc.Y)
		e.I64(o.Timestamp)
		e.Strs(o.Keywords)
	}
}

// LoadState restores a window SaveState wrote, with the same world, span
// and grid.
func (w *Window) LoadState(d *persist.Dec) error {
	return w.load(d, func() (Object, geo.LPoint, error) {
		id := d.U64()
		loc := geo.LPoint{X: d.U32(), Y: d.U32()}
		ts := d.I64()
		kws := d.Strs()
		if d.Err() == nil && !w.lat.Holds(loc) {
			return Object{}, loc, persist.Errf(persist.CodeMalformed, "window", "location %v is off the lattice", loc)
		}
		return Object{ID: id, Keywords: kws, Timestamp: ts}, loc, d.Err()
	})
}

// LoadFloatState restores a window image of the format before lattice
// coordinates, whose objects are encoded as EncodeObject encodes them:
// each location is snapped as Insert snaps it.
func (w *Window) LoadFloatState(d *persist.Dec) error {
	return w.load(d, func() (Object, geo.LPoint, error) {
		o := DecodeObject(d)
		return o, w.lat.Snap(o.Loc), d.Err()
	})
}

// load restores a window from the counters and objects of an image, each
// object read by next. The receiver must be empty and never inserted
// into; the saved base is installed *before* re-inserting so restored
// objects keep their original sequence numbers — NextSeq continues
// exactly where the original left off. An image is malformed if
// re-inserting its objects would evict one of them: Insert never leaves a
// window holding such a pair.
func (w *Window) load(d *persist.Dec, next func() (Object, geo.LPoint, error)) error {
	const op = "window"
	if w.inserted != 0 || w.Size() != 0 {
		return persist.Errf(persist.CodeState, op, "receiver already holds %d objects", w.Size())
	}
	base := d.U64()
	inserted := d.U64()
	evicted := d.U64()
	count := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if count < 0 || inserted-evicted != uint64(count) {
		return persist.Errf(persist.CodeMalformed, op,
			"%d live objects vs inserted %d - evicted %d", count, inserted, evicted)
	}
	w.base, w.origin = base, base
	first, last := int64(0), int64(0)
	for i := 0; i < count; i++ {
		o, loc, err := next()
		if err != nil {
			return err
		}
		if i > 0 && o.Timestamp < last {
			return persist.Errf(persist.CodeMalformed, op, "objects out of order (%d after %d)", o.Timestamp, last)
		}
		if i == 0 {
			first = o.Timestamp
		}
		if first < o.Timestamp-w.span {
			return persist.Errf(persist.CodeMalformed, op, "object at %d and object at %d in a %d ms window", first, o.Timestamp, w.span)
		}
		last = o.Timestamp
		w.append(&o, loc)
	}
	w.inserted = inserted
	w.evicted = evicted
	return nil
}
