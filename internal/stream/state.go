package stream

import (
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
)

// EncodeObject appends one object's fields. The same encoding is used by
// the window snapshot below and by the feed WAL, so a replayed record and a
// restored window object are byte-for-byte the same input.
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
// object in arrival order. The grid and postings index re-derive on load by
// re-inserting the objects.
func (w *Window) SaveState(e *persist.Enc) {
	e.U64(w.base)
	e.U64(w.inserted)
	e.U64(w.evicted)
	e.U32(uint32(w.Size()))
	w.Each(func(o *Object) bool {
		EncodeObject(e, o)
		return true
	})
}

// LoadState restores a window saved with the same world, span and grid.
// The receiver must be empty and never inserted into; the saved base is
// installed *before* re-inserting so restored objects keep their original
// sequence numbers — NextSeq continues exactly where the original left
// off. An image is malformed if re-inserting its objects would evict one
// of them: Insert never leaves a window holding such a pair.
func (w *Window) LoadState(d *persist.Dec) error {
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
		o := DecodeObject(d)
		if d.Err() != nil {
			return d.Err()
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
		w.append(&o)
	}
	w.inserted = inserted
	w.evicted = evicted
	return nil
}
