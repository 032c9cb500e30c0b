package kmv

import "github.com/spatiotext/latest/internal/persist"

// SaveState serializes the synopsis. The heap is written in slice layout
// order — heap layout determines future evictions, so a restored synopsis
// must keep the exact array, not just the same value set. The membership
// set is rebuilt from the heap on load.
func (s *Synopsis) SaveState(e *persist.Enc) {
	e.Int(s.k)
	e.U32(uint32(len(s.heap)))
	for _, h := range s.heap {
		e.U64(h)
	}
}

// LoadState restores a synopsis saved with the same k. The receiver is
// reset first; on error it must be discarded.
func (s *Synopsis) LoadState(d *persist.Dec) error {
	const op = "kmv synopsis"
	k := d.Int()
	n := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if k != s.k {
		return persist.Errf(persist.CodeMismatch, op, "k %d, receiver built with %d", k, s.k)
	}
	if n < 0 || n > k || n*8 > d.Remaining() {
		return persist.Errf(persist.CodeMalformed, op, "heap length %d", n)
	}
	s.Reset()
	for i := 0; i < n; i++ {
		h := d.U64()
		if _, dup := s.set[h]; dup {
			return persist.Errf(persist.CodeMalformed, op, "duplicate hash %016x in heap", h)
		}
		s.heap = append(s.heap, h)
		s.retain(h)
	}
	return d.Err()
}

// SaveState serializes the windowed synopsis: shape, ring position and
// every slice. The merged cache is not saved; it rebuilds lazily.
func (s *Sliced) SaveState(e *persist.Enc) {
	e.Int(s.k)
	e.Int(len(s.slices))
	e.Int(s.cur)
	for _, sl := range s.slices {
		sl.SaveState(e)
	}
}

// LoadState restores a windowed synopsis saved with the same shape. On
// error the receiver must be discarded.
func (s *Sliced) LoadState(d *persist.Dec) error {
	const op = "kmv sliced"
	k := d.Int()
	n := d.Int()
	cur := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if k != s.k || n != len(s.slices) {
		return persist.Errf(persist.CodeMismatch, op, "shape k=%d n=%d, receiver k=%d n=%d", k, n, s.k, len(s.slices))
	}
	if cur < 0 || cur >= n {
		return persist.Errf(persist.CodeMalformed, op, "current slice %d of %d", cur, n)
	}
	for _, sl := range s.slices {
		if err := sl.LoadState(d); err != nil {
			return err
		}
	}
	s.cur = cur
	s.dirty = true
	return nil
}
