package stream

// AssignedIDs is how many dictionary IDs w has ever handed out: one per
// live word plus the free list.
func (w *Window) AssignedIDs() int { return w.dict.IDs() }

// HighColumns is how many high columns the arena's chunks hold: for each
// chunk, one per field and bit range that some slot's offset reaches.
func (w *Window) HighColumns() int {
	n := 0
	for _, c := range w.chunks {
		for _, held := range []bool{c.tsMid != nil, c.tsTop != nil, c.idHigh != nil, c.endHigh != nil} {
			if held {
				n++
			}
		}
	}
	return n
}
