package stream

// AssignedIDs is how many dictionary IDs w has ever handed out: one per
// live word plus the free list.
func (w *Window) AssignedIDs() int { return w.dict.IDs() }

// HighColumns is how many high columns the arena's chunks hold: one per
// chunk for its timestamps, and one for its IDs, that do not fit 32 bits.
func (w *Window) HighColumns() int { return w.highs }
