package stream

// AssignedIDs is how many dictionary IDs w has ever handed out: one per
// live word plus the free list.
func (w *Window) AssignedIDs() int { return len(w.words) }
