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

// FootprintPart is one part of a window's MemoryBytes.
type FootprintPart struct {
	Name  string
	Bytes int
}

// Footprint breaks w.MemoryBytes down by what holds the bytes; the parts
// sum to it. A ring's slots are in use or spare only if it has a buffer:
// an inline ring's sit in its header.
func (w *Window) Footprint() []FootprintPart {
	blocks := len(w.chunks)
	if w.spare.block != nil {
		blocks++
	}
	inUse := 0
	for _, rs := range [][]ring{w.cells, w.postings} {
		for i := range rs {
			if rs[i].buf != nil {
				inUse += int(rs[i].used)
			}
		}
	}
	return []FootprintPart{
		{"records and chunk headers", blocks*blockBytes + chunkBytes*cap(w.chunks)},
		{"high columns", w.highBytes},
		{"ring slots in use", 2 * inUse},
		{"ring slots spare", 2 * (w.slots - inUse)},
		{"ring headers", ringHeaderBytes * (len(w.cells) + cap(w.postings))},
		{"dictionary", w.dict.MemoryBytes() + w.wordBytes},
		{"keyword IDs", w.kwBytes},
		{"scratch", 4*cap(w.qids) + 8*cap(w.seen)},
	}
}
