package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (-1 for a
// root). Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is single-owner:
// concurrent load generators each record into their own and merge.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// add records a span and returns its ID. A nil recorder (tracing off)
// records nothing.
func (r *recorder) add(name string, req uint64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// merge appends other's spans, re-basing their IDs and parents.
func (r *recorder) merge(other *recorder) {
	if r == nil || other == nil {
		return
	}
	base := len(r.spans)
	shift := other.epoch.Sub(r.epoch).Nanoseconds()
	for _, s := range other.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		r.spans = append(r.spans, s)
	}
}

// addTrace imports one of the program's own exported traces (client or
// server tier) as a root span named tier+"."+op with one child per stage.
// Stage offsets are relative to the trace's wall-clock start, which shares
// the recorder's clock because everything runs in one process.
func (r *recorder) addTrace(tier string, t telemetry.Trace, parent int) int {
	if r == nil {
		return -1
	}
	start := time.Unix(0, t.StartUnixNS)
	root := r.add(tier+"."+t.Op, uint64(t.ID), parent, start, start.Add(time.Duration(t.DurNS)))
	for _, sp := range t.Spans {
		s := start.Add(time.Duration(sp.StartNS))
		r.add(tier+"."+sp.Name, uint64(t.ID), root, s, s.Add(time.Duration(sp.DurNS)))
	}
	return root
}

// selfTimes folds a span set: a span's self time is its duration minus the
// part of its interval its direct children cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
