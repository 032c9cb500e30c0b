package main

import (
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/workload"
)

// The stream every workload replays: the paper's 2 objects per virtual
// millisecond against a 60 s window, so a full window holds 120 000 live
// objects and every insert after the fill evicts one. The legacy loadgen
// stamped 1000 objects per virtual ms, so its window never evicted and
// every run measured a state that grew while it ran.
const (
	ratePerMS  = 2
	windowSpan = 60 * time.Second
	// poolWindows sizes the object pool: an object's second replay enters
	// the stream three windows after its first copy was evicted.
	poolWindows = 4
)

// inputs is a workload's pre-generated object pool plus the stream cursor.
// Objects are replayed from the pool with the ID and timestamp of their
// global stream position, so the live window is always the contiguous
// position range [liveLo(), next) — the benchmark's own ring, which the
// correctness checks scan by brute force without storing anything twice.
type inputs struct {
	world  latest.Rect
	spanMS int64 // the window, in virtual milliseconds
	pool   []latest.Object
	src    *datagen.Generator
	spec   workload.Spec
	next   int // stream position of the next object to feed
}

func newInputs(dataset, queries string, seed int64, window time.Duration) *inputs {
	g := datagen.ByName(dataset, seed, ratePerMS)
	in := &inputs{world: g.World(), spanMS: window.Milliseconds(), src: g, spec: workload.ByName(queries)}
	in.pool = make([]latest.Object, poolWindows*in.windowObjs())
	for i := range in.pool {
		in.pool[i] = g.Next()
	}
	return in
}

// replica returns a cursor over the same pool rewound to stream position
// zero, for a stand-alone layer replica fed from the start.
func (in *inputs) replica() *inputs {
	r := *in
	r.next = 0
	return &r
}

// windowObjs is the steady-state live-object count: a full window.
func (in *inputs) windowObjs() int { return int(in.spanMS) * ratePerMS }

// tsOf is the virtual-millisecond timestamp of stream position i.
func tsOf(i int) int64 { return int64(i / ratePerMS) }

// now is the timestamp of the newest object fed; queries are issued at it.
func (in *inputs) now() int64 { return tsOf(in.next - 1) }

// liveLo is the oldest stream position still inside the window of a query
// issued at ts: the engine evicts timestamps below ts-span.
func (in *inputs) liveLo(ts int64) int {
	if lo := int(ts-in.spanMS) * ratePerMS; lo > 0 {
		return lo
	}
	return 0
}

// stamp copies the next n pool objects into dst with their stream-position
// ID and timestamp and advances the cursor. It runs outside every timed
// call; engines copy what they keep, so dst is reused.
func (in *inputs) stamp(dst []latest.Object, n int) []latest.Object {
	dst = dst[:n]
	for j := range dst {
		o := in.pool[in.next%len(in.pool)]
		o.ID = uint64(in.next)
		o.Timestamp = tsOf(in.next)
		dst[j] = o
		in.next++
	}
	return dst
}

// queries pre-generates n queries; timestamps are set when each query is
// issued. The workload's phase schedule is walked once per measurement
// segment, not once per run, so that the segments are statistically alike
// and the median over them rejects a disturbed segment instead of picking
// out one phase.
func (in *inputs) queries(n int) []latest.Query {
	qs := make([]latest.Query, 0, n)
	for s := 0; s < segments; s++ {
		pass := (s+1)*n/segments - s*n/segments
		if pass == 0 {
			continue
		}
		g := workload.NewGenerator(in.spec, in.src, pass)
		for i := 0; i < pass; i++ {
			qs = append(qs, g.Next(0))
		}
	}
	return qs
}

// bruteCount answers q by scanning stream positions [lo, hi) of the ring.
// It is written from the query definition (min-closed, max-open rectangle;
// at least one keyword in common) and shares no code with the window store
// it checks.
func (in *inputs) bruteCount(q *latest.Query, lo, hi int) int {
	total := 0
	for i := lo; i < hi; i++ {
		o := &in.pool[i%len(in.pool)]
		if q.HasRange {
			r := q.Range
			if o.Loc.X < r.MinX || o.Loc.X >= r.MaxX || o.Loc.Y < r.MinY || o.Loc.Y >= r.MaxY {
				continue
			}
		}
		if len(q.Keywords) > 0 && !sharesKeyword(o.Keywords, q.Keywords) {
			continue
		}
		total++
	}
	return total
}

func sharesKeyword(have, want []string) bool {
	for _, w := range want {
		for _, h := range have {
			if h == w {
				return true
			}
		}
	}
	return false
}
