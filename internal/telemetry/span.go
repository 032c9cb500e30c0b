package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span.go is the request-tracing core: trace IDs minted once per request,
// span timelines recorded stage by stage as the request crosses tiers, a
// bounded in-memory buffer of sampled traces, and per-latency-bucket
// exemplar trace IDs so an operator can jump from a histogram bucket to a
// concrete request that landed in it. Everything here is stdlib-only and
// allocation-free for unsampled requests (a nil *ActiveTrace is a valid
// no-op recorder), so the serving hot path can call it unconditionally.

// TraceID identifies one request across every tier it touches: the client
// mints it, the wire protocol carries it in a header extension, and the
// server threads it through dispatch, engine and estimator spans. Zero
// means "untraced".
type TraceID uint64

// String renders the ID as fixed-width hex, the form operators grep for.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a hex string; raw uint64s lose precision in
// JavaScript consumers.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex-string form.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return err
	}
	*id = TraceID(v)
	return nil
}

// traceSeq seeds NewTraceID: a process-unique counter mixed through
// splitmix64 so concurrently minted IDs are unique and well-spread without
// coordination or crypto randomness.
var traceSeq atomic.Uint64

func init() {
	// Different processes start the sequence at different points so two
	// daemons (or a client and a server) never mint colliding IDs in the
	// same log window.
	traceSeq.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID mints a process-unique trace ID: one atomic add and a few
// multiplies, never zero.
func NewTraceID() TraceID {
	// splitmix64 finalizer over the sequence value.
	z := traceSeq.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return TraceID(z)
}

// Span is one stage of a request's timeline, offset-relative to the trace
// start so the whole timeline lives in one clock domain.
type Span struct {
	// Name is the stage ("read", "queue", "engine", "estimator", "encode",
	// "write" on the server; "encode", "write", "wait", "decode" on the
	// client).
	Name string `json:"name"`
	// Detail annotates the stage (the estimator name for "estimator"
	// spans).
	Detail string `json:"detail,omitempty"`
	// StartNS is the span's start offset from the trace start. It can be
	// negative: the server's "read" span covers waiting for and decoding
	// the frame, which completes at the trace's clock zero.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration.
	DurNS int64 `json:"dur_ns"`
}

// Trace is one sampled request's complete record.
type Trace struct {
	ID TraceID `json:"id"`
	// Op is the request operation ("feed", "estimate", "query", "ping").
	Op string `json:"op"`
	// Error is the wire error code name when the request was refused or
	// failed ("" for success).
	Error string `json:"error,omitempty"`
	// StartUnixNS is the wall-clock trace start in nanoseconds since the
	// Unix epoch — the only absolute timestamp; spans are offsets from it.
	StartUnixNS int64 `json:"start_unix_ns"`
	// DurNS is the full request duration as seen by this tier.
	DurNS int64  `json:"dur_ns"`
	Spans []Span `json:"spans"`
}

// ActiveTrace records one in-flight request's spans. It is single-owner:
// exactly one goroutine appends at a time, with ownership handed off
// through channels (read loop → worker → write loop), which establishes the
// needed happens-before edges. A nil *ActiveTrace is a valid no-op
// recorder, so call sites never branch on sampling.
type ActiveTrace struct {
	buf   *TraceBuffer
	t     Trace
	start time.Time

	openName  string
	openStart time.Time
}

// ID returns the trace's ID (0 on a nil recorder).
func (at *ActiveTrace) ID() TraceID {
	if at == nil {
		return 0
	}
	return at.t.ID
}

// AddSpan records a stage that started at start and ends now.
func (at *ActiveTrace) AddSpan(name string, start time.Time) {
	if at == nil {
		return
	}
	at.t.Spans = append(at.t.Spans, Span{
		Name:    name,
		StartNS: start.Sub(at.start).Nanoseconds(),
		DurNS:   time.Since(start).Nanoseconds(),
	})
}

// AddSpanDur records a stage of known duration d that ends now — the form
// used when the duration was measured by someone else (the estimator
// guard's own timing).
func (at *ActiveTrace) AddSpanDur(name, detail string, d time.Duration) {
	if at == nil {
		return
	}
	start := time.Now().Add(-d)
	at.t.Spans = append(at.t.Spans, Span{
		Name:    name,
		Detail:  detail,
		StartNS: start.Sub(at.start).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
	})
}

// BeginSpan opens a stage whose end is recorded by EndSpan — the handoff
// form used when a stage crosses goroutines (response enqueue → socket
// write completion). At most one span is open at a time.
func (at *ActiveTrace) BeginSpan(name string) {
	if at == nil {
		return
	}
	at.openName = name
	at.openStart = time.Now()
}

// EndSpan closes the stage BeginSpan opened. A no-op when none is open.
func (at *ActiveTrace) EndSpan() {
	if at == nil || at.openName == "" {
		return
	}
	at.AddSpan(at.openName, at.openStart)
	at.openName = ""
}

// SetError marks the trace failed with a wire error code name.
func (at *ActiveTrace) SetError(code string) {
	if at == nil {
		return
	}
	at.t.Error = code
}

// Finish seals the trace and publishes it to the buffer (recording the
// latency-bucket exemplar). Idempotent-enough: calling twice publishes
// twice, so owners finish exactly once.
func (at *ActiveTrace) Finish() {
	if at == nil {
		return
	}
	at.EndSpan()
	at.t.DurNS = time.Since(at.start).Nanoseconds()
	at.buf.push(at.t)
}

// Exemplar pairs a latency-histogram bucket with a concrete sampled trace
// that landed in it.
type Exemplar struct {
	// Op and LE identify the series and bucket (LE is the bucket's
	// exclusive upper bound in seconds, matching the Prometheus le label).
	Op string `json:"op"`
	LE string `json:"le"`
	// TraceID is the most recent sampled trace in the bucket; DurNS its
	// duration.
	TraceID TraceID `json:"trace_id"`
	DurNS   int64   `json:"dur_ns"`
}

// bucketExemplar is the per-bucket slot behind Exemplar.
type bucketExemplar struct {
	id    TraceID
	durNS int64
}

// TraceBuffer retains the last depth sampled traces and the most recent
// exemplar per (op, latency bucket). Sampling is deterministic 1-in-every
// on Start; the unsampled path costs one atomic add. The ring grows with
// the traces it retains, up to depth: a buffer that never sampled a request
// holds no ring.
type TraceBuffer struct {
	depth int
	every uint64

	seq     atomic.Uint64 // Start calls, drives sampling
	sampled atomic.Uint64 // traces actually retained

	mu   sync.Mutex
	ring []Trace
	next int

	emu       sync.Mutex
	exemplars map[string]*[NumBuckets]bucketExemplar
}

// DefaultTraceBufferDepth is the retained-trace capacity when the caller
// does not size it.
const DefaultTraceBufferDepth = 128

// DefaultTraceSampleEvery is the default sampling stride: one traced
// request in this many is retained.
const DefaultTraceSampleEvery = 16

// NewTraceBuffer creates a buffer retaining the last depth sampled traces,
// sampling one traced request in every (depth <= 0 and every <= 0 take the
// defaults; every == 1 retains all).
func NewTraceBuffer(depth, every int) *TraceBuffer {
	if depth <= 0 {
		depth = DefaultTraceBufferDepth
	}
	if every <= 0 {
		every = DefaultTraceSampleEvery
	}
	return &TraceBuffer{
		depth:     depth,
		every:     uint64(every),
		exemplars: make(map[string]*[NumBuckets]bucketExemplar),
	}
}

// Start begins recording op's request under id if the sampler selects it;
// otherwise (and on a nil buffer, or a zero id — an untraced request) it
// returns nil, which every ActiveTrace method accepts. Safe for concurrent
// use.
func (tb *TraceBuffer) Start(op string, id TraceID) *ActiveTrace {
	if tb == nil || id == 0 {
		return nil
	}
	if (tb.seq.Add(1)-1)%tb.every != 0 {
		return nil
	}
	now := time.Now()
	return &ActiveTrace{
		buf:   tb,
		start: now,
		t: Trace{
			ID:          id,
			Op:          op,
			StartUnixNS: now.UnixNano(),
			Spans:       make([]Span, 0, 8),
		},
	}
}

// Seen returns how many traced requests Start has observed (sampled or
// not).
func (tb *TraceBuffer) Seen() uint64 {
	if tb == nil {
		return 0
	}
	return tb.seq.Load()
}

// Sampled returns how many traces were retained.
func (tb *TraceBuffer) Sampled() uint64 {
	if tb == nil {
		return 0
	}
	return tb.sampled.Load()
}

func (tb *TraceBuffer) push(t Trace) {
	if tb == nil {
		return
	}
	tb.sampled.Add(1)
	tb.mu.Lock()
	if len(tb.ring) < tb.depth {
		tb.ring = append(tb.ring, t)
	} else {
		tb.ring[tb.next] = t
	}
	tb.next = (tb.next + 1) % tb.depth
	tb.mu.Unlock()

	bucket := bucketOf(time.Duration(t.DurNS))
	tb.emu.Lock()
	slot := tb.exemplars[t.Op]
	if slot == nil {
		slot = new([NumBuckets]bucketExemplar)
		tb.exemplars[t.Op] = slot
	}
	slot[bucket] = bucketExemplar{id: t.ID, durNS: t.DurNS}
	tb.emu.Unlock()
}

// Snapshot returns the retained traces oldest-first.
func (tb *TraceBuffer) Snapshot() []Trace {
	if tb == nil {
		return nil
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make([]Trace, 0, len(tb.ring))
	if len(tb.ring) < tb.depth {
		return append(out, tb.ring...)
	}
	out = append(out, tb.ring[tb.next:]...)
	return append(out, tb.ring[:tb.next]...)
}

// Exemplars returns the most recent sampled trace per (op, latency bucket),
// ordered by op then bucket.
func (tb *TraceBuffer) Exemplars() []Exemplar {
	if tb == nil {
		return nil
	}
	tb.emu.Lock()
	defer tb.emu.Unlock()
	ops := make([]string, 0, len(tb.exemplars))
	for op := range tb.exemplars {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	var out []Exemplar
	for _, op := range ops {
		slot := tb.exemplars[op]
		for i := range slot {
			if slot[i].id == 0 {
				continue
			}
			le := "+Inf"
			if i < NumBuckets-1 {
				le = fmt.Sprintf("%g", BucketBound(i).Seconds())
			}
			out = append(out, Exemplar{Op: op, LE: le, TraceID: slot[i].id, DurNS: slot[i].durNS})
		}
	}
	return out
}

// TraceDump is the /debug/requests response body.
type TraceDump struct {
	// Depth and SampleEvery echo the buffer configuration.
	Depth       int `json:"depth"`
	SampleEvery int `json:"sample_every"`
	// Seen counts traced requests observed; Sampled those retained.
	Seen    uint64 `json:"seen"`
	Sampled uint64 `json:"sampled"`
	// Traces is the retained ring, oldest-first.
	Traces []Trace `json:"traces"`
	// Exemplars maps latency-histogram buckets to concrete trace IDs.
	Exemplars []Exemplar `json:"exemplars"`
}

// Dump builds the TraceDump view.
func (tb *TraceBuffer) Dump() TraceDump {
	d := TraceDump{}
	if tb == nil {
		return d
	}
	d.Depth = tb.depth
	d.SampleEvery = int(tb.every)
	d.Seen = tb.Seen()
	d.Sampled = tb.Sampled()
	d.Traces = tb.Snapshot()
	d.Exemplars = tb.Exemplars()
	return d
}

// Handler serves the buffer as JSON — the /debug/requests admin endpoint.
// An optional ?id=<hex> filter returns only the matching trace.
func (tb *TraceBuffer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		d := tb.Dump()
		if want := r.URL.Query().Get("id"); want != "" {
			filtered := d.Traces[:0:0]
			for _, t := range d.Traces {
				if t.ID.String() == want {
					filtered = append(filtered, t)
				}
			}
			d.Traces = filtered
			d.Exemplars = nil
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d)
	})
}
