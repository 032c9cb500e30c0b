package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestNewTraceIDUniqueNonZero(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %v", id)
		}
		seen[id] = true
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef12345678)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef12345678"` {
		t.Fatalf("marshal = %s", b)
	}
	var back TraceID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %v != %v", back, id)
	}
}

func TestNilActiveTraceIsSafe(t *testing.T) {
	var at *ActiveTrace
	if at.ID() != 0 {
		t.Fatal("nil ID not zero")
	}
	at.AddSpan("x", time.Now())
	at.AddSpanDur("y", "d", time.Millisecond)
	at.BeginSpan("z")
	at.EndSpan()
	at.SetError("nope")
	at.Finish() // must not panic
}

func TestTraceBufferSamplingAndRing(t *testing.T) {
	tb := NewTraceBuffer(4, 2) // keep 4, sample every 2nd
	finished := 0
	for i := 0; i < 10; i++ {
		tr := tb.Start("estimate", NewTraceID())
		sampled := i%2 == 0 // first Start is selected, then every other
		if (tr != nil) != sampled {
			t.Fatalf("call %d: sampled=%v want %v", i, tr != nil, sampled)
		}
		if tr != nil {
			tr.AddSpan("engine", time.Now())
			tr.Finish()
			finished++
		}
	}
	if tb.Seen() != 10 {
		t.Fatalf("Seen = %d", tb.Seen())
	}
	if tb.Sampled() != uint64(finished) {
		t.Fatalf("Sampled = %d want %d", tb.Sampled(), finished)
	}
	traces := tb.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces))
	}
	// Oldest-first: later traces overwrote earlier ones.
	for i := 1; i < len(traces); i++ {
		if traces[i].StartUnixNS < traces[i-1].StartUnixNS {
			t.Fatal("ring not oldest-first")
		}
	}
}

// TestTraceBufferHoldsWhatItRetains: a buffer that never sampled a request
// costs its struct whatever its depth, and one that did keeps the newest
// depth traces oldest-first, while the ring grows and once it wraps.
func TestTraceBufferHoldsWhatItRetains(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idle := NewTraceBuffer(1<<16, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<10 {
		t.Errorf("an untouched buffer of depth %d allocates %d bytes", idle.depth, got)
	}
	if idle.Snapshot() == nil || len(idle.Snapshot()) != 0 || idle.Dump().Depth != 1<<16 {
		t.Errorf("untouched buffer: snapshot %v, depth %d", idle.Snapshot(), idle.Dump().Depth)
	}

	const depth = 40 // not a power of two: append's capacity overshoots it
	tb := NewTraceBuffer(depth, 1)
	for i := 1; i <= 3*depth+7; i++ {
		tb.push(Trace{ID: TraceID(i)})
		traces := tb.Snapshot()
		if want := min(i, depth); len(traces) != want {
			t.Fatalf("after %d traces: %d retained, want %d", i, len(traces), want)
		}
		for k, tr := range traces {
			if want := TraceID(i - len(traces) + 1 + k); tr.ID != want {
				t.Fatalf("after %d traces: position %d holds trace %d, want %d", i, k, tr.ID, want)
			}
		}
	}
}

func TestTraceBufferUntracedAndNil(t *testing.T) {
	tb := NewTraceBuffer(2, 1)
	if tr := tb.Start("feed", 0); tr != nil {
		t.Fatal("zero trace ID must not start a trace")
	}
	var nilBuf *TraceBuffer
	if tr := nilBuf.Start("feed", NewTraceID()); tr != nil {
		t.Fatal("nil buffer must not start a trace")
	}
	if nilBuf.Dump().Depth != 0 {
		t.Fatal("nil buffer dump not empty")
	}
}

func TestActiveTraceSpans(t *testing.T) {
	tb := NewTraceBuffer(8, 1)
	id := NewTraceID()
	tr := tb.Start("estimate", id)
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.AddSpan("engine", start)
	tr.AddSpanDur("estimator", "H4096", 500*time.Microsecond)
	tr.BeginSpan("write")
	time.Sleep(time.Millisecond)
	tr.SetError("deadline_exceeded")
	tr.Finish() // closes the open write span

	traces := tb.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces", len(traces))
	}
	tt := traces[0]
	if tt.ID != id || tt.Op != "estimate" || tt.Error != "deadline_exceeded" {
		t.Fatalf("trace = %+v", tt)
	}
	if len(tt.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tt.Spans))
	}
	if tt.Spans[0].Name != "engine" || tt.Spans[0].DurNS < int64(time.Millisecond) {
		t.Fatalf("engine span = %+v", tt.Spans[0])
	}
	if tt.Spans[1].Detail != "H4096" {
		t.Fatalf("estimator span detail = %q", tt.Spans[1].Detail)
	}
	if tt.Spans[2].Name != "write" || tt.Spans[2].DurNS < int64(time.Millisecond) {
		t.Fatalf("write span = %+v", tt.Spans[2])
	}
	if tt.DurNS < tt.Spans[2].StartNS+tt.Spans[2].DurNS {
		t.Fatal("trace duration shorter than its last span")
	}
}

func TestExemplars(t *testing.T) {
	tb := NewTraceBuffer(8, 1)
	tr := tb.Start("query", NewTraceID())
	tr.Finish()
	ex := tb.Exemplars()
	if len(ex) != 1 {
		t.Fatalf("%d exemplars", len(ex))
	}
	if ex[0].Op != "query" || ex[0].TraceID == 0 || ex[0].LE == "" {
		t.Fatalf("exemplar = %+v", ex[0])
	}
	// A second trace in the same bucket replaces the exemplar.
	tr2 := tb.Start("query", NewTraceID())
	tr2.Finish()
	ex2 := tb.Exemplars()
	if len(ex2) == 1 && ex2[0].TraceID == ex[0].TraceID {
		t.Fatal("exemplar not replaced by newer trace")
	}
}

func TestTraceHandler(t *testing.T) {
	tb := NewTraceBuffer(8, 1)
	a := tb.Start("estimate", NewTraceID())
	aID := a.ID()
	a.Finish()
	b := tb.Start("feed", NewTraceID())
	b.Finish()

	rec := httptest.NewRecorder()
	tb.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var dump TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, rec.Body.String())
	}
	if dump.Seen != 2 || dump.Sampled != 2 || len(dump.Traces) != 2 {
		t.Fatalf("dump = seen %d sampled %d traces %d", dump.Seen, dump.Sampled, len(dump.Traces))
	}
	if len(dump.Exemplars) == 0 {
		t.Fatal("no exemplars in dump")
	}

	// ?id= filters to the one matching trace.
	rec = httptest.NewRecorder()
	tb.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?id="+aID.String(), nil))
	var filtered TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Traces) != 1 || filtered.Traces[0].ID != aID {
		t.Fatalf("filtered = %+v", filtered.Traces)
	}
	if !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("content type = %q", rec.Header().Get("Content-Type"))
	}
}
