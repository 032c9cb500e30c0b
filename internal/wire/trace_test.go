package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/spatiotext/latest/internal/stream"
)

// TestTracedBuildersRoundTrip: every Append*Traced builder sets FlagTrace,
// SplitTrace recovers the exact ID, and the remaining payload decodes to the
// original request.
func TestTracedBuildersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := []stream.Object{randObject(rng), randObject(rng)}
	q := randQuery(rng)
	qs := []stream.Query{randQuery(rng), randQuery(rng), randQuery(rng)}

	cases := []struct {
		name  string
		typ   Type
		build func(id, traceID uint64) []byte
	}{
		{"ping", TPing, func(id, tr uint64) []byte { return AppendPingTraced(nil, id, tr) }},
		{"feed", TFeedBatch, func(id, tr uint64) []byte { return AppendFeedBatchTraced(nil, id, tr, objs) }},
		{"estimate", TEstimate, func(id, tr uint64) []byte { return AppendEstimateTraced(nil, id, tr, 250, &q) }},
		{"query", TQueryBatch, func(id, tr uint64) []byte { return AppendQueryBatchTraced(nil, id, tr, 250, qs) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const id, traceID uint64 = 42, 0xfeedfacecafebeef
			frame := tc.build(id, traceID)
			h, payload := readOne(t, frame)
			if h.Type != tc.typ || h.ID != id || h.Flags != FlagTrace {
				t.Fatalf("header %+v", h)
			}
			gotTrace, rest, err := SplitTrace(h, payload)
			if err != nil {
				t.Fatalf("SplitTrace: %v", err)
			}
			if gotTrace != traceID {
				t.Fatalf("trace ID %#x != %#x", gotTrace, traceID)
			}
			switch tc.typ {
			case TFeedBatch:
				got, err := DecodeFeedBatch(rest, nil)
				if err != nil || len(got) != len(objs) {
					t.Fatalf("decode feed: %v (%d objs)", err, len(got))
				}
			case TEstimate:
				dl, gq, err := DecodeEstimate(rest)
				if err != nil || dl != 250 {
					t.Fatalf("decode estimate: %v dl=%d", err, dl)
				}
				if gq.Timestamp != q.Timestamp {
					t.Fatalf("query %+v != %+v", gq, q)
				}
			case TQueryBatch:
				dl, gqs, err := DecodeQueryBatch(rest, nil)
				if err != nil || dl != 250 || len(gqs) != len(qs) {
					t.Fatalf("decode query batch: %v dl=%d n=%d", err, dl, len(gqs))
				}
			case TPing:
				if len(rest) != 0 {
					t.Fatalf("ping payload %d bytes after trace", len(rest))
				}
			}
		})
	}
}

// TestTracedZeroIDIsUntraced: trace ID 0 encodes the plain frame, byte for
// byte — existing captures, goldens and old servers see no difference.
func TestTracedZeroIDIsUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := []stream.Object{randObject(rng)}
	q := randQuery(rng)
	qs := []stream.Query{randQuery(rng)}

	pairs := []struct {
		name   string
		traced []byte
		plain  []byte
	}{
		{"ping", AppendPingTraced(nil, 9, 0), AppendPing(nil, 9)},
		{"feed", AppendFeedBatchTraced(nil, 9, 0, objs), AppendFeedBatch(nil, 9, objs)},
		{"estimate", AppendEstimateTraced(nil, 9, 0, 100, &q), AppendEstimate(nil, 9, 100, &q)},
		{"query", AppendQueryBatchTraced(nil, 9, 0, 100, qs), AppendQueryBatch(nil, 9, 100, qs)},
		{"map-fetch", AppendMapFetchTraced(nil, 9, 0), AppendMapFetch(nil, 9)},
	}
	for _, p := range pairs {
		if !bytes.Equal(p.traced, p.plain) {
			t.Errorf("%s: traceID 0 frame differs from untraced builder", p.name)
		}
	}
}

// TestSplitTraceUntracedPassThrough: a flagless frame passes its payload
// through untouched with trace ID 0.
func TestSplitTraceUntracedPassThrough(t *testing.T) {
	payload := []byte{1, 2, 3}
	id, rest, err := SplitTrace(Header{Type: TEstimate}, payload)
	if err != nil || id != 0 {
		t.Fatalf("SplitTrace = %d, %v", id, err)
	}
	if !reflect.DeepEqual(rest, payload) {
		t.Fatalf("payload altered: %v", rest)
	}
}

// TestSplitTraceRejections: unknown flag bits and short traced payloads are
// malformed — the reserved-must-be-zero contract with old peers.
func TestSplitTraceRejections(t *testing.T) {
	if _, _, err := SplitTrace(Header{Flags: 1 << 5}, nil); protoCode(t, err) != CodeMalformed {
		t.Fatalf("unknown flag: %v", err)
	}
	if _, _, err := SplitTrace(Header{Flags: FlagTrace | 1<<9}, make([]byte, 16)); protoCode(t, err) != CodeMalformed {
		t.Fatalf("mixed unknown flag: %v", err)
	}
	if _, _, err := SplitTrace(Header{Flags: FlagTrace}, make([]byte, 7)); protoCode(t, err) != CodeMalformed {
		t.Fatalf("short traced payload: %v", err)
	}
}

// TestFrameReaderRejectsUnknownFlags: the reader itself delivers frames with
// any flags (validation is SplitTrace's job at dispatch), but PutHeader must
// round-trip the flag bits for that to be safe.
func TestHeaderFlagsRoundTrip(t *testing.T) {
	frame := AppendPingTraced(nil, 3, 0xabc)
	h, _ := readOne(t, frame)
	if h.Flags != FlagTrace {
		t.Fatalf("flags = %#x", h.Flags)
	}
}
