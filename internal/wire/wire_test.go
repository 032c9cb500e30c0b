package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/intern"
	"github.com/spatiotext/latest/internal/stream"
)

func randKeywords(rng *rand.Rand) []string {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	kws := make([]string, n)
	for i := range kws {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		kws[i] = string(b)
	}
	return kws
}

func randObject(rng *rand.Rand) stream.Object {
	return stream.Object{
		ID:        rng.Uint64(),
		Loc:       geo.Pt(rng.NormFloat64()*100, rng.NormFloat64()*100),
		Keywords:  randKeywords(rng),
		Timestamp: rng.Int63(),
	}
}

func randQuery(rng *rand.Rand) stream.Query {
	q := stream.Query{Timestamp: rng.Int63(), Keywords: randKeywords(rng)}
	if rng.Intn(2) == 0 {
		q.HasRange = true
		q.Range = geo.Rect{
			MinX: rng.NormFloat64(), MinY: rng.NormFloat64(),
			MaxX: rng.NormFloat64(), MaxY: rng.NormFloat64(),
		}
	}
	return q
}

// readOne parses a single encoded frame through the FrameReader.
func readOne(t *testing.T, frame []byte) (Header, []byte) {
	t.Helper()
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(frame)), 0)
	h, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	out := append([]byte(nil), payload...)
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want EOF after single frame, got %v", err)
	}
	return h, out
}

// TestFeedBatchRoundTrip: encode→decode→re-encode is bitwise identical and
// the decoded objects equal the originals, across many random batches.
func TestFeedBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		objs := make([]stream.Object, rng.Intn(8))
		for i := range objs {
			objs[i] = randObject(rng)
		}
		frame := AppendFeedBatch(nil, uint64(trial), objs)
		h, payload := readOne(t, frame)
		if h.Type != TFeedBatch || h.ID != uint64(trial) {
			t.Fatalf("header %+v", h)
		}
		got, err := DecodeFeedBatch(payload, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(objs) {
			t.Fatalf("count %d != %d", len(got), len(objs))
		}
		for i := range objs {
			// nil and empty keyword slices encode identically; normalize.
			a, b := objs[i], got[i]
			if len(a.Keywords) == 0 {
				a.Keywords = nil
			}
			if len(b.Keywords) == 0 {
				b.Keywords = nil
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("object %d: %+v != %+v", i, b, a)
			}
		}
		if again := AppendFeedBatch(nil, uint64(trial), got); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs at trial %d", trial)
		}
	}
}

// TestQueryBatchRoundTrip covers TQueryBatch the same way, including NaN
// coordinates (the wire passes them through; the engine's validation is
// the layer that rejects them).
func TestQueryBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		qs := make([]stream.Query, 1+rng.Intn(6))
		for i := range qs {
			qs[i] = randQuery(rng)
		}
		if trial == 0 {
			qs[0].HasRange = true
			qs[0].Range.MinX = math.NaN()
		}
		deadline := rng.Uint32()
		frame := AppendQueryBatch(nil, uint64(trial), deadline, qs)
		h, payload := readOne(t, frame)
		if h.Type != TQueryBatch {
			t.Fatalf("type %v", h.Type)
		}
		gotDeadline, got, err := DecodeQueryBatch(payload, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotDeadline != deadline {
			t.Fatalf("deadline %d != %d", gotDeadline, deadline)
		}
		if again := AppendQueryBatch(nil, uint64(trial), gotDeadline, got); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs at trial %d", trial)
		}
	}
}

func TestEstimateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		q := randQuery(rng)
		frame := AppendEstimate(nil, 7, 1234, &q)
		_, payload := readOne(t, frame)
		deadline, got, err := DecodeEstimate(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if deadline != 1234 {
			t.Fatalf("deadline %d", deadline)
		}
		if again := AppendEstimate(nil, 7, deadline, &got); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs")
		}
	}
}

func TestResultFramesRoundTrip(t *testing.T) {
	// Ack.
	h, p := readOne(t, AppendAck(nil, 9, 42))
	if h.Type != TAck {
		t.Fatalf("type %v", h.Type)
	}
	if n, err := DecodeAck(p); err != nil || n != 42 {
		t.Fatalf("ack %d %v", n, err)
	}
	// EstimateResult, including a negative and an infinite value.
	for _, v := range []float64{0, -1.5, 12345.75, math.Inf(1)} {
		_, p := readOne(t, AppendEstimateResult(nil, 1, v))
		got, err := DecodeEstimateResult(p)
		if err != nil || !(got == v || (math.IsInf(v, 1) && math.IsInf(got, 1))) {
			t.Fatalf("estimate result %v %v", got, err)
		}
	}
	// QueryBatchResult.
	ests := []float64{1.5, 0, 9e9}
	acts := []int{2, 0, -1}
	frame := AppendQueryBatchResult(nil, 3, ests, acts)
	_, p = readOne(t, frame)
	gotE, gotA, err := DecodeQueryBatchResult(p, nil, nil)
	if err != nil || !reflect.DeepEqual(gotE, ests) || !reflect.DeepEqual(gotA, acts) {
		t.Fatalf("query batch result %v %v %v", gotE, gotA, err)
	}
	if again := AppendQueryBatchResult(nil, 3, gotE, gotA); !bytes.Equal(again, frame) {
		t.Fatalf("re-encode differs")
	}
	// Error.
	frame = AppendError(nil, 5, CodeBackpressure, 250, "window full")
	_, p = readOne(t, frame)
	re, err := DecodeError(p)
	if err != nil {
		t.Fatalf("decode error frame: %v", err)
	}
	if re.Code != CodeBackpressure || re.RetryAfter != 250*time.Millisecond || re.Msg != "window full" {
		t.Fatalf("remote error %+v", re)
	}
	if !re.Temporary() {
		t.Fatal("backpressure should be temporary")
	}
	// Ping/pong are empty-payload frames.
	h, p = readOne(t, AppendPing(nil, 11))
	if h.Type != TPing || len(p) != 0 {
		t.Fatalf("ping %v %d", h.Type, len(p))
	}
	h, p = readOne(t, AppendPong(nil, 11))
	if h.Type != TPong || len(p) != 0 {
		t.Fatalf("pong %v %d", h.Type, len(p))
	}
}

// TestPipelinedFrames reads several frames back-to-back off one stream.
func TestPipelinedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var buf []byte
	objs := []stream.Object{randObject(rng)}
	q := randQuery(rng)
	buf = AppendFeedBatch(buf, 1, objs)
	buf = AppendFeedBatch(buf, 2, objs)
	buf = AppendQueryBatch(buf, 3, 0, []stream.Query{q})
	buf = AppendPing(buf, 4)
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(buf)), 0)
	wantTypes := []Type{TFeedBatch, TFeedBatch, TQueryBatch, TPing}
	for i, want := range wantTypes {
		h, _, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h.Type != want || h.ID != uint64(i+1) {
			t.Fatalf("frame %d: %+v", i, h)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func protoCode(t *testing.T, err error) Code {
	t.Helper()
	var pe *ProtoError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ProtoError, got %T: %v", err, err)
	}
	return pe.Code
}

func TestHeaderRejections(t *testing.T) {
	good := AppendPing(nil, 1)

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ParseHeader(bad, 0); protoCode(t, err) != CodeMalformed {
		t.Fatalf("bad magic: %v", err)
	}

	// Bad CRC (flip a header byte after the CRC was computed).
	bad = append([]byte(nil), good...)
	bad[9] ^= 0xFF
	if _, err := ParseHeader(bad, 0); protoCode(t, err) != CodeMalformed {
		t.Fatalf("bad CRC: %v", err)
	}

	// Version skew (re-CRC so the version check is reached).
	bad = append([]byte(nil), good...)
	bad[4] = Version + 1
	reCRC(bad)
	if _, err := ParseHeader(bad, 0); protoCode(t, err) != CodeVersionSkew {
		t.Fatalf("version skew: %v", err)
	}

	// Oversize declared length.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[16:20], 1<<30)
	reCRC(bad)
	if _, err := ParseHeader(bad, 1024); protoCode(t, err) != CodeTooLarge {
		t.Fatalf("oversize: %v", err)
	}

	// Truncated header.
	if _, err := ParseHeader(good[:HeaderSize-1], 0); protoCode(t, err) != CodeMalformed {
		t.Fatal("truncated header accepted")
	}
}

func TestPayloadRejections(t *testing.T) {
	// Batch count larger than the payload could possibly hold.
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, 1<<31)
	if _, err := DecodeFeedBatch(p, nil); protoCode(t, err) != CodeMalformed {
		t.Fatalf("absurd count: %v", err)
	}
	// Trailing garbage after a valid payload.
	frame := AppendAck(nil, 1, 7)
	payload := append(frame[HeaderSize:len(frame):len(frame)], 0xEE)
	if _, err := DecodeAck(payload); protoCode(t, err) != CodeMalformed {
		t.Fatal("trailing garbage accepted")
	}
	// Unknown query flags.
	qp := []byte{0, 0, 0, 0 /* deadline */, 0x80 /* flags */}
	if _, _, err := DecodeEstimate(qp); protoCode(t, err) != CodeMalformed {
		t.Fatal("unknown flags accepted")
	}
	// Truncated keyword.
	q := stream.Query{Keywords: []string{"fire"}, Timestamp: 1}
	frame = AppendEstimate(nil, 1, 0, &q)
	if _, _, err := DecodeEstimate(frame[HeaderSize : len(frame)-2]); protoCode(t, err) != CodeMalformed {
		t.Fatal("truncated keyword accepted")
	}
}

// TestFrameReaderPartialFrame: a stream that ends mid-frame yields
// io.ErrUnexpectedEOF, not a hang or a clean EOF.
func TestFrameReaderPartialFrame(t *testing.T) {
	frame := AppendAck(nil, 1, 7)
	for _, cut := range []int{1, HeaderSize - 1, HeaderSize, len(frame) - 1} {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(frame[:cut])), 0)
		if _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestZeroLengthBatch: an empty feed batch is a valid frame.
func TestZeroLengthBatch(t *testing.T) {
	frame := AppendFeedBatch(nil, 1, nil)
	_, payload := readOne(t, frame)
	objs, err := DecodeFeedBatch(payload, nil)
	if err != nil || len(objs) != 0 {
		t.Fatalf("empty batch: %v %d", err, len(objs))
	}
}

// TestBufPool: pooled buffers come back empty and usable.
func TestBufPool(t *testing.T) {
	b := GetBuf()
	*b = AppendPing(*b, 1)
	PutBuf(b)
	b2 := GetBuf()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(*b2))
	}
	PutBuf(b2)
}

// reCRC recomputes a frame header's CRC after a deliberate mutation, so
// the parser gets past the integrity check to the semantic one under test.
func reCRC(frame []byte) {
	binary.LittleEndian.PutUint32(frame[20:24], crc32.ChecksumIEEE(frame[:20]))
}

// TestStringsAndClassifiers pins the human-readable names and the
// request/retryable classifications — these strings feed metric labels
// and log lines, so a rename is a breaking change.
func TestStringsAndClassifiers(t *testing.T) {
	typeNames := map[Type]string{
		TFeedBatch: "feed_batch", TEstimate: "estimate", TQueryBatch: "query_batch",
		TPing: "ping", TAck: "ack", TEstimateResult: "estimate_result",
		TQueryBatchResult: "query_batch_result", TPong: "pong", TError: "error",
		Type(0x30): "Type(0x30)",
	}
	for ty, want := range typeNames {
		if got := ty.String(); got != want {
			t.Errorf("Type %d String = %q, want %q", ty, got, want)
		}
	}
	for _, ty := range []Type{TFeedBatch, TEstimate, TQueryBatch, TPing} {
		if !ty.Request() {
			t.Errorf("%s must be a request", ty)
		}
	}
	for _, ty := range []Type{TAck, TPong, TError, Type(0)} {
		if ty.Request() {
			t.Errorf("%s must not be a request", ty)
		}
	}
	codeNames := map[Code]string{
		CodeMalformed: "malformed", CodeTooLarge: "too_large",
		CodeVersionSkew: "version_skew", CodeUnknownType: "unknown_type",
		CodeBackpressure: "backpressure", CodeDraining: "draining",
		CodeDeadlineExceeded: "deadline_exceeded", CodeInternal: "internal",
		Code(99): "Code(99)",
	}
	for c, want := range codeNames {
		if got := c.String(); got != want {
			t.Errorf("Code %d String = %q, want %q", c, got, want)
		}
		wantRetry := c == CodeBackpressure || c == CodeDraining
		if c.Retryable() != wantRetry {
			t.Errorf("Code %s Retryable = %v", c, !wantRetry)
		}
	}
}

func TestErrorStrings(t *testing.T) {
	pe := &ProtoError{Code: CodeMalformed, Reason: "bad count"}
	if got := pe.Error(); got != "wire: malformed: bad count" {
		t.Errorf("ProtoError = %q", got)
	}
	re := &RemoteError{Code: CodeBackpressure, RetryAfter: 50 * time.Millisecond, Msg: "full"}
	if got := re.Error(); got != "server: backpressure (retry after 50ms): full" {
		t.Errorf("RemoteError with hint = %q", got)
	}
	re2 := &RemoteError{Code: CodeInternal, Msg: "boom"}
	if got := re2.Error(); got != "server: internal: boom" {
		t.Errorf("RemoteError = %q", got)
	}
	if re2.Temporary() || !re.Temporary() {
		t.Error("Temporary misclassified")
	}
}

// TestPeekHeader: peeking parses a fully-buffered header without
// consuming it, declines short or malformed buffers, and leaves Next
// able to deliver the same frame.
func TestPeekHeader(t *testing.T) {
	frame := AppendPing(nil, 77)
	second := AppendPong(nil, 78)

	br := bufio.NewReader(bytes.NewReader(append(append([]byte{}, frame...), second...)))
	fr := NewFrameReader(br, 0)
	// Nothing buffered yet: bufio hasn't read from the source.
	if _, ok := fr.PeekHeader(); ok {
		t.Fatal("peek succeeded with empty buffer")
	}
	// Prime the buffer, then peek must see the ping without consuming.
	if _, err := br.Peek(1); err != nil {
		t.Fatal(err)
	}
	h, ok := fr.PeekHeader()
	if !ok || h.Type != TPing || h.ID != 77 {
		t.Fatalf("peek = %+v, %v", h, ok)
	}
	if got := fr.Buffered(); got < HeaderSize {
		t.Fatalf("Buffered = %d after peek", got)
	}
	h, _, err := fr.Next()
	if err != nil || h.Type != TPing || h.ID != 77 {
		t.Fatalf("Next after peek = %+v, %v", h, err)
	}
	h, ok = fr.PeekHeader()
	if !ok || h.Type != TPong || h.ID != 78 {
		t.Fatalf("second peek = %+v, %v", h, ok)
	}

	// A corrupted buffered header declines the peek but surfaces the
	// typed error from Next.
	bad := append([]byte{}, frame...)
	bad[0] = 'X' // break the magic
	br = bufio.NewReader(bytes.NewReader(bad))
	fr = NewFrameReader(br, 0)
	br.Peek(1)
	if _, ok := fr.PeekHeader(); ok {
		t.Fatal("peek accepted corrupt header")
	}
	var pe *ProtoError
	if _, _, err := fr.Next(); !errors.As(err, &pe) {
		t.Fatalf("Next on corrupt header = %v", err)
	}
}

// TestDecodeFeedBatchSharesKeywords: equal keywords in a batch decode to
// one string, each object's keyword slice is its own stretch of the
// batch's one array — an append to it cannot reach its neighbour's — and
// decoding a batch of known keywords allocates that array and little else.
// A payload cut anywhere is refused, never sliced past what was counted.
func TestDecodeFeedBatchSharesKeywords(t *testing.T) {
	vocab := []string{"fire", "flood", "quake", "storm", "smoke", "ash", "mud", "hail", "surge", "gale"}
	objs := make([]stream.Object, 64)
	for i := range objs {
		objs[i] = stream.Object{ID: uint64(i), Timestamp: int64(i),
			Keywords: []string{vocab[i%len(vocab)], vocab[(i/3)%len(vocab)]}}
	}
	payload := AppendFeedBatch(nil, 1, objs)[HeaderSize:]
	got, err := DecodeFeedBatch(payload, nil)
	if err != nil || !reflect.DeepEqual(got, objs) {
		t.Fatalf("round trip: %v", err)
	}
	first := map[string]*byte{}
	for i := range got {
		for _, kw := range got[i].Keywords {
			if p, seen := first[kw]; !seen {
				first[kw] = unsafe.StringData(kw)
			} else if p != unsafe.StringData(kw) {
				t.Fatalf("object %d: keyword %q is a second copy", i, kw)
			}
		}
	}
	if &got[0].Keywords[0] == &got[10].Keywords[0] {
		t.Fatal("objects 0 and 10 share a keyword slice")
	}
	if grown := append(got[0].Keywords, "x"); &grown[0] == &got[0].Keywords[0] || got[1].Keywords[0] != objs[1].Keywords[0] {
		t.Fatal("appending to object 0's keywords wrote into the shared array")
	}
	// The keyword array, and slack. The median of single runs, not their
	// mean: a pooled table that the collector (or the race detector's pool,
	// one Put in four) dropped costs a table and its vocabulary again.
	dst := got
	runs := make([]float64, 21)
	for i := range runs {
		runs[i] = testing.AllocsPerRun(1, func() { dst, _ = DecodeFeedBatch(payload, dst[:0]) })
	}
	sort.Float64s(runs)
	if n := runs[len(runs)/2]; n > 3 {
		t.Errorf("decoding a batch of %d objects allocates %v times, want at most 3", len(objs), n)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeFeedBatch(payload[:cut], dst[:0]); err == nil {
			t.Fatalf("payload cut at %d of %d bytes decodes", cut, len(payload))
		}
	}
}

// TestDecodeFeedBatchIntoReusesKeywords: a batch's keywords are carved
// after what the array already holds, so the objects of batches decoded
// into one array, as a coalesced feed is, never share a slot; an array
// too small is replaced by a larger one; and an array handed back empty
// is filled again without allocating it anew.
func TestDecodeFeedBatchIntoReusesKeywords(t *testing.T) {
	batch := func(id uint64, kws ...string) ([]stream.Object, []byte) {
		objs := []stream.Object{{ID: id, Keywords: kws}, {ID: id + 1}, {ID: id + 2, Keywords: kws[:1]}}
		return objs, AppendFeedBatch(nil, id, objs)[HeaderSize:]
	}
	headObjs, head := batch(1, "fire", "smoke")
	nextObjs, next := batch(4, "flood", "mud", "surge")

	kws := make([]string, 0, 5)
	got, kws, err := DecodeFeedBatchInto(head, nil, kws)
	if err != nil || !reflect.DeepEqual(got, headObjs) || len(kws) != 3 || cap(kws) != 5 {
		t.Fatalf("head: %v, %d of %d keyword slots", err, len(kws), cap(kws))
	}
	more, kws, err := DecodeFeedBatchInto(next, nil, kws)
	if err != nil || !reflect.DeepEqual(more, nextObjs) || !reflect.DeepEqual(got, headObjs) {
		t.Fatalf("follower: %v, or it overwrote the head's keywords", err)
	}
	if len(kws) != 4 || cap(kws) < 4 || &kws[0] != &more[0].Keywords[0] {
		t.Fatalf("a follower that does not fit takes a new array: %d of %d slots", len(kws), cap(kws))
	}
	// Both measurements decode through one table of their own: a table the
	// pool dropped (the race detector's drops one Put in four) would charge
	// its vocabulary to whichever path drew it.
	tab := new(intern.Table)
	array := &kws[0]
	allocs := testing.AllocsPerRun(20, func() {
		more, kws, err = decodeFeedBatch(next, more[:0], kws[:0], tab)
	})
	if err != nil || &kws[0] != array || !reflect.DeepEqual(more, nextObjs) {
		t.Fatalf("reused array: %v, moved %v", err, &kws[0] != array)
	}
	if plain := testing.AllocsPerRun(20, func() { more, _, _ = decodeFeedBatch(next, more[:0], nil, tab) }); allocs >= plain {
		t.Errorf("decoding into a reused array allocates %v times, into a fresh one %v", allocs, plain)
	}
}
