package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// fakeEngine is a deterministic Engine: fixed estimate, optional per-call
// delay, optional gate that blocks estimates until released, optional
// panic injection.
type fakeEngine struct {
	mu      sync.Mutex
	batches int
	objects int

	estimate float64
	delay    time.Duration
	gate     chan struct{} // non-nil: estimates block until a receive succeeds
	panicky  bool
	drift    []telemetry.DriftSample // reported by TelemetrySnapshot
}

func (f *fakeEngine) FeedBatch(objs []stream.Object) {
	f.mu.Lock()
	f.batches++
	f.objects += len(objs)
	f.mu.Unlock()
}

func (f *fakeEngine) counts() (batches, objects int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches, f.objects
}

func (f *fakeEngine) EstimateAndExecute(q *stream.Query) (float64, int) {
	if f.panicky {
		panic("injected engine fault")
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.estimate, int(f.estimate)
}

func (f *fakeEngine) EstimateAndExecuteBatch(qs []stream.Query) ([]float64, []int) {
	ests := make([]float64, len(qs))
	acts := make([]int, len(qs))
	for i := range qs {
		ests[i], acts[i] = f.EstimateAndExecute(&qs[i])
	}
	return ests, acts
}

func (f *fakeEngine) TelemetrySnapshot() telemetry.Snapshot {
	return telemetry.Snapshot{Engine: "fake", Drift: f.drift}
}

// The remaining latest.Engine methods are inert: the serving layer never
// calls them, but the unified interface requires every shape to carry them.
func (f *fakeEngine) Feed(o stream.Object)                         { f.FeedBatch([]stream.Object{o}) }
func (f *fakeEngine) Stats() latest.Stats                          { return latest.Stats{} }
func (f *fakeEngine) Shutdown(context.Context) error               { return nil }
func (f *fakeEngine) Snapshot(context.Context, latest.Store) error { return nil }
func (f *fakeEngine) Restore(context.Context, latest.Store) error  { return nil }

// rawConn drives the wire protocol directly, with no client-side help.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr *wire.FrameReader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, fr: wire.NewFrameReader(bufio.NewReader(nc), 0)}
}

// write sends all frames in one TCP write so the server sees them as one
// pipelined burst.
func (r *rawConn) write(frames ...[]byte) {
	r.t.Helper()
	var buf []byte
	for _, f := range frames {
		buf = append(buf, f...)
	}
	if _, err := r.nc.Write(buf); err != nil {
		r.t.Fatalf("write: %v", err)
	}
}

// read returns the next frame with the payload copied out.
func (r *rawConn) read() (wire.Header, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload, err := r.fr.Next()
	if err != nil {
		r.t.Fatalf("read frame: %v", err)
	}
	return h, append([]byte(nil), payload...)
}

func (r *rawConn) readErr() (wire.Header, *wire.RemoteError) {
	r.t.Helper()
	h, payload := r.read()
	if h.Type != wire.TError {
		r.t.Fatalf("expected TError, got %v", h.Type)
	}
	re, err := wire.DecodeError(payload)
	if err != nil {
		r.t.Fatalf("decode error frame: %v", err)
	}
	return h, re
}

func testObj(id uint64) stream.Object {
	o := stream.Object{ID: id, Timestamp: int64(id), Keywords: []string{"fire", "storm"}}
	o.Loc.X, o.Loc.Y = -118.2+float64(id)*0.001, 34.05
	return o
}

func testQuery() stream.Query {
	var p geo.Point
	p.X, p.Y = -118.2, 34.05
	return stream.HybridQ(geo.CenteredRect(p, 1, 1), []string{"fire"}, 6)
}

func startServer(t *testing.T, eng Engine, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestPingEstimateQueryBatch(t *testing.T) {
	eng := &fakeEngine{estimate: 42.5}
	srv := startServer(t, eng, Config{})
	rc := dialRaw(t, srv.Addr())

	rc.write(wire.AppendPing(nil, 7))
	if h, _ := rc.read(); h.Type != wire.TPong || h.ID != 7 {
		t.Fatalf("bad pong: %+v", h)
	}

	q := testQuery()
	rc.write(wire.AppendEstimate(nil, 8, 0, &q))
	h, payload := rc.read()
	if h.Type != wire.TEstimateResult || h.ID != 8 {
		t.Fatalf("bad estimate response: %+v", h)
	}
	if est, err := wire.DecodeEstimateResult(payload); err != nil || est != 42.5 {
		t.Fatalf("estimate = %v, %v", est, err)
	}

	rc.write(wire.AppendQueryBatch(nil, 9, 0, []stream.Query{q, q}))
	h, payload = rc.read()
	if h.Type != wire.TQueryBatchResult || h.ID != 9 {
		t.Fatalf("bad query batch response: %+v", h)
	}
	ests, acts, err := wire.DecodeQueryBatchResult(payload, nil, nil)
	if err != nil || len(ests) != 2 || len(acts) != 2 || ests[0] != 42.5 || acts[1] != 42 {
		t.Fatalf("query batch = %v %v %v", ests, acts, err)
	}
}

func TestFeedAckAndCoalescing(t *testing.T) {
	eng := &fakeEngine{}
	srv := startServer(t, eng, Config{})
	rc := dialRaw(t, srv.Addr())

	// Five feed frames in one burst: each must be acked individually, but
	// the engine should see fewer than five batches.
	var frames [][]byte
	for i := 0; i < 5; i++ {
		frames = append(frames, wire.AppendFeedBatch(nil, uint64(100+i),
			[]stream.Object{testObj(uint64(2 * i)), testObj(uint64(2*i + 1))}))
	}
	rc.write(frames...)
	seen := map[uint64]uint32{}
	for i := 0; i < 5; i++ {
		h, payload := rc.read()
		if h.Type != wire.TAck {
			t.Fatalf("frame %d: expected ack, got %v", i, h.Type)
		}
		n, err := wire.DecodeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		seen[h.ID] = n
	}
	for i := 0; i < 5; i++ {
		if seen[uint64(100+i)] != 2 {
			t.Fatalf("ack counts: %v", seen)
		}
	}
	batches, objects := eng.counts()
	if objects != 10 {
		t.Fatalf("engine saw %d objects", objects)
	}
	if batches >= 5 {
		t.Fatalf("no coalescing: %d batches for 5 frames", batches)
	}
	if srv.sample().CoalescedFeeds == 0 {
		t.Fatal("coalesced counter did not move")
	}
}

func TestMalformedPayloadKeepsConnection(t *testing.T) {
	srv := startServer(t, &fakeEngine{}, Config{})
	rc := dialRaw(t, srv.Addr())

	// Valid header, garbage payload: typed error, connection stays up.
	frame := wire.AppendFeedBatch(nil, 11, []stream.Object{testObj(1)})
	frame = frame[:len(frame)-3] // truncate payload bytes
	hdr := frame[:wire.HeaderSize]
	wire.PutHeader(hdr, wire.Header{Type: wire.TFeedBatch, ID: 11,
		Length: uint32(len(frame) - wire.HeaderSize)})
	rc.write(frame)
	h, re := rc.readErr()
	if h.ID != 11 || re.Code != wire.CodeMalformed {
		t.Fatalf("got id=%d code=%v", h.ID, re.Code)
	}

	rc.write(wire.AppendPing(nil, 12))
	if h, _ := rc.read(); h.Type != wire.TPong {
		t.Fatalf("connection unusable after payload error: %v", h.Type)
	}
	if srv.sample().Errors.Malformed == 0 {
		t.Fatal("malformed counter did not move")
	}
}

func TestFramingErrorDropsConnection(t *testing.T) {
	srv := startServer(t, &fakeEngine{}, Config{})
	rc := dialRaw(t, srv.Addr())
	rc.write([]byte("this is not a frame, not even close!!"))
	_, re := rc.readErr()
	if re.Code != wire.CodeMalformed {
		t.Fatalf("code = %v", re.Code)
	}
	// Server must hang up after a framing error.
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := rc.fr.Next(); err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("connection still open after framing error: %v", err)
	}
	_ = srv
}

func TestUnknownTypeRejected(t *testing.T) {
	srv := startServer(t, &fakeEngine{}, Config{})
	rc := dialRaw(t, srv.Addr())
	var buf [wire.HeaderSize]byte
	wire.PutHeader(buf[:], wire.Header{Type: 0x30, ID: 21})
	rc.write(buf[:])
	h, re := rc.readErr()
	if h.ID != 21 || re.Code != wire.CodeUnknownType {
		t.Fatalf("id=%d code=%v", h.ID, re.Code)
	}
	if srv.sample().Errors.UnknownType != 1 {
		t.Fatal("unknown-type counter did not move")
	}
}

func TestBackpressureRefusal(t *testing.T) {
	eng := &fakeEngine{estimate: 1, gate: make(chan struct{})}
	srv := startServer(t, eng, Config{MaxInFlight: 2})
	rc := dialRaw(t, srv.Addr())

	q := testQuery()
	rc.write(
		wire.AppendEstimate(nil, 1, 0, &q),
		wire.AppendEstimate(nil, 2, 0, &q),
		wire.AppendEstimate(nil, 3, 0, &q),
	)
	// First two occupy the window; the third must be refused immediately
	// with a retry-after hint, while the others are still blocked.
	h, re := rc.readErr()
	if h.ID != 3 || re.Code != wire.CodeBackpressure {
		t.Fatalf("id=%d code=%v", h.ID, re.Code)
	}
	if re.RetryAfter <= 0 {
		t.Fatal("backpressure refusal carries no retry-after hint")
	}
	if !re.Temporary() {
		t.Fatal("backpressure must be retryable")
	}
	close(eng.gate)
	got := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		h, _ := rc.read()
		if h.Type != wire.TEstimateResult {
			t.Fatalf("expected result, got %v", h.Type)
		}
		got[h.ID] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("missing results: %v", got)
	}
	if srv.sample().Errors.Backpressure != 1 {
		t.Fatal("backpressure counter did not move")
	}
}

// TestConnectionLimit: a connection over MaxConns is refused in the
// protocol — every request on it is answered with a retryable
// CodeBackpressure under the request's ID.
func TestConnectionLimit(t *testing.T) {
	srv := startServer(t, &fakeEngine{}, Config{MaxConns: 1})
	rc1 := dialRaw(t, srv.Addr())
	rc1.write(wire.AppendPing(nil, 1))
	rc1.read() // first connection is fully established and serving

	rc2 := dialRaw(t, srv.Addr())
	q := testQuery()
	rc2.write(wire.AppendPing(nil, 9), wire.AppendEstimate(nil, 10, 0, &q))
	for _, id := range []uint64{9, 10} {
		h, re := rc2.readErr()
		if h.ID != id || re.Code != wire.CodeBackpressure || re.RetryAfter <= 0 {
			t.Fatalf("over-limit connection: id=%d code=%v retry-after=%v", h.ID, re.Code, re.RetryAfter)
		}
	}
	if srv.sample().ConnsRejected == 0 {
		t.Fatal("rejected counter did not move")
	}
	// The limit refuses connections, not the one it admitted.
	rc1.write(wire.AppendPing(nil, 2))
	if h, _ := rc1.read(); h.Type != wire.TPong {
		t.Fatalf("admitted connection answered %v", h.Type)
	}
}

// TestAcceptedWhileDraining pins the race TestDrainRefusesNewRequests used
// to lose one run in twenty: a connection the accept loop takes after the
// drain flag is up gets CodeDraining for its request, not an EOF.
func TestAcceptedWhileDraining(t *testing.T) {
	srv := startServer(t, &fakeEngine{}, Config{})
	srv.draining.Store(true) // listener still open, as in the race window
	rc := dialRaw(t, srv.Addr())
	q := testQuery()
	rc.write(wire.AppendEstimate(nil, 4, 0, &q)) // a request with a payload
	h, re := rc.readErr()
	if h.ID != 4 || re.Code != wire.CodeDraining || re.RetryAfter <= 0 {
		t.Fatalf("id=%d code=%v retry-after=%v", h.ID, re.Code, re.RetryAfter)
	}
	if got := srv.sample().ConnsActive; got != 0 {
		t.Fatalf("a refused connection counts as active: %d", got)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	eng := &fakeEngine{estimate: 1, delay: 30 * time.Millisecond}
	srv := startServer(t, eng, Config{})
	rc := dialRaw(t, srv.Addr())
	q := testQuery()
	rc.write(wire.AppendEstimate(nil, 5, 1, &q)) // 1ms budget vs 30ms engine
	h, re := rc.readErr()
	if h.ID != 5 || re.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("id=%d code=%v", h.ID, re.Code)
	}
	if srv.sample().Errors.Deadline != 1 {
		t.Fatal("deadline counter did not move")
	}
}

func TestEnginePanicContained(t *testing.T) {
	eng := &fakeEngine{panicky: true}
	srv := startServer(t, eng, Config{})
	rc := dialRaw(t, srv.Addr())
	q := testQuery()
	rc.write(wire.AppendEstimate(nil, 6, 0, &q))
	h, re := rc.readErr()
	if h.ID != 6 || re.Code != wire.CodeInternal {
		t.Fatalf("id=%d code=%v", h.ID, re.Code)
	}
	// The connection survives a contained engine fault.
	eng.panicky = false
	rc.write(wire.AppendPing(nil, 7))
	if h, _ := rc.read(); h.Type != wire.TPong {
		t.Fatalf("conn dead after engine panic: %v", h.Type)
	}
	if srv.sample().Errors.Internal == 0 {
		t.Fatal("internal counter did not move")
	}
}

// TestDrainUnderLoad is the drain contract: a client with requests in
// flight when Shutdown begins sees every one of them answered — success or
// a retryable draining error — and never a dropped request.
func TestDrainUnderLoad(t *testing.T) {
	eng := &fakeEngine{estimate: 2, delay: 2 * time.Millisecond}
	srv := startServer(t, eng, Config{MaxInFlight: 64})
	rc := dialRaw(t, srv.Addr())
	q := testQuery()

	const n = 40
	var frames [][]byte
	for i := 1; i <= n; i++ {
		frames = append(frames, wire.AppendEstimate(nil, uint64(i), 0, &q))
	}
	rc.write(frames...)

	// Start draining while those requests are being served.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	answered := 0
	for answered < n {
		h, payload := rc.read()
		switch h.Type {
		case wire.TEstimateResult:
			answered++
		case wire.TError:
			re, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			if re.Code != wire.CodeDraining && re.Code != wire.CodeBackpressure {
				t.Fatalf("request %d lost to %v", h.ID, re.Code)
			}
			if !re.Temporary() {
				t.Fatal("drain-time refusal must be retryable")
			}
			answered++
		default:
			t.Fatalf("unexpected frame %v", h.Type)
		}
	}
	// Well-behaved peer: all pendings answered, hang up.
	rc.nc.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// New connections must be refused outright.
	if nc, err := net.Dial("tcp", srv.Addr()); err == nil {
		nc.Close()
		t.Fatal("listener still accepting after drain")
	}
}

// TestDrainRefusesNewRequests: a request arriving after drain begins gets
// CodeDraining with a retry-after hint, and the already-queued responses
// still flush.
func TestDrainRefusesNewRequests(t *testing.T) {
	eng := &fakeEngine{estimate: 2}
	srv := startServer(t, eng, Config{})
	rc := dialRaw(t, srv.Addr())

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	rc.write(wire.AppendPing(nil, 1))
	h, re := rc.readErr()
	if h.ID != 1 || re.Code != wire.CodeDraining {
		t.Fatalf("id=%d code=%v", h.ID, re.Code)
	}
	if re.RetryAfter <= 0 {
		t.Fatal("draining refusal carries no retry-after hint")
	}
	rc.nc.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestAdminPlane(t *testing.T) {
	eng := &fakeEngine{estimate: 1}
	srv := startServer(t, eng, Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + srv.AdminAddr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	// Drive a little traffic so serving families have non-zero samples.
	rc := dialRaw(t, srv.Addr())
	rc.write(wire.AppendPing(nil, 1))
	rc.read()

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "latest_server_connections") ||
		!strings.Contains(body, `latest_server_requests_total{op="ping"} 1`) {
		t.Fatalf("metrics missing server families: %d\n%s", code, body)
	}
	if code, body := get("/statusz"); code != http.StatusOK || !strings.Contains(body, `"server"`) {
		t.Fatalf("statusz missing server sample: %d %s", code, body)
	}

	// GET /drain is refused; POST triggers the drain-request channel.
	if code, _ := get("/drain"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /drain = %d", code)
	}
	resp, err := http.Post(base+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["draining"] != true {
		t.Fatalf("drain response: %v", out)
	}
	select {
	case <-srv.DrainRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("drain request not signaled")
	}
}

// TestHealthEndpointsReflectDurability drives the real durability stack
// behind the admin plane: an injected WAL append fault degrades the
// DurableEngine, /healthz reports it (still HTTP 200 — liveness) and
// /readyz flips to 503; a repair re-arms both.
func TestHealthEndpointsReflectDurability(t *testing.T) {
	fst := persist.NewFaultStore(latest.NewMemStore(),
		persist.FaultRule{Op: persist.FaultAppend, Count: 1})
	fst.SetEnabled(false)
	core, err := latest.NewConcurrent(geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// An hour of repair backoff keeps the background loop out of the
	// test's way; repairs here are explicit RepairNow calls.
	dur, err := latest.NewDurable(core, fst, latest.DurableConfig{
		WALSyncEvery: 1, RepairBackoff: time.Hour, RepairBackoffMax: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Shutdown(context.Background()) })
	srv := startServer(t, dur, Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + srv.AdminAddr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy healthz: %d %s", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("healthy readyz: %d %s", code, body)
	}

	fst.SetEnabled(true)
	dur.Feed(testObj(1)) // the WAL append fires the fault and degrades

	if code, body := get("/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"status":"degraded"`) ||
		!strings.Contains(body, "persistence:degraded") {
		t.Fatalf("degraded healthz must stay 200 with the real state: %d %s", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"ready":false`) {
		t.Fatalf("degraded readyz: %d %s", code, body)
	}
	// Degraded is not down: the wire plane still serves.
	rc := dialRaw(t, srv.Addr())
	rc.write(wire.AppendPing(nil, 1))
	if h, _ := rc.read(); h.Type != wire.TPong {
		t.Fatalf("degraded ping answered %v", h.Type)
	}

	fst.SetEnabled(false)
	if err := dur.RepairNow(context.Background()); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("repaired readyz: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "latest_durable_state 0") ||
		!strings.Contains(body, "latest_durable_repairs_total 1") {
		t.Fatalf("metrics missing durable state families: %d", code)
	}
}

// TestHealthEndpointsReflectDrift: a tripped accuracy-drift watchdog makes
// /healthz degraded and /readyz 503, naming the estimator.
func TestHealthEndpointsReflectDrift(t *testing.T) {
	eng := &fakeEngine{estimate: 1, drift: []telemetry.DriftSample{
		{Estimator: "RSH", Ratio: 3.1, Threshold: 2, Drifted: true},
	}}
	srv := startServer(t, eng, Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + srv.AdminAddr()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "drift:RSH") {
		t.Fatalf("drifted healthz: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drifted readyz = %d, want 503", resp.StatusCode)
	}
}

// TestReadyzDraining: a draining server is alive but not ready.
func TestReadyzDraining(t *testing.T) {
	srv := startServer(t, &fakeEngine{estimate: 1}, Config{})
	srv.draining.Store(true)
	rec := httptest.NewRecorder()
	srv.handleReadyz(rec, nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining readyz: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.handleHealthz(rec, nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"draining"`) {
		t.Fatalf("draining healthz: %d %s", rec.Code, rec.Body.String())
	}
}

// TestServerShutdownIdempotent: Shutdown then Close (and vice versa) is
// safe, and a goroutine check catches leaked accept/conn/writer loops.
func TestServerLifecycleNoLeak(t *testing.T) {
	for i := 0; i < 3; i++ {
		eng := &fakeEngine{estimate: 1}
		srv := startServer(t, eng, Config{})
		rc := dialRaw(t, srv.Addr())
		rc.write(wire.AppendPing(nil, 1))
		rc.read()
		rc.nc.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.withDefaults()
	if c.MaxConns <= 0 || c.MaxInFlight <= 0 || c.MaxPayload <= 0 ||
		c.CoalesceObjects <= 0 || c.RetryAfter <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}
