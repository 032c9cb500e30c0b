package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// fakeEngine is a deterministic Engine: fixed estimate, optional per-call
// delay.
type fakeEngine struct {
	mu      sync.Mutex
	batches int
	objects int
	fed     []stream.Object // deep copies of what FeedBatch saw, when keep is set
	keep    bool

	estimate float64
	delay    time.Duration
	drift    []telemetry.DriftSample // reported by TelemetrySnapshot
}

func (f *fakeEngine) FeedBatch(objs []stream.Object) {
	f.mu.Lock()
	f.batches++
	f.objects += len(objs)
	for _, o := range objs {
		if f.keep {
			o.Keywords = append([]string(nil), o.Keywords...)
			f.fed = append(f.fed, o)
		}
	}
	f.mu.Unlock()
}

func (f *fakeEngine) counts() (batches, objects int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches, f.objects
}

func (f *fakeEngine) EstimateAndExecute(q *stream.Query) (float64, int) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.estimate, int(f.estimate)
}

func (f *fakeEngine) EstimateAndExecuteTraced(q *stream.Query, _ *telemetry.ActiveTrace) (float64, int) {
	return f.EstimateAndExecute(q)
}

func (f *fakeEngine) TelemetrySnapshot() telemetry.Snapshot {
	return telemetry.Snapshot{Engine: "fake", Drift: f.drift}
}

func (f *fakeEngine) Shutdown(context.Context) error { return nil }

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

// sample is the serving layer's slice of the telemetry snapshot.
func (s *Server) sample() telemetry.ServerSample { return s.Sample() }

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

// TestCoalescedFeedsKeepTheirKeywords: the connection decodes every feed
// into one reused keyword array. Burst after burst of coalesced frames,
// each object with keywords of its own, reaches the engine exactly as
// sent: no frame's keywords overwrite another's, nor a later burst's an
// earlier one's before its Feed returned.
func TestCoalescedFeedsKeepTheirKeywords(t *testing.T) {
	eng := &fakeEngine{keep: true}
	srv := startServer(t, eng, Config{})
	rc := dialRaw(t, srv.Addr())
	var sent []stream.Object
	for burst := 0; burst < 4; burst++ {
		var frames [][]byte
		for f := 0; f < 5; f++ {
			objs := make([]stream.Object, 1+f)
			for i := range objs {
				id := uint64(len(sent))
				objs[i] = testObj(id)
				objs[i].Keywords = []string{fmt.Sprintf("w%d", id), fmt.Sprintf("v%d", id)}[:1+i%2]
				sent = append(sent, objs[i])
			}
			frames = append(frames, wire.AppendFeedBatch(nil, uint64(len(sent)), objs))
		}
		rc.write(frames...)
		for range frames {
			if h, _ := rc.read(); h.Type != wire.TAck {
				t.Fatalf("burst %d: expected ack, got %v", burst, h.Type)
			}
		}
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if !reflect.DeepEqual(eng.fed, sent) {
		t.Fatalf("the engine saw %d objects that differ from the %d sent", len(eng.fed), len(sent))
	}
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
	dur.FeedBatch([]latest.Object{testObj(1)}) // the WAL append fires the fault and degrades

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

// TestNewValidates: what New refuses before it binds anything.
func TestNewValidates(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	m, err := cluster.Uniform(geo.UnitSquare, 2, 1, []string{"a:1", "b:2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(&fakeEngine{}, Config{ClusterMap: m, NodeID: 2}); err == nil {
		t.Fatal("node id beyond the map accepted")
	}
}
