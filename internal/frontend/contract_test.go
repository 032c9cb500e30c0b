package frontend_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/frontend"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/server"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// fake is what a test makes the thing behind the frontend do: answer a
// fixed estimate, after a delay or once a gate opens, or fail.
type fake struct {
	estimate float64
	delay    time.Duration
	gate     chan struct{} // non-nil: reads block until a receive succeeds
	panicky  atomic.Bool   // reads panic
	feedBad  bool          // feeds fail: an engine can only panic, a router returns an error
}

func (f *fake) read(ctx context.Context) (float64, error) {
	if f.panicky.Load() {
		panic("injected fault")
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return f.estimate, nil
}

func (f *fake) readBatch(ctx context.Context, n int) ([]float64, []int, error) {
	ests, acts := make([]float64, n), make([]int, n)
	for i := range ests {
		est, err := f.read(ctx)
		if err != nil {
			return nil, nil, err
		}
		ests[i], acts[i] = est, int(est)
	}
	return ests, acts, nil
}

// fakeEngine is fake as a latest.Engine. An engine call takes no context:
// it runs to the end of its delay, and the frontend's budget check is what
// answers a late one.
type fakeEngine struct{ *fake }

func (e fakeEngine) FeedBatch([]stream.Object) {
	if e.feedBad {
		panic("injected feed fault")
	}
}
func (e fakeEngine) EstimateAndExecute(*stream.Query) (float64, int) {
	est, _ := e.read(context.Background())
	return est, int(est)
}
func (e fakeEngine) EstimateAndExecuteTraced(q *stream.Query, _ *telemetry.ActiveTrace) (float64, int) {
	return e.EstimateAndExecute(q)
}
func (e fakeEngine) TelemetrySnapshot() telemetry.Snapshot { return telemetry.Snapshot{Engine: "fake"} }
func (e fakeEngine) Shutdown(context.Context) error        { return nil }

// fakeBackend is fake as a cluster.Backend.
type fakeBackend struct{ *fake }

func (b fakeBackend) FeedBatch(_ context.Context, objs []stream.Object) (uint32, error) {
	if b.feedBad {
		return 0, errors.New("node 127.0.0.1:1 unreachable")
	}
	return uint32(len(objs)), nil
}
func (b fakeBackend) Estimate(ctx context.Context, _ stream.Query) (float64, error) {
	return b.read(ctx)
}
func (b fakeBackend) QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error) {
	return b.readBatch(ctx, len(qs))
}
func (b fakeBackend) Epoch() uint64                   { return 1 }
func (b fakeBackend) MapBytes() []byte                { return []byte("map") }
func (b fakeBackend) Sample() telemetry.ClusterSample { return telemetry.ClusterSample{Epoch: 1} }

// handlers are the two things the frontend serves in production, each
// through its own constructor.
var handlers = []struct {
	name  string
	start func(f *fake, cfg frontend.Config) (*frontend.Server, error)
}{
	{"engine", func(f *fake, cfg frontend.Config) (*frontend.Server, error) {
		srv, err := server.New(fakeEngine{f}, server.Config{Addr: cfg.Addr, AdminAddr: cfg.AdminAddr,
			MaxConns: cfg.MaxConns, MaxInFlight: cfg.MaxInFlight})
		if err != nil {
			return nil, err
		}
		return srv.Server, nil
	}},
	{"router", func(f *fake, cfg frontend.Config) (*frontend.Server, error) {
		p, err := cluster.NewProxy(fakeBackend{f}, cfg)
		if err != nil {
			return nil, err
		}
		return p.Server, nil
	}},
}

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

func (r *rawConn) read() wire.Header {
	r.t.Helper()
	h, _ := r.readFrame()
	return h
}

func (r *rawConn) readFrame() (wire.Header, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload, err := r.fr.Next()
	if err != nil {
		r.t.Fatalf("read frame: %v", err)
	}
	return h, payload
}

func (r *rawConn) readErr() (wire.Header, *wire.RemoteError) {
	r.t.Helper()
	h, payload := r.readFrame()
	if h.Type != wire.TError {
		r.t.Fatalf("expected TError, got %v", h.Type)
	}
	re, err := wire.DecodeError(payload)
	if err != nil {
		r.t.Fatalf("decode error frame: %v", err)
	}
	return h, re
}

// pingOK proves the connection still serves.
func (r *rawConn) pingOK(id uint64) {
	r.t.Helper()
	r.write(wire.AppendPing(nil, id))
	if h := r.read(); h.Type != wire.TPong || h.ID != id {
		r.t.Fatalf("connection unusable: ping %d answered %v id=%d", id, h.Type, h.ID)
	}
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

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// contract is what a peer may rely on from the connection loop whatever
// answers behind it.
var contract = []struct {
	name string
	fake func() *fake
	cfg  frontend.Config
	run  func(t *testing.T, s *frontend.Server, f *fake)
}{
	// A request arriving after drain begins gets CodeDraining with a
	// retry-after hint, and the admin plane says so: alive, not ready.
	{"drain refuses new requests", nil, frontend.Config{AdminAddr: "127.0.0.1:0"}, func(t *testing.T, s *frontend.Server, _ *fake) {
		rc := dialRaw(t, s.Addr())
		rc.pingOK(1)
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(context.Background()) }()
		for !s.Draining() {
			time.Sleep(time.Millisecond)
		}
		rc.write(wire.AppendPing(nil, 2))
		h, re := rc.readErr()
		if h.ID != 2 || re.Code != wire.CodeDraining || re.RetryAfter <= 0 {
			t.Fatalf("id=%d code=%v retry-after=%v", h.ID, re.Code, re.RetryAfter)
		}
		base := "http://" + s.AdminAddr()
		if code, body := httpGet(t, base+"/readyz"); code != http.StatusServiceUnavailable ||
			!strings.Contains(body, `"ready":false`) || !strings.Contains(body, `"status":"draining"`) {
			t.Fatalf("draining readyz: %d %s", code, body)
		}
		if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK ||
			!strings.Contains(body, `"status":"draining"`) || !strings.Contains(body, `"reasons":["draining"]`) {
			t.Fatalf("draining healthz: %d %s", code, body)
		}
		rc.nc.Close()
		if err := <-done; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}},
	// The race the drain used to lose one run in twenty: a connection the
	// accept loop takes after the drain flag is up gets CodeDraining for
	// its request, not an EOF.
	{"accepted while draining", nil, frontend.Config{}, func(t *testing.T, s *frontend.Server, _ *fake) {
		s.SetDraining()
		rc := dialRaw(t, s.Addr())
		q := testQuery()
		rc.write(wire.AppendEstimate(nil, 4, 0, &q)) // a request with a payload
		h, re := rc.readErr()
		if h.ID != 4 || re.Code != wire.CodeDraining || re.RetryAfter <= 0 {
			t.Fatalf("id=%d code=%v retry-after=%v", h.ID, re.Code, re.RetryAfter)
		}
		if got := s.Sample().ConnsActive; got != 0 {
			t.Fatalf("a refused connection counts as active: %d", got)
		}
	}},
	// A connection over MaxConns is refused in the protocol — every
	// request on it is answered with a retryable CodeBackpressure under
	// the request's ID.
	{"connection limit", nil, frontend.Config{MaxConns: 1}, func(t *testing.T, s *frontend.Server, _ *fake) {
		rc1 := dialRaw(t, s.Addr())
		rc1.pingOK(1) // first connection is fully established and serving
		rc2 := dialRaw(t, s.Addr())
		q := testQuery()
		rc2.write(wire.AppendPing(nil, 9), wire.AppendEstimate(nil, 10, 0, &q))
		for _, id := range []uint64{9, 10} {
			h, re := rc2.readErr()
			if h.ID != id || re.Code != wire.CodeBackpressure || re.RetryAfter <= 0 {
				t.Fatalf("over-limit connection: id=%d code=%v retry-after=%v", h.ID, re.Code, re.RetryAfter)
			}
		}
		if s.Sample().ConnsRejected == 0 {
			t.Fatal("rejected counter did not move")
		}
		rc1.pingOK(2) // the limit refuses connections, not the one it admitted
	}},
	{"backpressure refusal", func() *fake { return &fake{estimate: 1, gate: make(chan struct{})} },
		frontend.Config{MaxInFlight: 2}, func(t *testing.T, s *frontend.Server, f *fake) {
			rc := dialRaw(t, s.Addr())
			q := testQuery()
			rc.write(
				wire.AppendEstimate(nil, 1, 0, &q),
				wire.AppendEstimate(nil, 2, 0, &q),
				wire.AppendEstimate(nil, 3, 0, &q),
			)
			// First two occupy the window; the third must be refused
			// immediately with a retry-after hint, while the others are
			// still blocked.
			h, re := rc.readErr()
			if h.ID != 3 || re.Code != wire.CodeBackpressure || re.RetryAfter <= 0 || !re.Temporary() {
				t.Fatalf("id=%d code=%v retry-after=%v temporary=%v", h.ID, re.Code, re.RetryAfter, re.Temporary())
			}
			close(f.gate)
			got := map[uint64]bool{}
			for i := 0; i < 2; i++ {
				h := rc.read()
				if h.Type != wire.TEstimateResult {
					t.Fatalf("expected result, got %v", h.Type)
				}
				got[h.ID] = true
			}
			if !got[1] || !got[2] {
				t.Fatalf("missing results: %v", got)
			}
			if s.Sample().Errors.Backpressure != 1 {
				t.Fatal("backpressure counter did not move")
			}
		}},
	{"framing error drops the connection", nil, frontend.Config{}, func(t *testing.T, s *frontend.Server, _ *fake) {
		rc := dialRaw(t, s.Addr())
		rc.write([]byte("this is not a frame, not even close!!"))
		if _, re := rc.readErr(); re.Code != wire.CodeMalformed {
			t.Fatalf("code = %v", re.Code)
		}
		rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := rc.fr.Next(); err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("connection still open after framing error: %v", err)
		}
	}},
	// Valid header, garbage payload: typed error, connection stays up.
	{"malformed payload keeps the connection", nil, frontend.Config{}, func(t *testing.T, s *frontend.Server, _ *fake) {
		rc := dialRaw(t, s.Addr())
		frame := wire.AppendFeedBatch(nil, 11, []stream.Object{testObj(1)})
		frame = frame[:len(frame)-3] // truncate payload bytes
		wire.PutHeader(frame[:wire.HeaderSize], wire.Header{Type: wire.TFeedBatch, ID: 11,
			Length: uint32(len(frame) - wire.HeaderSize)})
		rc.write(frame)
		h, re := rc.readErr()
		if h.ID != 11 || re.Code != wire.CodeMalformed {
			t.Fatalf("got id=%d code=%v", h.ID, re.Code)
		}
		rc.pingOK(12)
		if s.Sample().Errors.Malformed == 0 {
			t.Fatal("malformed counter did not move")
		}
	}},
	{"deadline exceeded", func() *fake { return &fake{estimate: 1, delay: 30 * time.Millisecond} },
		frontend.Config{}, func(t *testing.T, s *frontend.Server, _ *fake) {
			rc := dialRaw(t, s.Addr())
			q := testQuery()
			rc.write(wire.AppendEstimate(nil, 5, 1, &q)) // 1ms budget vs 30ms of work
			h, re := rc.readErr()
			if h.ID != 5 || re.Code != wire.CodeDeadlineExceeded {
				t.Fatalf("id=%d code=%v", h.ID, re.Code)
			}
			if s.Sample().Errors.Deadline != 1 {
				t.Fatal("deadline counter did not move")
			}
		}},
	// A panic behind the frontend — in an engine or in a router — is
	// answered with CodeInternal and costs neither the connection nor the
	// process.
	{"panic contained", nil, frontend.Config{}, func(t *testing.T, s *frontend.Server, f *fake) {
		f.panicky.Store(true)
		rc := dialRaw(t, s.Addr())
		q := testQuery()
		rc.write(wire.AppendEstimate(nil, 6, 0, &q), wire.AppendQueryBatch(nil, 7, 0, []stream.Query{q}))
		for i := 0; i < 2; i++ {
			if h, re := rc.readErr(); (h.ID != 6 && h.ID != 7) || re.Code != wire.CodeInternal {
				t.Fatalf("id=%d code=%v", h.ID, re.Code)
			}
		}
		f.panicky.Store(false)
		rc.pingOK(8)
		if s.Sample().Errors.Internal != 2 {
			t.Fatal("internal counter did not move")
		}
	}},
	// Pipelined feed frames coalesce into one handler call; when that call
	// fails, every frame it swallowed is answered, not just the first.
	{"coalesced feed failure answers every frame", func() *fake { return &fake{feedBad: true} },
		frontend.Config{}, func(t *testing.T, s *frontend.Server, _ *fake) {
			rc := dialRaw(t, s.Addr())
			var frames [][]byte
			for id := uint64(100); id < 103; id++ {
				frames = append(frames, wire.AppendFeedBatch(nil, id, []stream.Object{testObj(id)}))
			}
			rc.write(frames...)
			for id := uint64(100); id < 103; id++ {
				h, re := rc.readErr()
				if h.ID != id || re.Code != wire.CodeInternal {
					t.Fatalf("frame %d answered id=%d code=%v", id, h.ID, re.Code)
				}
			}
			if s.Sample().CoalescedFeeds == 0 {
				t.Fatal("the burst did not coalesce: the test proved nothing")
			}
			rc.pingOK(103)
		}},
	// Shutdown then Close is safe, and both return only once the accept,
	// connection and writer goroutines have.
	{"lifecycle", nil, frontend.Config{}, func(t *testing.T, s *frontend.Server, _ *fake) {
		rc := dialRaw(t, s.Addr())
		rc.pingOK(1)
		rc.nc.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if nc, err := net.Dial("tcp", s.Addr()); err == nil {
			nc.Close()
			t.Fatal("listener still accepting after shutdown")
		}
	}},
}

func TestConnectionContract(t *testing.T) {
	for _, h := range handlers {
		for _, c := range contract {
			t.Run(h.name+"/"+c.name, func(t *testing.T) {
				f := &fake{estimate: 1}
				if c.fake != nil {
					f = c.fake()
				}
				cfg := c.cfg
				cfg.Addr = "127.0.0.1:0"
				s, err := h.start(f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				c.run(t, s, f)
			})
		}
	}
}
