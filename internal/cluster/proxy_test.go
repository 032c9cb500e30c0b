package cluster

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/wire"
)

// rawProxyConn drives the proxy's wire plane directly.
type rawProxyConn struct {
	t  *testing.T
	nc net.Conn
	fr *wire.FrameReader
}

func dialProxy(t *testing.T, addr string) *rawProxyConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawProxyConn{t: t, nc: nc, fr: wire.NewFrameReader(bufio.NewReader(nc), 0)}
}

func (r *rawProxyConn) roundTrip(frame []byte) (wire.Header, []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(frame); err != nil {
		r.t.Fatal(err)
	}
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload, err := r.fr.Next()
	if err != nil {
		r.t.Fatal(err)
	}
	return h, append([]byte(nil), payload...)
}

func startTestProxy(t *testing.T) (*Proxy, *fakeCluster, *Map) {
	t.Helper()
	truth := mustUniform(t, geo.UnitSquare, 6, 1, testNodes, 3)
	fc := newFakeCluster(t, truth)
	r := NewRouter(truth, fc.dial, Options{})
	p, err := NewProxy(r, ProxyConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		r.Close()
	})
	return p, fc, truth
}

func TestProxyPingCarriesEpoch(t *testing.T) {
	p, _, m := startTestProxy(t)
	rc := dialProxy(t, p.Addr())
	h, payload := rc.roundTrip(wire.AppendPing(nil, 1))
	if h.Type != wire.TPong {
		t.Fatalf("got %v, want pong", h.Type)
	}
	epoch, has, err := wire.DecodePong(payload)
	if err != nil || !has || epoch != m.Epoch {
		t.Fatalf("pong epoch = (%d, %v, %v), want (%d, true, nil)", epoch, has, err, m.Epoch)
	}
}

func TestProxyServesMap(t *testing.T) {
	p, _, m := startTestProxy(t)
	rc := dialProxy(t, p.Addr())
	h, payload := rc.roundTrip(wire.AppendMapFetch(nil, 1))
	if h.Type != wire.TMapResult {
		t.Fatalf("got %v, want map_result", h.Type)
	}
	raw, err := wire.DecodeMapResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMap(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch {
		t.Fatalf("served epoch %d, want %d", got.Epoch, m.Epoch)
	}
}

func TestProxyFeedAndQueryEndToEnd(t *testing.T) {
	p, fc, _ := startTestProxy(t)
	rc := dialProxy(t, p.Addr())

	objs := testObjects()
	h, payload := rc.roundTrip(wire.AppendFeedBatch(nil, 1, objs))
	if h.Type != wire.TAck {
		t.Fatalf("feed answered %v, want ack", h.Type)
	}
	n, err := wire.DecodeAck(payload)
	if err != nil || int(n) != len(objs) {
		t.Fatalf("ack = (%d, %v), want %d", n, err, len(objs))
	}
	// The router spread the batch across all three owners.
	spread := 0
	for _, fn := range fc.nodes {
		if fn.count() > 0 {
			spread++
		}
	}
	if spread != 3 {
		t.Fatalf("objects landed on %d nodes, want 3", spread)
	}

	q := stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 100)
	h, payload = rc.roundTrip(wire.AppendQueryBatch(nil, 2, 0, []stream.Query{q}))
	if h.Type != wire.TQueryBatchResult {
		t.Fatalf("query answered %v, want result", h.Type)
	}
	_, acts, err := wire.DecodeQueryBatchResult(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acts[0] != len(objs) {
		t.Fatalf("whole-world count through proxy = %d, want %d", acts[0], len(objs))
	}

	h, payload = rc.roundTrip(wire.AppendEstimate(nil, 3, 0, &q))
	if h.Type != wire.TEstimateResult {
		t.Fatalf("estimate answered %v, want result", h.Type)
	}
	est, err := wire.DecodeEstimateResult(payload)
	if err != nil || est != float64(len(objs)) {
		t.Fatalf("estimate = (%v, %v), want %v", est, err, float64(len(objs)))
	}
}

func TestProxyMapsBackendFailureToInternal(t *testing.T) {
	p, fc, _ := startTestProxy(t)
	fc.nodes[testNodes[1]].queryErr = context.DeadlineExceeded
	rc := dialProxy(t, p.Addr())
	q := stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 100)
	h, payload := rc.roundTrip(wire.AppendQueryBatch(nil, 1, 0, []stream.Query{q}))
	if h.Type != wire.TError {
		t.Fatalf("got %v, want error frame", h.Type)
	}
	re, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if re.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("code %v, want deadline_exceeded", re.Code)
	}
}

func TestProxyDrainRefusesNewRequests(t *testing.T) {
	p, _, _ := startTestProxy(t)
	rc := dialProxy(t, p.Addr())
	// Open the connection before drain starts so it survives the listener
	// close; prime it with a ping.
	if h, _ := rc.roundTrip(wire.AppendPing(nil, 1)); h.Type != wire.TPong {
		t.Fatal("prime ping failed")
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- p.Shutdown(ctx)
	}()
	// Wait until draining is visible, then expect CodeDraining.
	deadline := time.Now().Add(2 * time.Second)
	for !p.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("proxy never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	h, payload := rc.roundTrip(wire.AppendPing(nil, 2))
	if h.Type != wire.TError {
		t.Fatalf("got %v, want draining error", h.Type)
	}
	re, err := wire.DecodeError(payload)
	if err != nil || re.Code != wire.CodeDraining {
		t.Fatalf("code = (%v, %v), want draining", re, err)
	}
	rc.nc.Close()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestProxyAcceptedWhileDraining: a connection the proxy's accept loop
// takes after the drain flag is up is refused in the protocol, as the
// server refuses one (see server.TestAcceptedWhileDraining).
func TestProxyAcceptedWhileDraining(t *testing.T) {
	p, _, _ := startTestProxy(t)
	p.draining.Store(true) // listener still open, as in the race window
	rc := dialProxy(t, p.Addr())
	h, payload := rc.roundTrip(wire.AppendPing(nil, 3))
	if h.Type != wire.TError || h.ID != 3 {
		t.Fatalf("got %v id=%d, want an error under the request's ID", h.Type, h.ID)
	}
	re, err := wire.DecodeError(payload)
	if err != nil || re.Code != wire.CodeDraining || re.RetryAfter <= 0 {
		t.Fatalf("refusal = (%v, %v), want draining with a retry-after hint", re, err)
	}
	if got := p.connsActive.Load(); got != 0 {
		t.Fatalf("a refused connection counts as active: %d", got)
	}
}
