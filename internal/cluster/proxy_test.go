package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
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

// TestProxyAdminPlane: the router's admin plane is the node's. A
// trace-flagged request leaves its span timeline under /debug/requests?id=,
// the scrape carries the serving families beside the cluster ones, and
// /healthz names the map epoch.
func TestProxyAdminPlane(t *testing.T) {
	truth := mustUniform(t, geo.UnitSquare, 6, 1, testNodes, 3)
	r := NewRouter(truth, newFakeCluster(t, truth).dial, Options{})
	p, err := NewProxy(r, ProxyConfig{Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		r.Close()
	})
	rc := dialProxy(t, p.Addr())
	const traceID = 0xfeedface
	q := stream.SpatialQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 100)
	if h, _ := rc.roundTrip(wire.AppendEstimateTraced(nil, 1, traceID, 0, &q)); h.Type != wire.TEstimateResult {
		t.Fatalf("traced estimate answered %v", h.Type)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + p.AdminAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	// The write loop publishes the timeline after the bytes reach the
	// socket, which the client may see first.
	var dump telemetry.TraceDump
	for deadline := time.Now().Add(2 * time.Second); len(dump.Traces) == 0 && time.Now().Before(deadline); {
		if err := json.Unmarshal([]byte(get("/debug/requests?id="+telemetry.TraceID(traceID).String())), &dump); err != nil {
			t.Fatalf("/debug/requests not JSON: %v", err)
		}
	}
	if len(dump.Traces) != 1 || dump.Traces[0].ID != traceID || dump.Traces[0].Op != "estimate" {
		t.Fatalf("/debug/requests?id= returned %+v", dump.Traces)
	}
	have := map[string]bool{}
	for _, sp := range dump.Traces[0].Spans {
		have[sp.Name] = true
	}
	for _, name := range []string{"read", "queue", "engine", "encode", "write"} {
		if !have[name] {
			t.Errorf("router timeline has no %q span: %v", name, dump.Traces[0].Spans)
		}
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`latest_server_requests_total{op="estimate"} 1`,
		`latest_server_connections_total{outcome="accepted"} 1`,
		"latest_cluster_epoch 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router scrape has no %q", want)
		}
	}
	if body := get("/healthz"); !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"epoch":3`) {
		t.Errorf("healthz: %s", body)
	}
}
