package server

import (
	"net"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/netchaos"
	"github.com/spatiotext/latest/internal/wire"
)

// TestServerSurvivesMidFrameClientCut: a client link that dies inside a
// request frame (10 bytes into the 24-byte header) must cost the server
// nothing but that one connection — the partial frame is discarded, the
// conn is reaped, and the next connection serves normally.
func TestServerSurvivesMidFrameClientCut(t *testing.T) {
	eng := &fakeEngine{estimate: 1}
	srv := startServer(t, eng, Config{})

	p, err := netchaos.New(srv.Addr(),
		netchaos.ConnPlan{CutUpstreamAfter: 10},
		netchaos.ConnPlan{},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write(wire.AppendPing(nil, 1))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, rerr := nc.Read(buf); rerr == nil {
		t.Fatal("read succeeded across a mid-frame cut")
	}
	nc.Close()

	// The torn connection must be fully released — the server's active
	// conn count returning to zero proves the handler didn't wedge on the
	// partial frame.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sample().ConnsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d conns after the cut", srv.sample().ConnsActive)
		}
		time.Sleep(time.Millisecond)
	}

	rc := dialRaw(t, p.Addr())
	rc.write(wire.AppendPing(nil, 2))
	if h, _ := rc.read(); h.Type != wire.TPong || h.ID != 2 {
		t.Fatalf("bad pong on the connection after the cut: %+v", h)
	}
}
