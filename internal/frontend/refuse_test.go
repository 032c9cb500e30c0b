package frontend

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/wire"
)

// TestRefuseAnswersEveryRequest: each request on a refused connection gets
// the typed refusal under its own ID, payload or not, and the connection
// closes cleanly when the peer hangs up.
func TestRefuseAnswersEveryRequest(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		refuse(server, wire.CodeDraining, "draining")
	}()
	fr := wire.NewFrameReader(bufio.NewReader(client), 0)
	big := make([]byte, wire.HeaderSize+4096) // a feed frame's worth of payload, never decoded
	wire.PutHeader(big, wire.Header{Type: wire.TFeedBatch, ID: 8, Length: 4096})
	frames := [][]byte{wire.AppendPing(nil, 7), big, wire.AppendPing(nil, 9)}
	for i, f := range frames {
		if _, err := client.Write(f); err != nil {
			t.Fatal(err)
		}
		h, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		re, err := wire.DecodeError(payload)
		if err != nil || h.Type != wire.TError || h.ID != uint64(7+i) ||
			re.Code != wire.CodeDraining || re.RetryAfter != retryAfter {
			t.Fatalf("request %d: header %+v refusal %+v err %v", i, h, re, err)
		}
	}
	client.Close()
	<-done
}

// TestRefuseGivesUpOnSilence: a peer that never sends a request is closed
// when the grace period ends, without an answer.
func TestRefuseGivesUpOnSilence(t *testing.T) {
	client, server := net.Pipe()
	start := time.Now()
	go refuse(server, wire.CodeBackpressure, "full")
	client.SetReadDeadline(time.Now().Add(5 * refusalGrace))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a silent refused connection: %v, want EOF", err)
	}
	if waited := time.Since(start); waited < refusalGrace/2 {
		t.Fatalf("closed after %v, before the grace period", waited)
	}
}

// TestCloseAfterBacklog: a connection that finished its handshake before
// the drain but was never accepted is handed to the accept loop, not reset.
func TestCloseAfterBacklog(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", ln.Addr().String()) // queued: nobody accepts yet
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var accepted sync.WaitGroup
	taken := 0
	accepted.Add(1)
	go func() {
		defer accepted.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			taken++
			c.Close()
		}
	}()
	closeAfterBacklog(ln, &accepted)
	if taken != 1 {
		t.Fatalf("accept loop took %d connections before the listener closed, want 1", taken)
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("listener still open")
	}
}
