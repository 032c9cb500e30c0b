package frontend

import (
	"bufio"
	"net"
	"sync"
	"time"

	"github.com/spatiotext/latest/internal/wire"
)

// refusalGrace bounds how long refuse keeps a turned-away connection, and
// so how long a refusal can outlive the accept that made it.
const refusalGrace = time.Second

// refuse turns away a connection the accept loop took but will not serve —
// the server is draining, or at its connection limit. Closing such a
// connection outright shows the peer an EOF it cannot tell from a crash,
// and loses whatever it had pipelined; instead refuse answers every request
// the peer sends, under the request's own ID, with the typed refusal and
// retry-after hint, until the peer hangs up, sends a malformed frame or
// refusalGrace has passed since the accept. It runs on its own goroutine.
func refuse(nc net.Conn, code wire.Code, msg string) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(refusalGrace))
	fr := wire.NewFrameReader(bufio.NewReader(nc), maxPayload)
	var out []byte
	for {
		h, _, err := fr.Next()
		if err != nil {
			return
		}
		out = wire.AppendError(out[:0], h.ID, code, uint32(retryAfter.Milliseconds()), msg)
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// backlogGrace is how long closeAfterBacklog leaves the listener open for
// its accept loop to take what the kernel already queued.
const backlogGrace = 10 * time.Millisecond

// closeAfterBacklog closes a listener at the start of a graceful drain
// without resetting the connections that completed their handshake but
// were not yet accepted: closing a listening socket resets its backlog,
// which those peers see as a dead server. It first gives the accept loop —
// whose exit accepted waits for, and which must return on any Accept error
// — a deadline, so the loop takes everything queued (to serve or refuse)
// and then times out. A listener without deadlines is closed at once.
func closeAfterBacklog(ln net.Listener, accepted *sync.WaitGroup) {
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		if d.SetDeadline(time.Now().Add(backlogGrace)) == nil {
			accepted.Wait()
		}
	}
	ln.Close()
	accepted.Wait()
}
