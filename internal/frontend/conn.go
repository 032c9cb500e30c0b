package frontend

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// outHeadroom is extra capacity on the response queue beyond the in-flight
// window, reserved so refusal frames (backpressure, draining) can always
// enqueue without deadlocking against the very fullness they report.
const outHeadroom = 16

// conn is one wire-protocol connection: a read loop that decodes and
// dispatches frames inline, and a write loop that flushes encoded
// responses. The out channel is the in-flight window — responses the read
// loop has produced but the peer has not yet been sent.
type conn struct {
	srv    *Server
	nc     net.Conn
	fr     *wire.FrameReader
	out    chan outFrame
	opened time.Time

	// window bounds concurrently in-flight estimate/query requests on
	// this connection; a slot is held from dispatch until the response is
	// enqueued. Feeds process inline on the read loop (ingest order is
	// part of stream semantics), so they are bounded by the out queue
	// instead.
	window  chan struct{}
	workers sync.WaitGroup

	// decode scratch, reused across frames on this connection. Only the
	// read loop touches it. kws backs the keywords of the feed being
	// applied, and is reused once the handler's Feed has returned.
	objs     []stream.Object
	coalesce []stream.Object
	kws      []string
	acks     []feedAck
}

// outFrame is one queued response: the encoded bytes plus the request's
// trace recorder, whose open "write" span the write loop closes (and whose
// timeline it publishes) once the bytes reach the socket. Sending the
// frame transfers trace ownership to the write loop.
type outFrame struct {
	buf *[]byte
	tr  *telemetry.ActiveTrace
}

// feedAck remembers one coalesced feed frame's id and object count so each
// pipelined frame still gets its own acknowledgment.
type feedAck struct {
	id uint64
	n  uint32
}

// countingReader feeds the bytes-in counter without touching the hot
// decode path.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}

func newConn(s *Server, nc net.Conn) *conn {
	br := bufio.NewReaderSize(countingReader{nc, &s.st.bytesIn}, 64<<10)
	return &conn{
		srv:    s,
		nc:     nc,
		fr:     wire.NewFrameReader(br, maxPayload),
		out:    make(chan outFrame, s.cfg.MaxInFlight+outHeadroom),
		opened: time.Now(),
		window: make(chan struct{}, s.cfg.MaxInFlight),
	}
}

func (c *conn) serve() {
	defer c.srv.removeConn(c)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()
	c.readLoop()
	c.workers.Wait() // in-flight estimate/query workers still own out slots
	close(c.out)     // flush queued responses, then the writer exits
	wg.Wait()
	c.nc.Close()
}

// writeLoop drains the response queue to the socket. After a write error
// it keeps draining (returning buffers, decrementing in-flight) without
// writing, so the read loop never blocks on a dead peer. It is the final
// owner of each response's trace: the "write" span closes and the timeline
// publishes only after the bytes have reached (or failed to reach) the
// socket.
func (c *conn) writeLoop() {
	st := &c.srv.st
	failed := false
	for f := range c.out {
		if !failed {
			if _, err := c.nc.Write(*f.buf); err != nil {
				failed = true
				c.nc.Close() // unblock the read loop
			} else {
				st.bytesOut.Add(uint64(len(*f.buf)))
				st.framesOut.Add(1)
			}
		}
		wire.PutBuf(f.buf)
		st.inFlight.Add(-1)
		f.tr.Finish()
	}
}

// enqueue hands one encoded response (and its trace, if sampled) to the
// write loop, opening the trace's "write" span. Blocking here is the
// backstop — dispatch refuses with CodeBackpressure before the window
// fills, so only refusal frames ever ride the headroom.
func (c *conn) enqueue(b *[]byte, tr *telemetry.ActiveTrace) {
	tr.BeginSpan("write")
	c.srv.st.inFlight.Add(1)
	c.out <- outFrame{buf: b, tr: tr}
}

// reply encodes one successful response under an "encode" span and queues
// it.
func (c *conn) reply(tr *telemetry.ActiveTrace, encode func(b []byte) []byte) {
	b := wire.GetBuf()
	encStart := time.Now()
	*b = encode(*b)
	tr.AddSpan("encode", encStart)
	c.enqueue(b, tr)
}

// sendErr answers with a typed error frame; retry is the retry-after hint,
// zero for errors a retry would not cure.
func (c *conn) sendErr(tr *telemetry.ActiveTrace, id uint64, code wire.Code, retry time.Duration, msg string) {
	c.srv.st.countErr(code)
	tr.SetError(code.String())
	b := wire.GetBuf()
	*b = wire.AppendError(*b, id, code, uint32(retry.Milliseconds()), msg)
	c.enqueue(b, tr)
}

// decodeErr maps a payload decode failure onto a typed error frame. The
// framing itself was sound (header CRC passed, payload length honored), so
// the connection stays usable.
func (c *conn) decodeErr(tr *telemetry.ActiveTrace, id uint64, err error) {
	var pe *wire.ProtoError
	if errors.As(err, &pe) {
		c.sendErr(tr, id, pe.Code, 0, pe.Reason)
		return
	}
	c.sendErr(tr, id, wire.CodeMalformed, 0, err.Error())
}

// sendNotOwner answers a request the handler does not own with the typed
// not-owner frame carrying the map epoch, so a stale router knows to
// refetch the map and re-route.
func (c *conn) sendNotOwner(tr *telemetry.ActiveTrace, id uint64, msg string) {
	c.srv.st.notOwner.Add(1)
	tr.SetError("not_owner")
	epoch, _ := c.srv.h.Map()
	b := wire.GetBuf()
	*b = wire.AppendNotOwner(*b, id, epoch, msg)
	c.enqueue(b, tr)
}

func (c *conn) readLoop() {
	for {
		readStart := time.Now()
		h, payload, err := c.fr.Next()
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			var pe *wire.ProtoError
			if errors.As(err, &pe) {
				// Malformed header: report once, then drop the
				// connection — after a framing error the stream is
				// desynchronized and nothing further can be trusted.
				c.sendErr(nil, 0, pe.Code, 0, pe.Reason)
				c.srv.log.Warn("framing error, dropping conn",
					"remote", c.nc.RemoteAddr().String(), "err", pe.Reason)
			}
			return
		}
		c.srv.st.framesIn.Add(1)
		c.dispatch(h, payload, readStart)
	}
}

// opName maps a request frame type to its trace operation name.
func opName(t wire.Type) string {
	switch t {
	case wire.TFeedBatch:
		return "feed"
	case wire.TEstimate:
		return "estimate"
	case wire.TQueryBatch:
		return "query"
	case wire.TPing:
		return "ping"
	case wire.TMapFetch:
		return "map_fetch"
	}
	return t.String()
}

// dispatch routes one well-framed request. Refusals (draining, window
// full, unknown type) answer without touching the handler; handler calls
// run under a panic guard so a contained failure becomes CodeInternal,
// never a dropped connection without an answer.
//
// A trace-flagged request (wire.FlagTrace) may start a sampled span
// timeline here; the trace's clock zero is the dispatch start, so the
// preceding "read" span — waiting for and decoding the frame — carries a
// negative start offset.
func (c *conn) dispatch(h wire.Header, payload []byte, readStart time.Time) {
	start := time.Now()
	traceID, payload, err := wire.SplitTrace(h, payload)
	if err != nil {
		c.decodeErr(nil, h.ID, err)
		return
	}
	tr := c.srv.traces.Start(opName(h.Type), telemetry.TraceID(traceID))
	tr.AddSpan("read", readStart)
	if !h.Type.Request() {
		c.sendErr(tr, h.ID, wire.CodeUnknownType, 0, "not a request type: "+h.Type.String())
		return
	}
	if c.srv.draining.Load() {
		c.sendErr(tr, h.ID, wire.CodeDraining, retryAfter, c.srv.name+" draining")
		return
	}
	if h.Type == wire.TEstimate || h.Type == wire.TQueryBatch {
		// Estimates and query batches run on worker goroutines so a
		// pipelining client overlaps them; the window slot is held from
		// here until the response is enqueued.
		select {
		case c.window <- struct{}{}:
			c.handleQuery(h, payload, start, tr)
		default:
			c.sendErr(tr, h.ID, wire.CodeBackpressure, retryAfter, "in-flight window full")
		}
		return
	}
	if len(c.out) >= c.srv.cfg.MaxInFlight {
		c.sendErr(tr, h.ID, wire.CodeBackpressure, retryAfter, "in-flight window full")
		return
	}
	switch h.Type {
	case wire.TPing:
		c.srv.st.ping.observe(start)
		// A clustered pong carries the map epoch so routers detect
		// staleness from their cheapest probe.
		epoch, encoded := c.srv.h.Map()
		c.reply(tr, func(b []byte) []byte {
			if encoded == nil {
				return wire.AppendPong(b, h.ID)
			}
			return wire.AppendPongEpoch(b, h.ID, epoch)
		})
	case wire.TMapFetch:
		_, encoded := c.srv.h.Map()
		if encoded == nil {
			c.sendErr(tr, h.ID, wire.CodeUnknownType, 0, "server is not clustered")
			return
		}
		c.reply(tr, func(b []byte) []byte { return wire.AppendMapResult(b, h.ID, encoded) })
	case wire.TFeedBatch:
		c.handleFeed(h, payload, start, tr)
	}
}

// guard runs a handler call, converting a panic into an error the request
// is answered with (CodeInternal). Engines do not contain an estimator's
// panic: they release their locks and re-raise it on the handler's
// goroutine, so this is the one place it stops — a request must always be
// answered.
func (c *conn) guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c.srv.log.Error("handler panic contained", "err", fmt.Sprint(r))
			err = errors.New("engine failure")
		}
	}()
	return fn()
}

// errCode maps a Handler failure onto its wire code.
func errCode(err error) wire.Code {
	if errors.Is(err, context.DeadlineExceeded) {
		return wire.CodeDeadlineExceeded
	}
	return wire.CodeInternal
}

// handleFeed ingests one feed frame, first folding in any pipelined feed
// frames that are already fully buffered — one handler batch instead of N,
// while every frame still gets its own ack. Trace-flagged followers
// coalesce too (their payload prefix is stripped); only the head frame's
// trace records the batch, since the followers share its handler call.
func (c *conn) handleFeed(h wire.Header, payload []byte, start time.Time, tr *telemetry.ActiveTrace) {
	st := &c.srv.st
	const notOwned = "batch contains objects this node does not own"
	objs, kws, err := wire.DecodeFeedBatchInto(payload, c.objs, c.kws[:0])
	if err != nil {
		c.decodeErr(tr, h.ID, err)
		return
	}
	if !c.srv.h.OwnsObjects(objs) {
		c.objs = objs[:0]
		c.sendNotOwner(tr, h.ID, notOwned)
		return
	}
	acks := append(c.acks[:0], feedAck{h.ID, uint32(len(objs))})
	for len(objs) < coalesceObjects {
		nh, ready := c.fr.PeekHeader()
		if !ready || nh.Type != wire.TFeedBatch || nh.Flags&^wire.KnownFlags != 0 ||
			c.fr.Buffered() < wire.HeaderSize+int(nh.Length) {
			break
		}
		nh, pl, err := c.fr.Next() // fully buffered and header-verified: cannot block
		if err != nil {
			break
		}
		st.framesIn.Add(1)
		if _, pl, err = wire.SplitTrace(nh, pl); err != nil {
			c.decodeErr(nil, nh.ID, err)
			break
		}
		more, moreKws, err := wire.DecodeFeedBatchInto(pl, c.coalesce, kws)
		if err != nil {
			// This frame alone is bad; answer it and feed what we have.
			c.decodeErr(nil, nh.ID, err)
			break
		}
		c.coalesce = more[:0]
		if !c.srv.h.OwnsObjects(more) {
			// Refuse this follower frame alone; the head (and any frames
			// already folded in) passed the ownership check and still feeds.
			c.sendNotOwner(nil, nh.ID, notOwned)
			break
		}
		objs, kws = append(objs, more...), moreKws
		acks = append(acks, feedAck{nh.ID, uint32(len(more))})
		st.coalescedFeeds.Add(1)
	}
	c.objs = objs[:0]
	c.acks = acks[:0]
	engStart := time.Now()
	err = c.guard(func() error { return c.srv.h.Feed(context.Background(), objs) })
	c.kws = kws[:0] // the handler has copied what it keeps
	if err != nil {
		// The followers were consumed from the reader with the head, so
		// each is answered here or never: the batch failed as one.
		for _, a := range acks {
			c.sendErr(tr, a.id, errCode(err), 0, err.Error())
			tr = nil // the head frame's alone
		}
		return
	}
	tr.AddSpan("engine", engStart)
	st.feedObjects.Add(uint64(len(objs)))
	for _, a := range acks {
		st.feed.observe(start)
		c.reply(tr, func(b []byte) []byte { return wire.AppendAck(b, a.id, a.n) })
		tr = nil // the head frame's alone
	}
}

// handleQuery decodes an estimate or a query batch on the read loop (the
// payload aliases the frame reader's buffer and dies at the next read),
// then answers from a worker holding the window slot dispatch took.
// Spawning the worker hands it trace ownership. A batch's query slice is
// freshly allocated per request — it crosses into the worker goroutine, so
// the connection scratch cannot back it — and records one "engine" span
// for the whole batch; per-estimator attribution stays with single
// estimates.
func (c *conn) handleQuery(h wire.Header, payload []byte, start time.Time, tr *telemetry.ActiveTrace) {
	var (
		deadlineMS uint32
		q          stream.Query   // a single estimate's
		qs         []stream.Query // a batch's
		err        error
	)
	single, owned := h.Type == wire.TEstimate, true
	if single {
		if deadlineMS, q, err = wire.DecodeEstimate(payload); err == nil {
			owned = c.srv.h.OwnsQuery(&q)
		}
	} else {
		deadlineMS, qs, err = wire.DecodeQueryBatch(payload, nil)
		for i := 0; i < len(qs) && owned; i++ {
			owned = c.srv.h.OwnsQuery(&qs[i])
		}
	}
	if err != nil || !owned {
		<-c.window
		if err != nil {
			c.decodeErr(tr, h.ID, err)
		} else {
			c.sendNotOwner(tr, h.ID, "query footprint not owned by this node")
		}
		return
	}
	c.workers.Add(1)
	queued := time.Now()
	go func() {
		defer c.workers.Done()
		defer func() { <-c.window }()
		tr.AddSpan("queue", queued)
		// Budgets are milliseconds from frame decode — the two sides never
		// need agreeing clocks.
		ctx := context.Background()
		if deadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, start.Add(time.Duration(deadlineMS)*time.Millisecond))
			defer cancel()
		}
		var (
			est  float64
			ests []float64
			acts []int
		)
		engStart := time.Now()
		err := c.guard(func() (err error) {
			if single {
				est, err = c.srv.h.Estimate(ctx, &q, tr)
			} else {
				ests, acts, err = c.srv.h.QueryBatch(ctx, qs)
			}
			return err
		})
		if err != nil {
			c.sendErr(tr, h.ID, errCode(err), 0, err.Error())
			return
		}
		tr.AddSpan("engine", engStart)
		switch {
		case ctx.Err() != nil:
			// The peer has given up; an answer now is noise it must
			// discard.
			c.sendErr(tr, h.ID, wire.CodeDeadlineExceeded, 0,
				fmt.Sprintf("deadline %dms elapsed", deadlineMS))
		case single:
			c.srv.st.estimate.observe(start)
			c.reply(tr, func(b []byte) []byte { return wire.AppendEstimateResult(b, h.ID, est) })
		default:
			c.srv.st.query.observe(start)
			c.reply(tr, func(b []byte) []byte { return wire.AppendQueryBatchResult(b, h.ID, ests, acts) })
		}
	}()
}
