package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
	"github.com/spatiotext/latest/internal/wire"
)

// Backend is the routing surface a Proxy fronts. *Router implements it;
// client.Cluster re-exposes the same router, so cmd/latest-router can
// build a Proxy over either.
type Backend interface {
	FeedBatch(ctx context.Context, objs []stream.Object) (uint32, error)
	Estimate(ctx context.Context, q stream.Query) (float64, error)
	QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error)
	Epoch() uint64
	MapBytes() []byte
	Sample() telemetry.ClusterSample
}

// ProxyConfig tunes a Proxy. Zero values mean defaults.
type ProxyConfig struct {
	// Addr is the wire-protocol listen address (port 0 lets the kernel
	// pick; read it back with Addr).
	Addr string
	// AdminAddr, when non-empty, starts the HTTP admin/exposition plane
	// with the latest_cluster_* families.
	AdminAddr string
	// MaxConns caps open client connections. Default 256.
	MaxConns int
	// MaxInFlight bounds each connection's queued-but-unwritten
	// responses. Default 64.
	MaxInFlight int
	// MaxPayload bounds accepted frame payloads. Default
	// wire.DefaultMaxPayload.
	MaxPayload int
	// RetryAfter is the hint carried in backpressure/draining refusals.
	// Default 50ms.
	RetryAfter time.Duration
	// Log receives lifecycle lines. nil is silent.
	Log *telemetry.Logger
}

func (c *ProxyConfig) withDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
}

// Proxy speaks the latestd wire protocol to clients and drives a Backend
// (normally a Router) to answer: unmodified clients talk to a cluster
// exactly as they talk to a single node. Pings answer locally with the
// router's map epoch; TMapFetch serves the router's current map, so a
// proxy is also a valid map seed for other routers.
type Proxy struct {
	cfg     ProxyConfig
	backend Backend
	ln      net.Listener
	admin   *telemetry.Server
	log     *telemetry.Logger

	connsActive   atomic.Int64
	connsAccepted atomic.Uint64
	connsRejected atomic.Uint64
	reqErrors     atomic.Uint64

	draining atomic.Bool
	drainCh  chan struct{}
	drainReq sync.Once

	mu     sync.Mutex
	conns  map[*pconn]struct{}
	closed bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	stopOnce sync.Once
}

// NewProxy binds the listener (and admin plane when configured) and
// starts accepting.
func NewProxy(backend Backend, cfg ProxyConfig) (*Proxy, error) {
	if backend == nil {
		return nil, errors.New("cluster: nil proxy backend")
	}
	cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: proxy listen: %w", err)
	}
	p := &Proxy{
		cfg:     cfg,
		backend: backend,
		ln:      ln,
		log:     cfg.Log.Named("router"),
		drainCh: make(chan struct{}),
		conns:   make(map[*pconn]struct{}),
	}
	if cfg.AdminAddr != "" {
		admin, err := telemetry.Serve(cfg.AdminAddr, p.snapshot, cfg.Log,
			telemetry.Route{Pattern: "/healthz", Handler: http.HandlerFunc(p.handleHealthz)},
			telemetry.Route{Pattern: "/readyz", Handler: http.HandlerFunc(p.handleReadyz)},
			telemetry.Route{Pattern: "/drain", Handler: http.HandlerFunc(p.handleDrain)},
		)
		if err != nil {
			ln.Close()
			return nil, err
		}
		p.admin = admin
	}
	p.acceptWG.Add(1)
	go p.acceptLoop()
	p.log.Info("routing", "addr", ln.Addr().String(), "admin", cfg.AdminAddr,
		"epoch", backend.Epoch())
	return p, nil
}

// Addr returns the bound wire-protocol address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// AdminAddr returns the bound admin address, or "" when disabled.
func (p *Proxy) AdminAddr() string {
	if p.admin == nil {
		return ""
	}
	return p.admin.Addr()
}

// DrainRequested is closed when an operator hits the admin /drain
// endpoint.
func (p *Proxy) DrainRequested() <-chan struct{} { return p.drainCh }

func (p *Proxy) snapshot() telemetry.Snapshot {
	sample := p.backend.Sample()
	return telemetry.Snapshot{Engine: "router", Cluster: &sample}
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":%q,"draining":%v,"conns":%d,"epoch":%d}`+"\n",
		statusOf(p.draining.Load()), p.draining.Load(), p.connsActive.Load(), p.backend.Epoch())
}

func statusOf(draining bool) string {
	if draining {
		return "draining"
	}
	return "ok"
}

func (p *Proxy) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if p.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"ready":true,"status":"ok"}`)
}

func (p *Proxy) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	p.drainReq.Do(func() { close(p.drainCh) })
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"draining":true}`)
}

func (p *Proxy) acceptLoop() {
	defer p.acceptWG.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		// As in the server: refuse in the protocol, never by hanging up.
		if code, msg := p.refusal(); code != 0 {
			p.connsRejected.Add(1)
			p.connWG.Add(1)
			go func() {
				defer p.connWG.Done()
				wire.Refuse(nc, p.cfg.MaxPayload, code, p.cfg.RetryAfter, msg)
			}()
			continue
		}
		c := newPconn(p, nc)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			continue
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.connsActive.Add(1)
		p.connsAccepted.Add(1)
		p.connWG.Add(1)
		go c.serve()
	}
}

// refusal reports why a newly accepted connection cannot be served, or
// code 0 when it can.
func (p *Proxy) refusal() (wire.Code, string) {
	switch {
	case p.draining.Load():
		return wire.CodeDraining, "router draining"
	case p.connsActive.Load() >= int64(p.cfg.MaxConns):
		return wire.CodeBackpressure, "connection limit reached"
	}
	return 0, ""
}

func (p *Proxy) removeConn(c *pconn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	p.connsActive.Add(-1)
	p.connWG.Done()
}

// Shutdown drains gracefully, mirroring the server's GOAWAY sequence:
// stop accepting, refuse new requests with CodeDraining, flush accepted
// work, wait for peers to hang up, force-close at ctx expiry.
func (p *Proxy) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	p.stopOnce.Do(func() {
		p.draining.Store(true)
		wire.CloseAfterBacklog(p.ln, &p.acceptWG)
		p.log.Info("draining", "conns", p.connsActive.Load())
		done := make(chan struct{})
		go func() {
			p.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			p.mu.Lock()
			n := len(p.conns)
			for c := range p.conns {
				c.nc.Close()
			}
			p.mu.Unlock()
			<-done
			err = fmt.Errorf("cluster: drain deadline: force-closed %d conns: %w", n, ctx.Err())
		}
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		if p.admin != nil {
			if aerr := p.admin.Shutdown(ctx); err == nil {
				err = aerr
			}
		}
		p.log.Info("stopped")
	})
	return err
}

// Close force-stops the proxy.
func (p *Proxy) Close() error {
	var err error
	p.stopOnce.Do(func() {
		p.draining.Store(true)
		p.ln.Close()
		p.acceptWG.Wait()
		p.mu.Lock()
		p.closed = true
		for c := range p.conns {
			c.nc.Close()
		}
		p.mu.Unlock()
		p.connWG.Wait()
		if p.admin != nil {
			err = p.admin.Close()
		}
		p.log.Info("stopped")
	})
	return err
}

// pconn is one proxied client connection: the same read/write loop split
// as the server's conn, minus feed coalescing (the router re-batches by
// owner anyway) and tracing.
type pconn struct {
	p      *Proxy
	nc     net.Conn
	fr     *wire.FrameReader
	out    chan *[]byte
	window chan struct{}

	workers sync.WaitGroup
	objs    []stream.Object // decode scratch, read loop only
}

func newPconn(p *Proxy, nc net.Conn) *pconn {
	return &pconn{
		p:      p,
		nc:     nc,
		fr:     wire.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), p.cfg.MaxPayload),
		out:    make(chan *[]byte, p.cfg.MaxInFlight+outHeadroom),
		window: make(chan struct{}, p.cfg.MaxInFlight),
	}
}

// outHeadroom mirrors the server's: refusal frames must always enqueue.
const outHeadroom = 16

func (c *pconn) serve() {
	defer c.p.removeConn(c)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()
	c.readLoop()
	c.workers.Wait()
	close(c.out)
	wg.Wait()
	c.nc.Close()
}

func (c *pconn) writeLoop() {
	failed := false
	for b := range c.out {
		if !failed {
			if _, err := c.nc.Write(*b); err != nil {
				failed = true
				c.nc.Close()
			}
		}
		wire.PutBuf(b)
	}
}

func (c *pconn) enqueue(b *[]byte) { c.out <- b }

func (c *pconn) sendErr(id uint64, code wire.Code, retryAfter time.Duration, msg string) {
	c.p.reqErrors.Add(1)
	b := wire.GetBuf()
	*b = wire.AppendError(*b, id, code, uint32(retryAfter.Milliseconds()), msg)
	c.enqueue(b)
}

func (c *pconn) decodeErr(id uint64, err error) {
	var pe *wire.ProtoError
	if errors.As(err, &pe) {
		c.sendErr(id, pe.Code, 0, pe.Reason)
		return
	}
	c.sendErr(id, wire.CodeMalformed, 0, err.Error())
}

// backendErr maps a routing failure onto a typed error frame.
func (c *pconn) backendErr(id uint64, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		c.sendErr(id, wire.CodeDeadlineExceeded, 0, err.Error())
	default:
		c.sendErr(id, wire.CodeInternal, 0, err.Error())
	}
}

func (c *pconn) readLoop() {
	for {
		h, payload, err := c.fr.Next()
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			var pe *wire.ProtoError
			if errors.As(err, &pe) {
				c.sendErr(0, pe.Code, 0, pe.Reason)
				c.p.log.Warn("framing error, dropping conn",
					"remote", c.nc.RemoteAddr().String(), "err", pe.Reason)
			}
			return
		}
		c.dispatch(h, payload)
	}
}

func (c *pconn) dispatch(h wire.Header, payload []byte) {
	_, payload, err := wire.SplitTrace(h, payload)
	if err != nil {
		c.decodeErr(h.ID, err)
		return
	}
	if !h.Type.Request() {
		c.sendErr(h.ID, wire.CodeUnknownType, 0, "not a request type: "+h.Type.String())
		return
	}
	if c.p.draining.Load() {
		c.sendErr(h.ID, wire.CodeDraining, c.p.cfg.RetryAfter, "router draining")
		return
	}
	switch h.Type {
	case wire.TPing:
		if len(c.out) >= c.p.cfg.MaxInFlight {
			c.sendErr(h.ID, wire.CodeBackpressure, c.p.cfg.RetryAfter, "in-flight window full")
			return
		}
		b := wire.GetBuf()
		*b = wire.AppendPongEpoch(*b, h.ID, c.p.backend.Epoch())
		c.enqueue(b)
	case wire.TMapFetch:
		if len(c.out) >= c.p.cfg.MaxInFlight {
			c.sendErr(h.ID, wire.CodeBackpressure, c.p.cfg.RetryAfter, "in-flight window full")
			return
		}
		b := wire.GetBuf()
		*b = wire.AppendMapResult(*b, h.ID, c.p.backend.MapBytes())
		c.enqueue(b)
	case wire.TFeedBatch:
		if len(c.out) >= c.p.cfg.MaxInFlight {
			c.sendErr(h.ID, wire.CodeBackpressure, c.p.cfg.RetryAfter, "in-flight window full")
			return
		}
		c.handleFeed(h, payload)
	case wire.TEstimate, wire.TQueryBatch:
		select {
		case c.window <- struct{}{}:
		default:
			c.sendErr(h.ID, wire.CodeBackpressure, c.p.cfg.RetryAfter, "in-flight window full")
			return
		}
		if h.Type == wire.TEstimate {
			c.handleEstimate(h, payload)
		} else {
			c.handleQueryBatch(h, payload)
		}
	}
}

// handleFeed routes one feed batch inline on the read loop: ingest order
// is part of stream semantics, exactly as on the server.
func (c *pconn) handleFeed(h wire.Header, payload []byte) {
	objs, err := wire.DecodeFeedBatch(payload, c.objs)
	if err != nil {
		c.decodeErr(h.ID, err)
		return
	}
	n, err := c.p.backend.FeedBatch(context.Background(), objs)
	c.objs = objs[:0]
	if err != nil {
		c.backendErr(h.ID, err)
		return
	}
	b := wire.GetBuf()
	*b = wire.AppendAck(*b, h.ID, n)
	c.enqueue(b)
}

// deadlineCtx applies a request's relative deadline budget.
func deadlineCtx(deadlineMS uint32) (context.Context, context.CancelFunc) {
	if deadlineMS == 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(deadlineMS)*time.Millisecond)
}

func (c *pconn) handleEstimate(h wire.Header, payload []byte) {
	deadlineMS, q, err := wire.DecodeEstimate(payload)
	if err != nil {
		<-c.window
		c.decodeErr(h.ID, err)
		return
	}
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		defer func() { <-c.window }()
		ctx, cancel := deadlineCtx(deadlineMS)
		defer cancel()
		est, err := c.p.backend.Estimate(ctx, q)
		if err != nil {
			c.backendErr(h.ID, err)
			return
		}
		b := wire.GetBuf()
		*b = wire.AppendEstimateResult(*b, h.ID, est)
		c.enqueue(b)
	}()
}

func (c *pconn) handleQueryBatch(h wire.Header, payload []byte) {
	deadlineMS, qs, err := wire.DecodeQueryBatch(payload, nil)
	if err != nil {
		<-c.window
		c.decodeErr(h.ID, err)
		return
	}
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		defer func() { <-c.window }()
		ctx, cancel := deadlineCtx(deadlineMS)
		defer cancel()
		ests, acts, err := c.p.backend.QueryBatch(ctx, qs)
		if err != nil {
			c.backendErr(h.ID, err)
			return
		}
		b := wire.GetBuf()
		*b = wire.AppendQueryBatchResult(*b, h.ID, ests, acts)
		c.enqueue(b)
	}()
}
