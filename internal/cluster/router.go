package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// Node is one backend latestd as the router sees it: the pipelined request
// surface plus the map-fetch exchange. The client package adapts
// client.Client onto it; tests substitute in-process fakes.
type Node interface {
	FeedBatch(ctx context.Context, objs []stream.Object) (uint32, error)
	Estimate(ctx context.Context, q stream.Query) (float64, error)
	QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error)
	Ping(ctx context.Context) error
	// FetchMap returns the node's current encoded partition map.
	FetchMap(ctx context.Context) ([]byte, error)
	Close() error
}

// Dialer creates the Node for a map address. The router dials lazily and
// redials only when a map swap introduces a new address.
type Dialer func(addr string) Node

// notOwner matches not-owner refusals across packages: wire.NotOwnerError
// and client.NotOwnerError both implement it, so the router detects the
// refusal regardless of which layer wrapped it.
type notOwner interface{ NotOwnerEpoch() uint64 }

// NodeError is a hard failure of one backend node, surfaced to the caller
// after the router's transparent retries are exhausted or when the failure
// is not a map-staleness refusal.
type NodeError struct {
	Addr string
	Err  error
}

// Error implements error.
func (e *NodeError) Error() string { return "cluster: node " + e.Addr + ": " + e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *NodeError) Unwrap() error { return e.Err }

// Options tune a Router. The zero value is usable.
type Options struct {
	// MaxMapRetries bounds transparent refetch-and-retry rounds per
	// operation when nodes refuse with not-owner. Default 3.
	MaxMapRetries int
	// Log receives routing lifecycle lines (map swaps), each carrying
	// component=cluster. nil is silent.
	Log *slog.Logger
}

// nodeStat is one backend's per-node counters.
type nodeStat struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	latency  telemetry.Histogram
}

// routerStats backs telemetry.ClusterSample.
type routerStats struct {
	feedObjects   atomic.Uint64
	feedBatches   atomic.Uint64
	estimates     atomic.Uint64
	queries       atomic.Uint64
	forwardSingle atomic.Uint64
	scatterMulti  atomic.Uint64
	broadcasts    atomic.Uint64
	subqueries    atomic.Uint64
	notOwner      atomic.Uint64
	mapRefetches  atomic.Uint64
	retries       atomic.Uint64
	nodeErrors    atomic.Uint64
}

// Router routes feeds to owning nodes and queries to the nodes whose
// territory they overlap, aggregating scattered answers by exact sum. It
// holds one Node per backend address and swaps its partition map when a
// backend refuses with a newer epoch. Safe for concurrent use.
type Router struct {
	dial Dialer
	opts Options
	log  *slog.Logger

	mu      sync.RWMutex
	m       *Map
	encoded []byte
	nodes   map[string]Node
	stats   map[string]*nodeStat
	closed  bool

	st routerStats
}

// NewRouter creates a Router over a validated map. Nodes are dialed
// lazily on first use.
func NewRouter(m *Map, dial Dialer, opts Options) *Router {
	if opts.MaxMapRetries <= 0 {
		opts.MaxMapRetries = 3
	}
	return &Router{
		dial:    dial,
		opts:    opts,
		log:     cmp.Or(opts.Log, telemetry.Discard).With("component", "cluster"),
		m:       m,
		encoded: m.Encode(),
		nodes:   make(map[string]Node),
		stats:   make(map[string]*nodeStat),
	}
}

// SetMaxMapRetries adjusts the stale-map retry budget. Call before the
// router starts carrying traffic; values <= 0 are ignored.
func (r *Router) SetMaxMapRetries(n int) {
	if n > 0 {
		r.opts.MaxMapRetries = n
	}
}

// Map returns the currently held partition map.
func (r *Router) Map() *Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// Epoch returns the held map's epoch.
func (r *Router) Epoch() uint64 { return r.Map().Epoch }

// MapBytes returns the held map in encoded form (for serving TMapFetch).
func (r *Router) MapBytes() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.encoded
}

// Close closes every dialed node connection.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	var first error
	for addr, n := range r.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.nodes, addr)
	}
	return first
}

// node returns (dialing if needed) the Node for a map node index.
func (r *Router) node(m *Map, idx int) (Node, *nodeStat, error) {
	addr := m.Nodes[idx]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, errors.New("cluster: router closed")
	}
	n, ok := r.nodes[addr]
	if !ok {
		n = r.dial(addr)
		r.nodes[addr] = n
	}
	st, ok := r.stats[addr]
	if !ok {
		st = &nodeStat{}
		r.stats[addr] = st
	}
	return n, st, nil
}

// call runs one sub-request against a node with per-node accounting.
func (r *Router) call(m *Map, idx int, fn func(Node) error) error {
	n, st, err := r.node(m, idx)
	if err != nil {
		return err
	}
	st.requests.Add(1)
	start := time.Now()
	err = fn(n)
	st.latency.Record(time.Since(start))
	if err != nil {
		st.errors.Add(1)
	}
	return err
}

// classify splits a sub-request error: a not-owner refusal reports the
// refusing node's epoch; anything else is a hard NodeError.
func (r *Router) classify(m *Map, idx int, err error) (staleEpoch uint64, hard error) {
	var no notOwner
	if errors.As(err, &no) {
		r.st.notOwner.Add(1)
		return no.NotOwnerEpoch(), nil
	}
	r.st.nodeErrors.Add(1)
	return 0, &NodeError{Addr: m.Nodes[idx], Err: err}
}

// refresh fetches a newer map after a not-owner refusal, preferring the
// refusing node (it demonstrably holds a newer epoch), falling back to the
// rest. It returns the map to use for the retry.
func (r *Router) refresh(ctx context.Context, m *Map, preferIdx int) (*Map, error) {
	order := make([]int, 0, len(m.Nodes))
	if preferIdx >= 0 && preferIdx < len(m.Nodes) {
		order = append(order, preferIdx)
	}
	for i := range m.Nodes {
		if i != preferIdx {
			order = append(order, i)
		}
	}
	var lastErr error
	for _, idx := range order {
		var raw []byte
		err := r.call(m, idx, func(n Node) error {
			var ferr error
			raw, ferr = n.FetchMap(ctx)
			return ferr
		})
		if err != nil {
			lastErr = err
			continue
		}
		nm, err := DecodeMap(raw)
		if err != nil {
			lastErr = err
			continue
		}
		r.st.mapRefetches.Add(1)
		return r.install(nm), nil
	}
	return m, fmt.Errorf("cluster: map refetch failed: %w", lastErr)
}

// install swaps in nm when it is newer than the held map and closes node
// connections no newer map references. Returns the map now held.
func (r *Router) install(nm *Map) *Map {
	r.mu.Lock()
	if nm.Epoch <= r.m.Epoch {
		cur := r.m
		r.mu.Unlock()
		return cur
	}
	old := r.m
	r.m = nm
	r.encoded = nm.Encode()
	keep := make(map[string]bool, len(nm.Nodes))
	for _, a := range nm.Nodes {
		keep[a] = true
	}
	var orphans []Node
	for addr, n := range r.nodes {
		if !keep[addr] {
			orphans = append(orphans, n)
			delete(r.nodes, addr)
		}
	}
	r.mu.Unlock()
	for _, n := range orphans {
		n.Close()
	}
	r.log.Info("partition map swapped", "from", old.Epoch, "to", nm.Epoch,
		"nodes", len(nm.Nodes))
	return nm
}

// FeedBatch routes each object to its owning node and feeds the per-node
// buckets concurrently. On a not-owner refusal the affected bucket is
// transparently re-routed under the refetched map; objects already
// accepted by other nodes are never re-sent. Returns the total accepted
// count; a hard node failure surfaces as exactly one *NodeError (with the
// counts accepted elsewhere still reported).
func (r *Router) FeedBatch(ctx context.Context, objs []stream.Object) (uint32, error) {
	r.st.feedBatches.Add(1)
	r.st.feedObjects.Add(uint64(len(objs)))
	if len(objs) == 0 {
		return 0, nil
	}
	var accepted atomic.Uint64
	pending := objs
	m := r.Map()
	for attempt := 0; ; attempt++ {
		buckets := make(map[int][]stream.Object)
		for i := range pending {
			owner := m.OwnerOf(pending[i].Loc)
			buckets[owner] = append(buckets[owner], pending[i])
		}
		type outcome struct {
			idx   int
			err   error
			batch []stream.Object
		}
		results := make(chan outcome, len(buckets))
		for idx, batch := range buckets {
			go func(idx int, batch []stream.Object) {
				err := r.call(m, idx, func(n Node) error {
					got, ferr := n.FeedBatch(ctx, batch)
					if ferr == nil {
						accepted.Add(uint64(got))
					}
					return ferr
				})
				results <- outcome{idx: idx, err: err, batch: batch}
			}(idx, batch)
		}
		var retry []stream.Object
		staleIdx := -1
		var staleEpoch uint64
		var hard error
		for range buckets {
			out := <-results
			if out.err == nil {
				continue
			}
			epoch, nerr := r.classify(m, out.idx, out.err)
			if nerr != nil {
				if hard == nil {
					hard = nerr
				}
				continue
			}
			retry = append(retry, out.batch...)
			staleIdx, staleEpoch = out.idx, epoch
		}
		if hard != nil {
			return uint32(accepted.Load()), hard
		}
		if len(retry) == 0 {
			return uint32(accepted.Load()), nil
		}
		if attempt >= r.opts.MaxMapRetries {
			return uint32(accepted.Load()), fmt.Errorf(
				"cluster: feed still refused after %d map refetches (node epoch %d, router epoch %d)",
				attempt, staleEpoch, m.Epoch)
		}
		nm, err := r.refresh(ctx, m, staleIdx)
		if err != nil {
			return uint32(accepted.Load()), err
		}
		r.st.retries.Add(1)
		m = nm
		pending = retry
	}
}

// subQueries builds the per-node sub-queries for one query under m:
// targets[i] parallels queries[i]. A nil slice with owner >= 0 means
// "forward unmodified to owner".
func planSubQueries(m *Map, q *stream.Query) (owner int, targets []int, qs []stream.Query, mode string) {
	if !q.HasRange {
		// Keyword-only queries count objects, not distinct keywords, so
		// per-node counts over disjoint object sets sum exactly.
		for idx := range m.Nodes {
			targets = append(targets, idx)
			qs = append(qs, *q)
		}
		return -1, targets, qs, "broadcast"
	}
	single, parts := m.PlanQuery(q.Range)
	if parts == nil {
		return single, nil, nil, "forward"
	}
	for _, p := range parts {
		for _, rect := range p.Rects {
			sub := *q
			sub.Range = rect
			targets = append(targets, p.Node)
			qs = append(qs, sub)
		}
	}
	return -1, targets, qs, "scatter"
}

// runQuery answers one query under the current map with transparent
// stale-map retry, returning the summed estimate and exact count.
func (r *Router) runQuery(ctx context.Context, q *stream.Query) (float64, int, error) {
	m := r.Map()
	for attempt := 0; ; attempt++ {
		est, act, staleIdx, staleEpoch, err := r.runQueryOnce(ctx, m, q)
		if err == nil && staleIdx < 0 {
			return est, act, nil
		}
		if err != nil {
			return 0, 0, err
		}
		if attempt >= r.opts.MaxMapRetries {
			return 0, 0, fmt.Errorf(
				"cluster: query still refused after %d map refetches (node epoch %d, router epoch %d)",
				attempt, staleEpoch, m.Epoch)
		}
		nm, rerr := r.refresh(ctx, m, staleIdx)
		if rerr != nil {
			return 0, 0, rerr
		}
		r.st.retries.Add(1)
		m = nm
	}
}

// runQueryOnce scatters one query under m, its range aligned onto the
// map's lattice first (see Map.Align). A not-owner refusal reports
// (staleIdx, staleEpoch) so the caller refetches and reruns the whole
// query — re-asking nodes that already answered is harmless (counts are a
// pure function of the query) — while any hard failure surfaces as one
// *NodeError.
func (r *Router) runQueryOnce(ctx context.Context, m *Map, q *stream.Query) (est float64, act int, staleIdx int, staleEpoch uint64, err error) {
	if q.HasRange {
		aligned := *q
		aligned.Range = m.Align(q.Range)
		q = &aligned
	}
	owner, targets, qs, mode := planSubQueries(m, q)
	switch mode {
	case "forward":
		r.st.forwardSingle.Add(1)
	case "scatter":
		r.st.scatterMulti.Add(1)
	case "broadcast":
		r.st.broadcasts.Add(1)
	}
	if targets == nil {
		r.st.subqueries.Add(1)
		var ests []float64
		var acts []int
		cerr := r.call(m, owner, func(n Node) error {
			var ferr error
			ests, acts, ferr = n.QueryBatch(ctx, []stream.Query{*q})
			return ferr
		})
		if cerr != nil {
			epoch, nerr := r.classify(m, owner, cerr)
			if nerr != nil {
				return 0, 0, -1, 0, nerr
			}
			return 0, 0, owner, epoch, nil
		}
		if len(ests) != 1 || len(acts) != 1 {
			return 0, 0, -1, 0, &NodeError{Addr: m.Nodes[owner],
				Err: fmt.Errorf("forwarded query answered with %d results", len(ests))}
		}
		return ests[0], acts[0], -1, 0, nil
	}

	// Group sub-queries by node: one QueryBatch round trip per node.
	perNode := make(map[int][]stream.Query)
	for i, idx := range targets {
		perNode[idx] = append(perNode[idx], qs[i])
	}
	r.st.subqueries.Add(uint64(len(targets)))
	type outcome struct {
		idx  int
		ests []float64
		acts []int
		err  error
	}
	results := make(chan outcome, len(perNode))
	for idx, batch := range perNode {
		go func(idx int, batch []stream.Query) {
			var o outcome
			o.idx = idx
			o.err = r.call(m, idx, func(n Node) error {
				var ferr error
				o.ests, o.acts, ferr = n.QueryBatch(ctx, batch)
				if ferr == nil && len(o.ests) != len(batch) {
					ferr = fmt.Errorf("scatter sent %d sub-queries, got %d results", len(batch), len(o.ests))
				}
				return ferr
			})
			results <- o
		}(idx, batch)
	}
	staleIdx = -1
	var hard error
	for range perNode {
		o := <-results
		if o.err != nil {
			epoch, nerr := r.classify(m, o.idx, o.err)
			if nerr != nil {
				if hard == nil {
					hard = nerr
				}
				continue
			}
			staleIdx, staleEpoch = o.idx, epoch
			continue
		}
		for i := range o.ests {
			est += o.ests[i]
			act += o.acts[i]
		}
	}
	if hard != nil {
		return 0, 0, -1, 0, hard
	}
	if staleIdx >= 0 {
		return 0, 0, staleIdx, staleEpoch, nil
	}
	return est, act, -1, 0, nil
}

// Estimate answers one query's selectivity estimate: the sum of the
// owning nodes' estimates (each node also closes its own accuracy
// feedback loop on its slice of the data).
func (r *Router) Estimate(ctx context.Context, q stream.Query) (float64, error) {
	r.st.estimates.Add(1)
	est, _, err := r.runQuery(ctx, &q)
	return est, err
}

// QueryBatch runs full estimate+execute cycles, returning summed per-node
// estimates and exact counts. Queries run in order; each query's scatter
// fans out concurrently.
func (r *Router) QueryBatch(ctx context.Context, qs []stream.Query) ([]float64, []int, error) {
	r.st.queries.Add(1)
	ests := make([]float64, len(qs))
	acts := make([]int, len(qs))
	for i := range qs {
		est, act, err := r.runQuery(ctx, &qs[i])
		if err != nil {
			return nil, nil, err
		}
		ests[i], acts[i] = est, act
	}
	return ests, acts, nil
}

// Ping checks liveness of every node in the held map.
func (r *Router) Ping(ctx context.Context) error {
	m := r.Map()
	for idx := range m.Nodes {
		if err := r.call(m, idx, func(n Node) error { return n.Ping(ctx) }); err != nil {
			return &NodeError{Addr: m.Nodes[idx], Err: err}
		}
	}
	return nil
}

// Sample builds the routing layer's slice of a telemetry snapshot.
func (r *Router) Sample() telemetry.ClusterSample {
	m := r.Map()
	s := telemetry.ClusterSample{
		Epoch:         m.Epoch,
		Nodes:         len(m.Nodes),
		Cols:          m.Cols,
		Rows:          m.Rows,
		FeedObjects:   r.st.feedObjects.Load(),
		FeedBatches:   r.st.feedBatches.Load(),
		Estimates:     r.st.estimates.Load(),
		Queries:       r.st.queries.Load(),
		ForwardSingle: r.st.forwardSingle.Load(),
		ScatterMulti:  r.st.scatterMulti.Load(),
		Broadcasts:    r.st.broadcasts.Load(),
		Subqueries:    r.st.subqueries.Load(),
		NotOwner:      r.st.notOwner.Load(),
		MapRefetches:  r.st.mapRefetches.Load(),
		Retries:       r.st.retries.Load(),
		NodeErrors:    r.st.nodeErrors.Load(),
	}
	r.mu.RLock()
	addrs := make([]string, 0, len(r.stats))
	for addr := range r.stats {
		addrs = append(addrs, addr)
	}
	r.mu.RUnlock()
	sort.Strings(addrs)
	for _, addr := range addrs {
		r.mu.RLock()
		st := r.stats[addr]
		r.mu.RUnlock()
		s.PerNode = append(s.PerNode, telemetry.ClusterNode{
			Addr:     addr,
			Requests: st.requests.Load(),
			Errors:   st.errors.Load(),
			Latency:  st.latency.Snapshot(),
		})
	}
	return s
}
