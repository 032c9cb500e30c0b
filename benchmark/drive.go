package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/metrics"
)

// Latency limits a request is judged against. A request that finishes
// later than its limit (the open loop measures from when it was due), is
// refused or fails, counts as late.
const (
	feedLimit  = 10 * time.Millisecond
	queryLimit = 25 * time.Millisecond
)

// Correctness-check strides: one query in checkEvery is verified against a
// brute-force scan of the benchmark's ring, and on deployments whose query
// op returns no exact count one query in accuracyEvery is scored against
// such a scan after the phase ends.
const (
	checkEvery    = 256
	accuracyEvery = 2
)

// plan is the traffic one measured phase offers.
type plan struct {
	batch int // objects per feed
	// Closed loop: cycles of feedsPerQuery feeds followed by one query,
	// one caller.
	feedsPerQuery int
	cycles        int
	// Open loop: a feeder and a querier, one connection each, on fixed
	// schedules for duration.
	open     bool
	feedHz   float64
	queryHz  float64
	duration time.Duration
	// midpoint, when non-nil, runs once halfway through a closed loop
	// (embed-durable's snapshot).
	midpoint func() error
}

// scored is a query kept for after-the-phase accuracy scoring.
type scored struct {
	q      latest.Query
	est    float64
	lo, hi int
}

// phase is what one caller observed over one measured phase.
type phase struct {
	feed, query samples // per-call latency, ns
	segObjs     [segments]int
	segQueries  [segments]int
	segSecs     [segments]float64
	// Open loop: a segment runs from its first request's due time to its
	// last request's completion.
	segFirstDue [segments]time.Time
	segLastDone [segments]time.Time

	accSum  float64
	accN    int
	toScore []scored

	attempted, failed, late int
	failures                []string

	// heap is the live heap after a forced collection, sampled where a
	// collection disturbs no timed call: at every segment boundary of a
	// closed loop, before and after an open one. Its mean is the memory the
	// deployment held over the phase, not what it happened to hold at the
	// end (an active AASP is 12 MB, an active RSL under 1).
	heap []float64

	inCall time.Duration // total time inside timed calls
	calls  int

	lag         []float64 // open loop: generator lateness per request, ns
	backlogMax  int
	activeCount map[string]int // traced: per-query active estimator samples

	rec *recorder
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// timedFeed stamps the next batch and feeds it, timing only the call.
func (p *phase) timedFeed(st *stack, in *inputs, buf []latest.Object, n, seg int, due, prevDone time.Time) (start, end time.Time) {
	batch := in.stamp(buf, n)
	start = time.Now()
	accepted, err := st.feed(batch)
	end = time.Now()
	p.attempted++
	lat := end.Sub(start)
	if !due.IsZero() {
		lat, _ = openLoopSample(due, prevDone, start, end)
	}
	p.feed.add(seg, float64(lat))
	p.inCall += end.Sub(start)
	p.calls++
	p.segObjs[seg] += n
	switch {
	case err != nil:
		p.fail("feed: %v", err)
		p.late++
	case accepted != n:
		p.fail("feed ack accepted %d of %d objects", accepted, n)
	}
	if err == nil && lat > feedLimit {
		p.late++
	}
	p.rec.add("feed", uint64(p.calls), -1, start, end)
	return start, end
}

// timedQuery issues q at the stream position hi (exclusive), timing only
// the call, then scores and checks it outside the timed region.
func (p *phase) timedQuery(st *stack, in *inputs, q latest.Query, idx, hi, seg int, due, prevDone time.Time) (start, end time.Time) {
	q.Timestamp = tsOf(hi - 1)
	start = time.Now()
	est, actual, err := st.query(&q)
	end = time.Now()
	p.attempted++
	lat := end.Sub(start)
	if !due.IsZero() {
		lat, _ = openLoopSample(due, prevDone, start, end)
	}
	p.query.add(seg, float64(lat))
	p.inCall += end.Sub(start)
	p.calls++
	p.segQueries[seg]++
	p.rec.add("query", uint64(p.calls), -1, start, end)
	if err != nil {
		p.fail("query: %v", err)
		p.late++
		return start, end
	}
	if lat > queryLimit {
		p.late++
	}
	lo := in.liveLo(q.Timestamp)
	if st.exact {
		p.accSum += metrics.Accuracy(est, float64(actual))
		p.accN++
	} else if idx%accuracyEvery == 0 {
		p.toScore = append(p.toScore, scored{q: q, est: est, lo: lo, hi: hi})
	}
	// The brute-force check needs a quiescent ring, which a concurrent
	// feeder does not give; the open loop checks after its phase instead.
	if idx%checkEvery == 0 && due.IsZero() {
		p.checkExact(st, in, &q, actual, lo, hi)
	}
	return start, end
}

// checkExact compares the deployment's exact count for q with a
// brute-force scan of the ring.
func (p *phase) checkExact(st *stack, in *inputs, q *latest.Query, got, lo, hi int) {
	p.attempted++
	if !st.exact {
		var err error
		if got, err = st.exactCount(q); err != nil {
			p.fail("exact count: %v", err)
			return
		}
	}
	if want := in.bruteCount(q, lo, hi); got != want {
		p.fail("exact count %d, brute-force scan of the ring %d for %v", got, want, q)
	}
}

// scoreDeferred computes accuracy for the queries whose truth the
// deployment did not return, from the ring as it stood when each was sent.
func (p *phase) scoreDeferred(in *inputs) {
	for i := range p.toScore {
		s := &p.toScore[i]
		p.accSum += metrics.Accuracy(s.est, float64(in.bruteCount(&s.q, s.lo, s.hi)))
		p.accN++
	}
	p.toScore = nil
}

// sampleActive records which estimator each shard has active (traced
// phases only; the accessor drains the ingest queues).
func (p *phase) sampleActive(st *stack) {
	if p.activeCount == nil {
		p.activeCount = make(map[string]int)
	}
	for _, e := range st.engines {
		for _, name := range e.ActiveEstimators() {
			p.activeCount[name]++
		}
	}
}

// closedLoop runs the plan with one caller: the next request is sent only
// after the previous one completed.
func closedLoop(st *stack, in *inputs, pl plan, qs []latest.Query, rec *recorder) (*phase, error) {
	p := &phase{rec: rec}
	buf := make([]latest.Object, pl.batch)
	var segStart time.Time
	seg := -1
	for c := 0; c < pl.cycles; c++ {
		if s := c * segments / pl.cycles; s != seg {
			if seg >= 0 {
				p.segSecs[seg] = time.Since(segStart).Seconds()
			}
			p.heap = append(p.heap, heapLive())
			seg, segStart = s, time.Now()
		}
		if pl.midpoint != nil && c == pl.cycles/2 {
			if err := pl.midpoint(); err != nil {
				return p, err
			}
		}
		for f := 0; f < pl.feedsPerQuery; f++ {
			p.timedFeed(st, in, buf, pl.batch, seg, time.Time{}, time.Time{})
		}
		p.timedQuery(st, in, qs[c], c, in.next, seg, time.Time{}, time.Time{})
		if rec != nil {
			p.sampleActive(st)
		}
	}
	if seg >= 0 {
		p.segSecs[seg] = time.Since(segStart).Seconds()
	}
	p.heap = append(p.heap, heapLive())
	p.scoreDeferred(in)
	return p, nil
}

// openLoopSample turns one scheduled request's instants into what the
// ledger records. lag is the generator's own lateness: how long after the
// request was both due and free to go (the previous request on the
// connection had completed) it was actually sent. latency runs from the
// due time, less that lag — the instrument's timer error is not the
// system's, but every moment a request waited behind a slow predecessor is.
func openLoopSample(due, prevDone, sent, done time.Time) (latency, lag time.Duration) {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	lag = sent.Sub(ready)
	return done.Sub(due) - lag, lag
}

// backlog is how many scheduled requests are due at now but not among the
// first sent ones: the open loop's queue length, the request about to go
// out included.
func backlog(start, now time.Time, period time.Duration, total, sent int) int {
	if now.Before(start) {
		return 0
	}
	due := int(now.Sub(start)/period) + 1
	if due > total {
		due = total
	}
	return due - sent
}

// openLoop runs a feeder and a querier on fixed schedules, one connection
// each. A schedule does not slow when the system does: every request is
// timed from its due time, so a stall is charged to every request it
// delays.
func openLoop(st *stack, in *inputs, pl plan, qs []latest.Query, epoch time.Time, traced bool) (feeds, queries *phase) {
	feeds, queries = &phase{}, &phase{}
	if traced {
		feeds.rec, queries.rec = newRecorder(epoch), newRecorder(epoch)
	}
	var acked atomic.Int64 // stream position below which every object is acknowledged
	acked.Store(int64(in.next))
	feeds.heap = append(feeds.heap, heapLive())
	start := time.Now().Add(20 * time.Millisecond)

	run := func(p *phase, hz float64, send func(k, seg int, due, prevDone time.Time) (sent, done time.Time)) {
		total := int(hz * pl.duration.Seconds())
		period := time.Duration(float64(time.Second) / hz)
		prevDone := start
		for k := 0; k < total; k++ {
			due := start.Add(time.Duration(k) * period)
			time.Sleep(time.Until(due))
			seg := k * segments / total
			if b := backlog(start, time.Now(), period, total, k); b > p.backlogMax {
				p.backlogMax = b
			}
			sent, done := send(k, seg, due, prevDone)
			_, lag := openLoopSample(due, prevDone, sent, done)
			p.lag = append(p.lag, float64(lag))
			prevDone = done
			if p.segFirstDue[seg].IsZero() {
				p.segFirstDue[seg] = due
			}
			p.segLastDone[seg] = done
		}
		for s := range p.segSecs {
			p.segSecs[s] = p.segLastDone[s].Sub(p.segFirstDue[s]).Seconds()
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]latest.Object, pl.batch)
		run(feeds, pl.feedHz, func(_, seg int, due, prevDone time.Time) (time.Time, time.Time) {
			sent, done := feeds.timedFeed(st, in, buf, pl.batch, seg, due, prevDone)
			acked.Store(int64(in.next))
			return sent, done
		})
	}()
	go func() {
		defer wg.Done()
		run(queries, pl.queryHz, func(k, seg int, due, prevDone time.Time) (time.Time, time.Time) {
			sent, done := queries.timedQuery(st, in, qs[k], k, int(acked.Load()), seg, due, prevDone)
			if traced {
				queries.sampleActive(st)
			}
			return sent, done
		})
	}()
	wg.Wait()
	feeds.heap = append(feeds.heap, heapLive())
	queries.scoreDeferred(in)
	// With the feeder stopped the ring is quiescent: verify as many exact
	// counts as the closed loop would have along the way.
	for k := 0; k < len(qs) && k*checkEvery < queries.query.n(); k++ {
		q := qs[k*checkEvery%len(qs)]
		q.Timestamp = in.now()
		queries.checkExact(st, in, &q, 0, in.liveLo(q.Timestamp), in.next)
	}
	return feeds, queries
}
