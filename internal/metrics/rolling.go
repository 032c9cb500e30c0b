package metrics

import (
	"sync/atomic"
	"time"
)

// rollingBuckets is the ring size of a RollingCounter: one bucket per
// wall-clock second, power of two so bucket selection is a mask. It must
// exceed rollingWindow by enough slack that a slow reader never races the
// writer recycling the bucket it is summing.
const (
	rollingBuckets = 16
	// RollingWindowSeconds is the span a RollingCounter's rate averages
	// over: the trailing completed seconds before the read instant.
	RollingWindowSeconds = 10
)

// RollingCounter is a lock-free rolling-window event counter: a fixed ring
// of per-second buckets, each stamped with the epoch second it covers.
// Writers touch exactly one bucket per Add (a stamp check plus an atomic
// add); the trailing rate is merged from the ring only at read time, so
// the hot path never contends with scrapes.
//
// The stamp check-then-reset is not atomic across racing writers on the
// same fresh second — a handful of events can be dropped at a bucket
// boundary under multi-writer use. The sharded engine records into each
// shard's counter under the shard lock, which serializes its writers, so
// the race cannot occur there; either way this is monitoring, not
// accounting.
type RollingCounter struct {
	slots [rollingBuckets]rollingSlot
}

type rollingSlot struct {
	sec   atomic.Int64
	count atomic.Uint64
}

// Add records n events at time t.
func (r *RollingCounter) Add(t time.Time, n int) {
	sec := t.Unix()
	s := &r.slots[int(sec&(rollingBuckets-1))]
	if s.sec.Load() != sec {
		// Recycle the bucket for the new second it now covers.
		s.sec.Store(sec)
		s.count.Store(0)
	}
	s.count.Add(uint64(n))
}

// RateAt returns the mean events/second over the RollingWindowSeconds
// completed seconds before t. The current (partial) second is excluded so
// the rate never dips just because the second it is read in has barely
// started.
func (r *RollingCounter) RateAt(t time.Time) float64 {
	now := t.Unix()
	var total uint64
	for i := range r.slots {
		s := &r.slots[i]
		if sec := s.sec.Load(); sec >= now-RollingWindowSeconds && sec < now {
			total += s.count.Load()
		}
	}
	return float64(total) / RollingWindowSeconds
}
