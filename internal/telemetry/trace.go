package telemetry

import (
	"sync"
	"time"
)

// DefaultTraceDepth is the switch-decision ring capacity when the caller
// does not size it. The /statusz contract promises at least the last 32
// decisions; 64 leaves headroom for multi-shard deployments whose shards
// switch independently.
const DefaultTraceDepth = 64

// QErrorSample is one estimator's rolling q-error at a point in time:
// the symmetric multiplicative error max(est/actual, actual/est) folded
// into an exponential moving average whenever ground truth is observed.
type QErrorSample struct {
	// Estimator names the fleet member.
	Estimator string `json:"estimator"`
	// QError is the rolling q-error (1 is perfect; only meaningful when
	// Samples > 0).
	QError float64 `json:"qerror"`
	// Samples counts the ground-truth observations folded in.
	Samples uint64 `json:"samples"`
}

// Decision is the audit record of one estimator switch: what the adaptor
// saw, what the model said, and what it did. It is the answer to the
// operator's "why did the serving estimator change at 14:32?".
type Decision struct {
	// Shard is the spatial shard whose module switched (0 for one-shard
	// engines).
	Shard int `json:"shard"`
	// QueryIndex is the 0-based incremental-phase index of the trigger
	// query within its module.
	QueryIndex int `json:"query_index"`
	// Timestamp is the trigger query's virtual time.
	Timestamp int64 `json:"timestamp"`
	// WallTime is the wall-clock moment the switch was recorded,
	// nanoseconds since the Unix epoch.
	WallTime int64 `json:"wall_time"`
	// From and To name the displaced and adopted estimators.
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is the trigger: "tau-breach" (sliding accuracy fell below τ)
	// or "opportunity" (a strictly better estimator emerged while accuracy
	// was still fine).
	Reason string `json:"reason"`
	// Picker names what chose the adopted estimator: "prefill-beta" (the
	// candidate the β pre-fill had been warming), "tree" (the Hoeffding
	// tree's top class), "profile" (the profile argmax, when the tree's
	// pick was the active estimator or failed the accuracy gate) or
	// "opportunity". Images written before it existed carry none.
	Picker string `json:"picker,omitempty"`
	// AccuracyAvg is the sliding accuracy average at decision time.
	AccuracyAvg float64 `json:"accuracy_avg"`
	// QueryType classifies the trigger query (spatial/keyword/hybrid).
	QueryType string `json:"query_type"`
	// Prefilled reports whether the adopted estimator had been warming
	// (vs a cold emergency switch).
	Prefilled bool `json:"prefilled"`
	// PrefillMode is always "inline": candidates are warmed on the query
	// path. The field stays because decisions are stored as JSON inside
	// snapshot images, whose bytes must not move; an image written before
	// the background pre-fill worker was removed may say "async".
	PrefillMode string `json:"prefill_mode"`
	// Features is the feature vector fed to the Hoeffding tree for the
	// consultation on the trigger query (nil when the tree had nothing
	// measured yet).
	Features []float64 `json:"features,omitempty"`
	// Recommended is the model's top recommendation at decision time with
	// its class probability; RunnerUp carries the second class, exposing
	// how close the call was (tie info).
	Recommended  string  `json:"recommended"`
	Confidence   float64 `json:"confidence"`
	RunnerUp     string  `json:"runner_up,omitempty"`
	RunnerUpConf float64 `json:"runner_up_confidence,omitempty"`
	// QError is each estimator's rolling q-error at decision time — did
	// the recommendation actually win on the metric estimator papers judge
	// by?
	QError []QErrorSample `json:"qerror,omitempty"`
}

// DecisionTrace is a fixed-size ring buffer of switch decisions. Switches
// are rare (cooldown-gated, dozens per hour at most), so a small mutex —
// not a lock-free structure — is the honest implementation; Snapshot
// readers never block writers for more than a copy of the ring.
type DecisionTrace struct {
	mu    sync.Mutex
	ring  []Decision
	next  int
	total uint64
}

// NewDecisionTrace creates a trace keeping the last depth decisions
// (depth <= 0 takes DefaultTraceDepth).
func NewDecisionTrace(depth int) *DecisionTrace {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	return &DecisionTrace{ring: make([]Decision, 0, depth)}
}

// Record appends one decision, evicting the oldest when full. WallTime is
// stamped here if the caller left it zero.
func (t *DecisionTrace) Record(d Decision) {
	if d.WallTime == 0 {
		d.WallTime = time.Now().UnixNano()
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, d)
	} else {
		t.ring[t.next] = d
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Snapshot returns the retained decisions oldest-first.
func (t *DecisionTrace) Snapshot() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Decision, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Restore replaces the trace contents with ds (oldest-first, as returned
// by Snapshot) and the lifetime total — the persistence layer's restore
// path. When ds exceeds the ring capacity only the newest entries are kept.
func (t *DecisionTrace) Restore(ds []Decision, total uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := cap(t.ring)
	if len(ds) > depth {
		ds = ds[len(ds)-depth:]
	}
	t.ring = t.ring[:0]
	t.ring = append(t.ring, ds...)
	t.next = len(t.ring) % depth
	t.total = total
}

// Total returns the lifetime number of recorded decisions (including
// evicted ones).
func (t *DecisionTrace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Depth returns the ring capacity.
func (t *DecisionTrace) Depth() int { return cap(t.ring) }
