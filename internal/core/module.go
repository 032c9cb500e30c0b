package core

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// Module is a LATEST instance. It is single-goroutine like the estimators
// it drives; the stream driver owns it.
//
// Protocol: Insert for every stream object; for every query, Estimate
// followed by exactly one Observe carrying the true selectivity from the
// executed query (the system-log feedback). The strict pairing is asserted
// because the adaptor's bookkeeping is per-query.
type Module struct {
	cfg   Config
	names []string
	index map[string]int
	ests  []estimator.Estimator

	// sanitized[i] counts estimator i's answers that were NaN, ±Inf or
	// negative and were replaced by 0 before anything read them.
	sanitized []uint64

	// sampled[i] marks a sampler (estimator.Sampler) that warm-up does not
	// stream into: Refill fills it once when warm-up ends. Set only when
	// the module has a Refill.
	sampled []bool

	active     int
	prefill    int // -1 when no candidate is warming
	prefillAge int // adapt() calls since the candidate began warming

	// Pre-fills started and switches that adopted one, since the module
	// was built: images do not carry them, and a restore leaves them be.
	prefillsStarted int
	prefillsAdopted int

	brain     *brain // Hoeffding tree + features + profile (features.go)
	accWindow *metrics.SlidingAverage

	phase           Phase
	pretrainSeen    int
	incrementalSeen int
	cooldown        int

	switches []SwitchEvent
	pending  *pendingQuery // nil, or &pendBuf between an Estimate and its Observe
	pendBuf  pendingQuery  // reused for every query: the pairing is strict

	prefillThreshold float64

	// Observability: the switch-decision audit ring, the active
	// estimator's estimation-latency histogram, per-estimator rolling
	// q-error (EWMA over ground-truth observations) and the structured
	// logger for the switch path. All cold-path except estLat.Record,
	// which is a few atomic adds per query.
	trace  *telemetry.DecisionTrace
	estLat telemetry.Histogram
	qerr   []*metrics.EWMA
	qerrN  []uint64
	log    *slog.Logger

	// qtrace is the in-flight request trace the serving layer installed for
	// the current Estimate/Observe cycle (nil when untraced). The module is
	// single-goroutine, so a plain field under the owner's lock suffices.
	qtrace *telemetry.ActiveTrace

	// Opportunity-switch state: a sliding window of per-query score gaps
	// (best alternative minus active, for that query's type) and of which
	// alternative was best. Averaging over the window weighs the gap by
	// the live workload mix, so a 95%-spatial phase accumulates evidence
	// even with keyword queries interleaved.
	oppGap   *metrics.SlidingAverage
	oppBest  []int
	oppQt    []stream.QueryType
	oppN     int
	oppCount []int // scratch: wins per estimator over oppBest
}

// pendingQuery carries the measurements taken at Estimate time until the
// matching Observe supplies the ground truth.
type pendingQuery struct {
	q         stream.Query
	estimates []float64
	latencies []time.Duration
	measured  []bool
	answer    float64
}

// New builds a LATEST module. The returned module is in the warm-up phase:
// feed it objects, then start issuing queries.
func New(cfg Config) (*Module, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Module{
		cfg:       cfg,
		names:     append([]string(nil), cfg.Estimators...),
		index:     make(map[string]int, len(cfg.Estimators)),
		accWindow: metrics.NewSlidingAverage(cfg.AccWindow),
		oppGap:    metrics.NewSlidingAverage(max(cfg.AccWindow/2, 8)),
		oppBest:   make([]int, max(cfg.AccWindow/2, 8)),
		oppQt:     make([]stream.QueryType, max(cfg.AccWindow/2, 8)),
		prefill:   -1,
		phase:     PhaseWarmup,
		trace:     telemetry.NewDecisionTrace(telemetry.DefaultTraceDepth),
		log:       cmp.Or(cfg.Logger, telemetry.Discard),
	}
	for range cfg.Estimators {
		m.qerr = append(m.qerr, metrics.NewEWMA(profileAlpha))
	}
	m.qerrN = make([]uint64, len(cfg.Estimators))
	m.oppCount = make([]int, len(cfg.Estimators))
	// The paper's text places pre-filling at β·τ and switching at τ, but
	// with 0<β<1 a falling average crosses τ first; the mechanism is only
	// coherent with the pre-fill threshold above the switch threshold. We
	// keep τ as the switch threshold exactly as stated and anticipate
	// pre-filling at τ/β (β→1 ⇒ late pre-fill, low overhead, colder start;
	// β→0 ⇒ early pre-fill, more overhead, warmer start — the trade-off
	// §V-D describes).
	m.prefillThreshold = cfg.Tau / cfg.Beta
	if m.prefillThreshold > 0.999 {
		m.prefillThreshold = 0.999
	}
	p := estimator.Params{World: cfg.World, Span: cfg.Span, Scale: cfg.Scale, Seed: cfg.Seed}
	for i, name := range m.names {
		e, err := cfg.Registry.Build(name, p)
		if err != nil {
			return nil, err
		}
		m.ests = append(m.ests, e)
		m.index[name] = i
	}
	m.sanitized = make([]uint64, len(m.ests))
	m.sampled = make([]bool, len(m.ests))
	for i, e := range m.ests {
		_, isSampler := e.(estimator.Sampler)
		m.sampled[i] = isSampler && cfg.Refill != nil
	}
	m.pendBuf = pendingQuery{
		estimates: make([]float64, len(m.ests)),
		latencies: make([]time.Duration, len(m.ests)),
		measured:  make([]bool, len(m.ests)),
	}
	m.active = m.index[cfg.Default]
	m.brain = newBrain(m.names, cfg)
	return m, nil
}

// Phase returns the current lifecycle phase.
func (m *Module) Phase() Phase { return m.phase }

// ActiveName returns the currently employed estimator's name.
func (m *Module) ActiveName() string { return m.names[m.active] }

// PrefillingName returns the name of the estimator being pre-filled, or ""
// when none is warming.
func (m *Module) PrefillingName() string {
	if m.prefill < 0 {
		return ""
	}
	return m.names[m.prefill]
}

// Switches returns the switch history (incremental phase only).
func (m *Module) Switches() []SwitchEvent {
	return append([]SwitchEvent(nil), m.switches...)
}

// Config returns the configuration the module was built with, defaults
// resolved (Estimators is the fleet in order). The engines fingerprint it.
func (m *Module) Config() Config { return m.cfg }

// TrainingRecords returns how many records the Hoeffding tree has absorbed.
func (m *Module) TrainingRecords() int { return m.brain.tree.Instances() }

// Insert feeds a stream object. During warm-up and pre-training every
// estimator is filled, except that warm-up skips the samplers Refill will
// draw when it ends; afterwards only the active estimator (plus any
// pre-filling candidate) is maintained — the paper's single-active-summary
// invariant.
func (m *Module) Insert(o *stream.Object) {
	switch m.phase {
	case PhaseWarmup, PhasePretrain:
		for i, e := range m.ests {
			if m.phase == PhaseWarmup && m.sampled[i] {
				continue
			}
			e.Insert(o)
		}
	default:
		m.ests[m.active].Insert(o)
		if m.prefill >= 0 {
			m.ests[m.prefill].Insert(o)
		}
	}
}

// Estimate answers an RC-DVQ from the active estimator. During
// pre-training it additionally runs the query on every other estimator to
// harvest training measurements. Each Estimate must be followed by Observe
// before the next Estimate. An answer that is NaN, ±Inf or negative is
// replaced by 0 and counted. An estimator that panics leaves no pending
// query behind: the panic propagates to the caller, and the next Estimate
// starts afresh.
func (m *Module) Estimate(q *stream.Query) float64 {
	if m.pending != nil {
		panic("core: Estimate called before Observe of previous query")
	}
	if !q.Valid() {
		panic(fmt.Sprintf("core: invalid query %v", q))
	}
	if m.phase == PhaseWarmup {
		m.endWarmup()
	}
	p := &m.pendBuf
	p.q, p.answer = *q, 0
	clear(p.estimates)
	clear(p.latencies)
	clear(p.measured)
	measure := func(i int) {
		if f, ok := m.ests[i].(estimator.Fitter); ok && m.cfg.Refill != nil && f.FitDue() {
			m.cfg.Refill(m.ests[i]) // a due fit, outside the estimate's latency
		}
		start := time.Now()
		est := m.ests[i].Estimate(q)
		lat := time.Since(start)
		if !(est >= 0) || math.IsInf(est, 1) { // !(est >= 0) is true for NaN
			est = 0
			m.sanitized[i]++
		}
		if m.cfg.LatencyOf != nil {
			lat = m.cfg.LatencyOf(m.names[i], q, lat)
		}
		p.estimates[i] = est
		p.latencies[i] = lat
		p.measured[i] = true
		if i == m.active {
			m.estLat.Record(lat)
			m.qtrace.AddSpanDur("estimator", m.names[i], lat)
		}
	}
	if m.phase == PhasePretrain {
		for i := range m.ests {
			measure(i)
		}
	} else {
		measure(m.active)
		if m.prefill >= 0 {
			// The warming candidate is measured too: its feedback seeds the
			// profile so a recovery-discard or the eventual switch is an
			// informed decision, at the cost of one extra lookup.
			measure(m.prefill)
		}
	}
	p.answer = p.estimates[m.active]
	m.pending = p
	return p.answer
}

// Pending reports whether an Estimate is waiting for its Observe.
func (m *Module) Pending() bool { return m.pending != nil }

// Abandon drops a pending Estimate untrained: no truth will arrive for it.
// The next Estimate, or SaveState, then finds the module idle. A no-op when
// nothing is pending.
func (m *Module) Abandon() { m.pending = nil }

// Observe supplies the executed query's true selectivity (the system-log
// entry for the query Estimate just answered), closing the feedback loop:
// profile and normalizer updates, a Hoeffding training record per measured
// estimator, accuracy monitoring, and — in the incremental phase — the
// adaptor's pre-fill/switch decisions.
func (m *Module) Observe(actual float64) {
	p := m.pending
	if p == nil {
		panic("core: Observe without a pending Estimate")
	}
	m.pending = nil

	qt := p.q.Type()
	for i := range m.ests {
		if !p.measured[i] {
			continue
		}
		acc := metrics.Accuracy(p.estimates[i], actual)
		relErr := metrics.RelativeError(p.estimates[i], actual)
		qe := metrics.QError(p.estimates[i], actual)
		m.qerr[i].Update(qe)
		m.qerrN[i]++
		m.brain.observe(i, qt, acc, p.latencies[i])
		m.brain.learn(&p.q, i, acc, p.latencies[i], relErr)
		// Workload-driven estimators get the raw feedback as well.
		m.ests[i].Observe(&p.q, actual)
	}
	// The monitored accuracy is that of the served answer.
	m.accWindow.Add(metrics.Accuracy(p.answer, actual))

	switch m.phase {
	case PhasePretrain:
		m.pretrainSeen++
		if m.pretrainSeen >= m.cfg.PretrainQueries {
			m.concludePretraining()
		}
	case PhaseIncremental:
		m.incrementalSeen++
		m.adapt(&p.q)
	}
}

// endWarmup enters pre-training. The samplers warm-up did not stream into
// are filled from the window first, while the phase still reads warm-up,
// so Refill can tell this fill from a pre-fill.
func (m *Module) endWarmup() {
	for i, s := range m.sampled {
		if s {
			m.freshen(i)
		}
	}
	m.phase = PhasePretrain
}

// concludePretraining wipes every estimator except the default and enters
// the incremental phase (§V-C's overhead reduction).
func (m *Module) concludePretraining() {
	m.active = m.index[m.cfg.Default]
	for i, e := range m.ests {
		if i != m.active {
			e.Reset()
		}
	}
	m.phase = PhaseIncremental
	m.accWindow.Reset()
	m.cooldown = m.cfg.AccWindow / 2
	m.incrementalSeen = 0
}

// opportunityMargin is how far the best alternative's α-weighted profile
// score must exceed the active estimator's, averaged over half an accuracy
// window, before the opportunity trigger switches (the paper's Fig. 5/8
// switches: RSH's accuracy was fine, but H4096 offered the same accuracy
// at a fraction of the latency).
const opportunityMargin = 0.15

// adapt is the Estimator Adaptor (§V-D): monitors the sliding accuracy
// average against the pre-fill and switch thresholds, and additionally
// watches for a strictly dominating alternative (the opportunity trigger
// behind the paper's Fig. 5/8 switches, where the active estimator's
// accuracy never degraded but a faster equal-accuracy one existed).
func (m *Module) adapt(q *stream.Query) {
	if m.prefill >= 0 {
		m.prefillAge++
		if m.prefillAge > 2*m.cfg.AccWindow {
			// The candidate has been warming for two full monitoring
			// windows without a switch materializing: the degradation that
			// motivated it has stalled. Stop paying double maintenance.
			m.log.Debug("prefill discarded", "candidate", m.names[m.prefill],
				"reason", "stalled", "age", m.prefillAge)
			m.ests[m.prefill].Reset()
			m.prefill = -1
		}
	}
	// The window empties only where the cool-down starts, at half its
	// length, and every Observe adds to it first: when the cool-down ends
	// the window is at least half full, so one bad query right after a
	// switch cannot trigger flapping.
	if m.cooldown > 0 {
		m.cooldown--
		return
	}
	mean := m.accWindow.Mean()

	if mean < m.cfg.Tau {
		m.performSwitch(q)
		return
	}
	if m.opportunity(q) {
		return
	}
	if m.prefill < 0 && mean < m.prefillThreshold {
		// Warm only a candidate the switch would take: one it would refuse
		// is a second summary fed, measured and discarded for nothing.
		if rec, _ := m.brain.recommend(q, m.active); rec >= 0 && rec != m.active && m.admits(rec, q) {
			m.startPrefill(rec)
		}
		return
	}
	if m.prefill >= 0 && mean >= m.prefillThreshold {
		// Accuracy recovered: discard the warming candidate (§V-D).
		m.log.Debug("prefill discarded", "candidate", m.names[m.prefill],
			"reason", "recovered", "accuracy", mean)
		m.ests[m.prefill].Reset()
		m.prefill = -1
	}
}

// opportunity maintains a sliding window of per-query score gaps between
// the best alternative and the active estimator. A window mean above the
// margin switches to the alternative that was best most often, adopting
// the β candidate when that is the one warming. Returns true when it
// switched.
func (m *Module) opportunity(q *stream.Query) bool {
	qt := q.Type()
	best := m.brain.bestOpportunity(qt, m.active)
	scores, ok := m.brain.scores(qt)
	if !ok[m.active] {
		return false
	}
	gap := 0.0
	if best >= 0 {
		gap = scores[best] - scores[m.active]
	}
	m.oppGap.Add(gap)
	m.oppBest[m.oppN%len(m.oppBest)] = best
	m.oppQt[m.oppN%len(m.oppQt)] = qt
	m.oppN++
	if !m.oppGap.Full() {
		return false
	}
	if m.oppGap.Mean() <= opportunityMargin {
		return false
	}
	// Target: the alternative that won most of the recent window, the
	// first in fleet order on a tie, so a seeded run repeats.
	clear(m.oppCount)
	for _, b := range m.oppBest {
		if b >= 0 {
			m.oppCount[b]++
		}
	}
	target, targetN := -1, 0
	for est, n := range m.oppCount {
		if n > targetN {
			target, targetN = est, n
		}
	}
	if target < 0 || target == m.active {
		return false
	}
	// The target will serve the *whole* mix, not just the type it wins on:
	// it must clear the accuracy gate for every query type that forms a
	// material share of the recent window. Without this, a 50/50
	// spatial-hybrid workload would flap into the histogram on the
	// strength of its spatial half alone.
	if !m.passesPrevalentGates(target) {
		return false
	}
	prefilled := m.prefill == target
	if !prefilled {
		if m.prefill >= 0 {
			m.ests[m.prefill].Reset()
			m.prefill = -1
		}
		m.freshen(target)
	}
	m.switchTo(target, q, prefilled, "opportunity", "opportunity")
	return true
}

// startPrefill begins warming the β candidate.
func (m *Module) startPrefill(est int) {
	m.log.Debug("prefill start", "candidate", m.names[est], "active", m.names[m.active],
		"accuracy", m.accWindow.Mean())
	m.freshen(est)
	m.prefill = est
	m.prefillAge = 0
	m.prefillsStarted++
}

// passesPrevalentGates reports whether an estimator clears the accuracy
// gate for every query type forming at least a quarter of the recent
// opportunity window.
func (m *Module) passesPrevalentGates(est int) bool {
	if m.oppN < len(m.oppQt) {
		return true // window not yet representative
	}
	var qtShare [numQueryTypes]int
	for _, t := range m.oppQt {
		qtShare[t]++
	}
	for t := 0; t < numQueryTypes; t++ {
		if qtShare[t]*4 >= len(m.oppQt) && !m.brain.passesGate(est, stream.QueryType(t)) {
			return false
		}
	}
	return true
}

// freshen wipes an estimator and seeds it from the live window store.
func (m *Module) freshen(i int) {
	m.ests[i].Reset()
	if m.cfg.Refill != nil {
		m.cfg.Refill(m.ests[i])
	}
}

// performSwitch activates the pre-filled candidate, or consults the model
// for a cold switch when accuracy collapsed before any pre-fill began. The
// switch is score-gated: moving to an estimator the profile scores *worse*
// than the active one would be pure churn (this is also what keeps an
// α=1 run parked on the fastest estimator instead of fleeing its poor
// accuracy — the paper's Fig. 7 behaviour).
func (m *Module) performSwitch(q *stream.Query) {
	target, picker := m.prefill, "prefill-beta"
	prefilled := target >= 0
	if target < 0 {
		target, picker = m.brain.recommend(q, m.active)
		if target < 0 || target == m.active {
			return // no credible alternative; stay put
		}
	}
	if !m.passesPrevalentGates(target) {
		// The target wins on this query's type but would violate τ on
		// another prevalent type: hold position, candidate still warming.
		m.cooldown = m.cfg.AccWindow / 4
		return
	}
	if !m.admits(target, q) {
		// The alternative is no better under the configured α; discard any
		// warming candidate and hold position until the profile changes.
		if m.prefill >= 0 {
			m.ests[m.prefill].Reset()
			m.prefill = -1
		}
		m.cooldown = m.cfg.AccWindow / 4
		return
	}
	if !prefilled {
		m.freshen(target)
	}
	m.switchTo(target, q, prefilled, "tau-breach", picker)
}

// admits is the switch's admission rule, which adapt also applies before
// it warms a candidate. The target must clear the accuracy gate for every
// prevalent query type ("gate") and must score above the active estimator
// for q's type ("score") — except when the active estimator violates the
// gate for that type while the target clears it. In that case the τ
// breach is an SLA violation and the target wins regardless of score ties:
// at α=0.5 a useless-but-instant estimator scores the same 0.5 as an
// accurate-but-slow one (all-latency vs all-accuracy), and without the
// bypass the module could sit on zero accuracy forever. When the target is
// just as gate-failing as the active (near-tied samplers during a hard
// stretch), the score gate still holds position — swapping equals is pure
// churn.
func (m *Module) admits(target int, q *stream.Query) bool {
	qt := q.Type()
	check := ""
	if !m.passesPrevalentGates(target) {
		check = "gate"
	} else if m.brain.passesGate(m.active, qt) || !m.brain.passesGate(target, qt) {
		s, ok := m.brain.scores(qt)
		if ok[target] && ok[m.active] && s[target] <= s[m.active] {
			check = "score"
		}
	}
	if check == "" {
		return true
	}
	if m.log.Enabled(context.Background(), slog.LevelDebug) {
		m.log.Debug("candidate refused", "candidate", m.names[target],
			"active", m.names[m.active], "check", check)
	}
	return false
}

// switchTo performs the actual estimator swap and bookkeeping. The target
// must already be filled (pre-filled or freshened by the caller). For the
// audit trace, reason names the trigger ("tau-breach" or "opportunity")
// and picker what chose the target ("prefill-beta", "tree", "profile" or
// "opportunity").
func (m *Module) switchTo(target int, q *stream.Query, prefilled bool, reason, picker string) {
	ev := SwitchEvent{
		QueryIndex: m.incrementalSeen - 1,
		Timestamp:  q.Timestamp,
		From:       m.names[m.active],
		To:         m.names[target],
		Prefilled:  prefilled,
	}
	m.traceDecision(ev, q, reason, picker)
	// The displaced estimator is wiped: only one summary (plus at most one
	// warming candidate) is ever maintained.
	m.ests[m.active].Reset()
	m.active = target
	m.prefill = -1
	if prefilled {
		m.prefillsAdopted++
	}
	m.oppGap.Reset()
	m.oppN = 0
	for i := range m.oppBest {
		m.oppBest[i] = -1
	}
	m.accWindow.Reset()
	m.cooldown = m.cfg.AccWindow / 2
	m.switches = append(m.switches, ev)
	if m.cfg.OnSwitch != nil {
		m.cfg.OnSwitch(ev)
	}
}

// traceDecision records the audit-trail entry for a switch: what the
// sliding average looked like, what the Hoeffding tree would have said for
// the trigger query (features, top class and the runner-up's probability —
// the tie info), and every estimator's rolling q-error at that moment.
// Runs only on the switch path, so the allocations are irrelevant.
func (m *Module) traceDecision(ev SwitchEvent, q *stream.Query, reason, picker string) {
	d := telemetry.Decision{
		QueryIndex:  ev.QueryIndex,
		Timestamp:   ev.Timestamp,
		From:        ev.From,
		To:          ev.To,
		Reason:      reason,
		Picker:      picker,
		AccuracyAvg: m.accWindow.Mean(),
		QueryType:   q.Type().String(),
		Prefilled:   ev.Prefilled,
		PrefillMode: "inline",
		QError:      m.qerrSamples(),
	}
	if x, best, bestP, second, secondP := m.brain.consult(q, m.active); best >= 0 {
		d.Features = x
		d.Recommended = m.names[best]
		d.Confidence = bestP
		if second >= 0 {
			d.RunnerUp = m.names[second]
			d.RunnerUpConf = secondP
		}
	}
	m.trace.Record(d)
	m.log.Info("estimator switch",
		"from", ev.From, "to", ev.To, "reason", reason, "picker", picker,
		"query", ev.QueryIndex, "accuracy", d.AccuracyAvg,
		"prefilled", ev.Prefilled, "recommended", d.Recommended,
		"confidence", d.Confidence)
}

// SetTrace installs (or, with nil, clears) the request trace for the next
// Estimate/Observe cycle. Like every other module method it must be called
// by the module's owning goroutine; the serving layer sets it under the
// same lock that serializes the query itself.
func (m *Module) SetTrace(tr *telemetry.ActiveTrace) { m.qtrace = tr }

// qerrSamples snapshots every estimator's rolling q-error.
func (m *Module) qerrSamples() []telemetry.QErrorSample {
	out := make([]telemetry.QErrorSample, len(m.names))
	for i, name := range m.names {
		out[i] = telemetry.QErrorSample{
			Estimator: name,
			QError:    m.qerr[i].Value(),
			Samples:   m.qerrN[i],
		}
	}
	return out
}

// Stats is a snapshot of the module's internals for logging and tests.
type Stats struct {
	Phase           Phase
	Active          string
	Prefilling      string
	PretrainSeen    int
	IncrementalSeen int
	Switches        int
	// PrefillsStarted counts candidates a β pre-fill began warming;
	// PrefillsAdopted the switches that took a warmed candidate.
	// Both count since the module was built; a restore leaves them be.
	PrefillsStarted int
	PrefillsAdopted int
	TrainingRecords int
	TreeNodes       int
	TreeSplits      int
	// AccuracyAvg is the mean of the adaptor's served-accuracy window and
	// AccuracySamples its live length. The window empties when
	// pre-training ends and on every switch; while it is empty there is
	// no reading, and AccuracyAvg is 0.
	AccuracyAvg     float64
	AccuracySamples int
	MemoryBytes     int
	// EstimateLatency is the distribution of the active estimator's
	// approximate-answer latencies (every query, not sampled).
	EstimateLatency telemetry.HistSnapshot
	// QError is each estimator's rolling q-error over ground-truth
	// observations, in fleet order.
	QError []telemetry.QErrorSample
	// Decisions is the retained switch-decision audit trail, oldest-first.
	Decisions []telemetry.Decision
	// Sanitized counts, per estimator name, the answers that were NaN,
	// ±Inf or negative and were served and scored as 0 instead.
	Sanitized map[string]uint64
}

// Snapshot returns current Stats.
func (m *Module) Snapshot() Stats {
	mem := 0
	for i := range m.ests {
		if m.phase != PhaseIncremental || i == m.active || i == m.prefill {
			mem += m.ests[i].MemoryBytes()
		}
	}
	sanitized := make(map[string]uint64, len(m.names))
	for i, name := range m.names {
		sanitized[name] = m.sanitized[i]
	}
	return Stats{
		Phase:           m.phase,
		Active:          m.ActiveName(),
		Prefilling:      m.PrefillingName(),
		PretrainSeen:    m.pretrainSeen,
		IncrementalSeen: m.incrementalSeen,
		Switches:        len(m.switches),
		PrefillsStarted: m.prefillsStarted,
		PrefillsAdopted: m.prefillsAdopted,
		TrainingRecords: m.brain.tree.Instances(),
		TreeNodes:       m.brain.tree.NodeCount(),
		TreeSplits:      m.brain.tree.Splits(),
		AccuracyAvg:     m.accWindow.Mean(),
		AccuracySamples: m.accWindow.Len(),
		MemoryBytes:     mem,
		EstimateLatency: m.estLat.Snapshot(),
		QError:          m.qerrSamples(),
		Decisions:       m.trace.Snapshot(),
		Sanitized:       sanitized,
	}
}

// RecommendFor exposes the model's current recommendation for a query
// without changing any state: the tree's top class when the profile-best
// estimator consults it, or the active estimator while the tree has no
// evidence for queries like q.
func (m *Module) RecommendFor(q *stream.Query) string {
	rec := m.brain.recommendAny(q)
	if rec < 0 {
		return m.ActiveName()
	}
	return m.names[rec]
}
