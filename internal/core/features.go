package core

import (
	"math"
	"time"

	"github.com/spatiotext/latest/internal/hoeffding"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
)

// brain bundles the Hoeffding tree, its feature encoding, the min-max
// normalizers of §V-C and the per-(estimator, query-type) performance
// profile that turns raw system-log feedback into training labels.
//
// The paper lists the training features as (data structure, query type,
// accuracy, latency, error rate); each measured (query, estimator) pair
// becomes one record carrying those features plus the query's geometry.
// The record's *label* is the estimator whose α-weighted profile score is
// currently best for that query type — i.e. the tree distills "which
// structure wins under these conditions" from the log evidence, and
// consulting it answers "given what I am running and seeing now, what
// should I run instead".
type brain struct {
	tree  *hoeffding.Tree
	names []string
	alpha float64
	// accGate disqualifies switch candidates whose profile accuracy is
	// already below the switching threshold — adopting one would trigger
	// an immediate τ-switch away again. The gate relaxes with α: in a
	// latency-dominant configuration (α→1) the paper itself adopts
	// low-accuracy fast estimators (Table II picks FFN at α=1), so the
	// gate goes to zero there: gate = τ·min(1, 2(1−α)).
	accGate float64

	// masked is shared with the owning module's quarantine bookkeeping:
	// masked[i] means estimator i is quarantined by its circuit breaker and
	// must appear in no switch recommendation and no training label until
	// it is re-admitted.
	masked []bool

	accNorm metrics.MinMax
	latNorm metrics.MinMax

	// profile[est][qtype] tracks EWMA accuracy and latency (µs).
	profAcc [][]*metrics.EWMA
	profLat [][]*metrics.EWMA

	// Scratch for scores, one entry per estimator.
	scoreBuf  []float64
	okBuf     []bool
	logLatBuf []float64

	// Model self-monitoring (§V-D's manual retraining trigger): the tree's
	// prequential accuracy against the labels it is about to learn, and the
	// recent labels themselves. The tree is rebuilt only when it scores
	// materially worse than the trivial predict-the-window-majority
	// baseline — that means its learned structure actively contradicts the
	// current workload (true drift). Scoring merely low because labels are
	// churning between near-tied estimators, or because a workload phase
	// shifted the majority, is NOT a rebuild trigger: the incremental
	// learner absorbs those on its own.
	selfAcc    *metrics.SlidingAverage
	labels     []int8
	labelN     int
	retrains   int
	minRecords int // records required before a retrain may trigger
}

// retrainSlack is how far below the windowed-majority baseline the tree's
// prequential accuracy must fall before a rebuild.
const retrainSlack = 0.25

// profileAlpha is the EWMA smoothing for profile cells: recent queries
// dominate within a few dozen observations, matching the "recent window"
// framing of §V-D.
const profileAlpha = 0.08

// numQueryTypes mirrors stream's three RC-DVQ classes.
const numQueryTypes = 3

func newBrain(names []string, cfg Config) *brain {
	attrs := []hoeffding.Attribute{
		{Name: "qtype", Kind: hoeffding.Nominal, NumValues: numQueryTypes},
		{Name: "estimator", Kind: hoeffding.Nominal, NumValues: len(names)},
		{Name: "accuracy", Kind: hoeffding.Numeric},
		{Name: "latency", Kind: hoeffding.Numeric},
		{Name: "error", Kind: hoeffding.Numeric},
		{Name: "rangeFrac", Kind: hoeffding.Numeric},
		{Name: "kwCount", Kind: hoeffding.Numeric},
	}
	b := &brain{
		tree:       hoeffding.New(attrs, names, cfg.Hoeffding),
		names:      names,
		alpha:      cfg.Alpha,
		accGate:    cfg.Tau * clampUnit(2*(1-cfg.Alpha)),
		selfAcc:    metrics.NewSlidingAverage(maxInt(cfg.AccWindow, 8)),
		labels:     make([]int8, maxInt(cfg.AccWindow, 8)),
		minRecords: cfg.AccWindow * len(names),
		scoreBuf:   make([]float64, len(names)),
		okBuf:      make([]bool, len(names)),
		logLatBuf:  make([]float64, len(names)),
	}
	for range names {
		accRow := make([]*metrics.EWMA, numQueryTypes)
		latRow := make([]*metrics.EWMA, numQueryTypes)
		for t := 0; t < numQueryTypes; t++ {
			accRow[t] = metrics.NewEWMA(profileAlpha)
			latRow[t] = metrics.NewEWMA(profileAlpha)
		}
		b.profAcc = append(b.profAcc, accRow)
		b.profLat = append(b.profLat, latRow)
	}
	return b
}

// excluded reports whether an estimator is quarantine-masked.
func (b *brain) excluded(est int) bool {
	return b.masked != nil && est >= 0 && est < len(b.masked) && b.masked[est]
}

// observe folds one measurement into the normalizers and profile.
func (b *brain) observe(est int, qt stream.QueryType, acc float64, lat time.Duration) {
	us := float64(lat.Microseconds())
	b.accNorm.Observe(acc)
	b.latNorm.Observe(us)
	b.profAcc[est][qt].Update(acc)
	b.profLat[est][qt].Update(us)
}

// Spread floors for fleet-relative score normalization. Without them,
// min-max would blow a 0.01 accuracy difference between near-perfect
// estimators up to a full-scale gap and trigger churn.
const (
	// accSpreadFloor: accuracy differences below a quarter of the scale
	// are normalized against the floor rather than themselves.
	accSpreadFloor = 0.25
	// latSpreadFloor: one decade of log-latency. This substrate's
	// estimator latencies span three orders of magnitude (sub-µs histogram
	// lookups to near-ms reservoir scans) where the paper's plain min-max
	// (its fleet stayed within one order) would compress every meaningful
	// gap to noise; log-scale min-max with a decade floor keeps gaps
	// proportionate at both scales.
	latSpreadFloor = 2.302585 // ln(10)
)

// scores computes the α-weighted goodness of every estimator for a query
// type (§V-C): α=0 weighs only accuracy, α=1 only (inverted) latency.
// Both features are normalized across the fleet for this query type —
// accuracy linearly, latency on a log scale — against spreads floored by
// the constants above. ok[i] reports whether estimator i has been measured
// for qt at all. Both slices are the brain's scratch, overwritten by the
// next call: a caller that keeps a result across one must copy it.
func (b *brain) scores(qt stream.QueryType) (score []float64, ok []bool) {
	n := len(b.names)
	score, ok, logLat := b.scoreBuf, b.okBuf, b.logLatBuf
	clear(score)
	clear(ok)
	accLo, accHi := math.Inf(1), math.Inf(-1)
	latLo, latHi := math.Inf(1), math.Inf(-1)
	any := false
	for est := 0; est < n; est++ {
		if !b.profAcc[est][qt].Seen() {
			continue
		}
		ok[est] = true
		any = true
		a := b.profAcc[est][qt].Value()
		l := math.Log1p(b.profLat[est][qt].Value())
		logLat[est] = l
		accLo, accHi = math.Min(accLo, a), math.Max(accHi, a)
		latLo, latHi = math.Min(latLo, l), math.Max(latHi, l)
	}
	if !any {
		return score, ok
	}
	accMid, accSpread := (accLo+accHi)/2, math.Max(accHi-accLo, accSpreadFloor)
	latMid, latSpread := (latLo+latHi)/2, math.Max(latHi-latLo, latSpreadFloor)
	for est := 0; est < n; est++ {
		if !ok[est] {
			continue
		}
		accN := clampUnit(0.5 + (b.profAcc[est][qt].Value()-accMid)/accSpread)
		latN := clampUnit(0.5 + (logLat[est]-latMid)/latSpread)
		score[est] = (1-b.alpha)*accN + b.alpha*(1-latN)
	}
	return score, ok
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// score returns one estimator's α-weighted profile score for qt.
func (b *brain) score(est int, qt stream.QueryType) (float64, bool) {
	s, ok := b.scores(qt)
	return s[est], ok[est]
}

// bestByProfile returns the profile-argmax estimator for a query type,
// or -1 when nothing has been measured yet.
func (b *brain) bestByProfile(qt stream.QueryType) int {
	return b.bestByProfileExcluding(qt, -1)
}

// passesGate reports whether an estimator's profile accuracy for qt clears
// the α-scaled accuracy gate.
func (b *brain) passesGate(est int, qt stream.QueryType) bool {
	return b.profAcc[est][qt].Value() >= b.accGate
}

// bestOpportunity picks the proactive-switch candidate for qt: the highest
// α-weighted score among estimators that clear the accuracy gate AND are
// not materially less accurate than the active one. The tolerance widens
// with α — a latency-dominant configuration is allowed to trade accuracy
// away (§VI-C), an accuracy-dominant one is not. Returns -1 when no
// candidate qualifies.
func (b *brain) bestOpportunity(qt stream.QueryType, active int) int {
	s, ok := b.scores(qt)
	if !ok[active] {
		return -1
	}
	tol := 0.05 * (1 + 3*b.alpha)
	floor := b.profAcc[active][qt].Value() - tol
	best := -1
	for est := range b.names {
		if est == active || b.excluded(est) || !ok[est] || !b.passesGate(est, qt) {
			continue
		}
		if b.profAcc[est][qt].Value() < floor {
			continue
		}
		if best < 0 || s[est] > s[best] {
			best = est
		}
	}
	return best
}

// features encodes one measurement into a tree instance.
func (b *brain) features(q *stream.Query, est int, acc float64, lat time.Duration, relErr float64) []float64 {
	rangeFrac := 0.0
	if q.HasRange {
		rangeFrac = q.Range.Area()
	}
	if relErr > 5 {
		relErr = 5
	}
	return []float64{
		float64(q.Type()),
		float64(est),
		b.accNorm.Normalize(acc),
		b.latNorm.Normalize(float64(lat.Microseconds())),
		relErr,
		rangeFrac,
		float64(len(q.Keywords)) / 5,
	}
}

// learn feeds one training record: the measured features labelled with the
// currently best-scoring estimator for this query type. Before learning,
// the tree is scored prequentially against the label; sustained
// disagreement means the workload has drifted past what the tree encodes,
// and it is rebuilt from scratch (§V-D's manual retraining — cheap for a
// VFDT, which relearns in one pass over the ongoing stream).
func (b *brain) learn(q *stream.Query, est int, acc float64, lat time.Duration, relErr float64) {
	label := b.bestByProfile(q.Type())
	if label < 0 {
		return // nothing measured yet; no label to assign
	}
	x := b.features(q, est, acc, lat, relErr)
	if b.tree.Predict(x) == label {
		b.selfAcc.Add(1)
	} else {
		b.selfAcc.Add(0)
	}
	b.labels[b.labelN%len(b.labels)] = int8(label)
	b.labelN++
	if b.tree.Instances() > b.minRecords && b.selfAcc.Full() &&
		b.selfAcc.Mean()+retrainSlack < b.majorityShare() {
		b.tree.Reset()
		b.selfAcc.Reset()
		b.retrains++
	}
	b.tree.Learn(x, label)
}

// majorityShare is the best achievable prequential accuracy of a constant
// predictor over the recent label window.
func (b *brain) majorityShare() float64 {
	var counts [32]int
	best := 0
	for _, l := range b.labels {
		counts[l]++
		if counts[l] > best {
			best = counts[l]
		}
	}
	return float64(best) / float64(len(b.labels))
}

// Retrains reports how many times the model was rebuilt due to drift.
func (b *brain) Retrains() int { return b.retrains }

// recommend consults the tree for the estimator to use instead of the
// active one for queries like q. The consultation instance carries the
// active estimator's *current profile* performance — "this is what I am
// running and how it is doing". When the tree's answer is the active
// estimator itself (it usually is right after good periods), the
// second-most-probable class wins; the profile argmax is the final
// fallback.
func (b *brain) recommend(q *stream.Query, active int) int {
	qt := q.Type()
	_, best, bestP, second, secondP := b.consult(q, active)
	usable := func(est int, p float64) bool {
		return est >= 0 && est != active && !b.excluded(est) && p > 0 && b.passesGate(est, qt)
	}
	if usable(best, bestP) {
		return best
	}
	if usable(second, secondP) {
		return second
	}
	return b.bestByProfileExcluding(qt, active)
}

// consult is the tree's half of recommend, also read by the decision audit
// trail: it returns the consultation feature vector and the tree's top two
// classes with their probabilities (the margin between them is the tie
// info an operator reads to judge how close the call was). best is -1 when
// the active estimator has no profile yet.
func (b *brain) consult(q *stream.Query, active int) (x []float64, best int, bestP float64, second int, secondP float64) {
	qt := q.Type()
	acc := b.profAcc[active][qt]
	if !acc.Seen() {
		return nil, -1, 0, -1, 0
	}
	x = b.features(q, active, acc.Value(),
		time.Duration(b.profLat[active][qt].Value())*time.Microsecond,
		1-acc.Value())
	proba := b.tree.PredictProba(x)
	best, second = -1, -1
	for i, p := range proba {
		switch {
		case best < 0 || p > proba[best]:
			second = best
			best = i
		case second < 0 || p > proba[second]:
			second = i
		}
	}
	if best >= 0 {
		bestP = proba[best]
	}
	if second >= 0 {
		secondP = proba[second]
	}
	return x, best, bestP, second, secondP
}

// recommendAny is recommend without excluding the active estimator — the
// model's unconstrained choice for a query (Table II's read-out).
func (b *brain) recommendAny(q *stream.Query) int {
	qt := q.Type()
	best := b.bestByProfile(qt)
	if best < 0 {
		return -1
	}
	acc := b.profAcc[best][qt]
	lat := b.profLat[best][qt]
	x := b.features(q, best, acc.Value(),
		time.Duration(lat.Value())*time.Microsecond,
		1-acc.Value())
	proba := b.tree.PredictProba(x)
	treeBest, bestP := -1, 0.0
	for i, p := range proba {
		if p > bestP {
			treeBest, bestP = i, p
		}
	}
	if treeBest >= 0 && bestP > 0 && !b.excluded(treeBest) {
		return treeBest
	}
	return best
}

// bestByProfileExcluding is bestByProfile skipping one estimator. Gate-
// failing candidates are considered only if nothing clears the gate.
func (b *brain) bestByProfileExcluding(qt stream.QueryType, skip int) int {
	s, ok := b.scores(qt)
	best, bestUngated := -1, -1
	for est := range b.names {
		if est == skip || b.excluded(est) || !ok[est] {
			continue
		}
		if bestUngated < 0 || s[est] > s[bestUngated] {
			bestUngated = est
		}
		if !b.passesGate(est, qt) {
			continue
		}
		if best < 0 || s[est] > s[best] {
			best = est
		}
	}
	if best >= 0 {
		return best
	}
	return bestUngated
}
