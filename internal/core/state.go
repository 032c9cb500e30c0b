package core

import (
	"encoding/json"

	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// State codec for the module: lifecycle counters, the adaptor's sliding
// statistics, the brain (profile + normalizers + Hoeffding tree) and every
// live estimator's summary. Together with the restored window this is
// everything the switching machinery needs to continue bit-exactly.
//
// Deliberately NOT serialized — documented behaviour, not an oversight:
// estLat, the estimate-latency histogram, and the per-estimator sanitised
// counts. Wall-clock latencies of the dead process are meaningless to the
// new one, and the counts describe the process, not the data. Both start
// from zero on restore.
//
// Three words after the lifecycle counters once held fallback-answer
// counters. They keep their slots, written as 0 and discarded on load, so
// every image taken before the counters went still restores and new
// images keep the same layout.

// SaveState serializes the module. It must be called between queries — a
// pending Estimate whose Observe has not arrived cannot be captured because
// the paired ground truth lives in the DBMS's in-flight query, and returns
// CodeState.
func (m *Module) SaveState(e *persist.Enc) error {
	const op = "module"
	if m.pending != nil {
		return persist.Errf(persist.CodeState, op, "Estimate pending without Observe")
	}
	e.Strs(m.names)
	e.U8(uint8(m.phase))
	e.Int(m.active)
	e.Int(m.prefill)
	e.Int(m.prefillAge)
	e.Int(m.pretrainSeen)
	e.Int(m.incrementalSeen)
	e.Int(m.cooldown)
	for range 3 { // the retired fallback counters
		e.U64(0)
	}
	m.accWindow.SaveState(e)
	m.oppGap.SaveState(e)
	e.Int(len(m.oppBest))
	for _, b := range m.oppBest {
		e.Int(b)
	}
	for _, t := range m.oppQt {
		e.U8(uint8(t))
	}
	e.Int(m.oppN)
	for i := range m.names {
		m.qerr[i].SaveState(e)
		e.U64(m.qerrN[i])
	}
	// The switch history and decision ring hold operator-facing records with
	// string and slice fields; JSON inside a CRC-guarded binary section is
	// simpler than a hand codec and round-trips float64 exactly.
	switches, err := json.Marshal(m.switches)
	if err != nil {
		return persist.Errf(persist.CodeMalformed, op, "encode switches: %v", err)
	}
	e.Blob(switches)
	decisions, err := json.Marshal(m.trace.Snapshot())
	if err != nil {
		return persist.Errf(persist.CodeMalformed, op, "encode decisions: %v", err)
	}
	e.Blob(decisions)
	e.U64(m.trace.Total())
	m.brain.saveState(e)
	m.saveEstimators(e)
	return nil
}

// Per-estimator restore directives written by saveEstimators.
const (
	estSkip      = 0 // stays freshly constructed
	estFloatBlob = 1 // exact state follows as a blob whose points are float64s (images before lattice points)
	estFreshen   = 2 // rebuild by replaying the restored window
	estBlob      = 3 // exact state follows as a length-prefixed blob
)

// saveEstimators writes each fleet member's summary. Every Stateful
// estimator serializes exactly — even ones that are idle in the
// incremental phase. An idle summary looks dead (the next switch to it
// runs Reset + window refill anyway), but its RNG stream position survives
// Reset by design, and a refill drawing from a rewound stream would select
// a different sample than the uninterrupted process: recovery must
// reproduce the original's future, not merely its present. Stateless
// (third-party) estimators can't serialize; live ones are marked for a
// window replay on load and idle ones stay empty.
func (m *Module) saveEstimators(e *persist.Enc) {
	for i, est := range m.ests {
		live := m.phase != PhaseIncremental || i == m.active || i == m.prefill
		s, stateful := est.(estimator.Stateful)
		switch {
		case stateful:
			e.U8(estBlob)
			var sub persist.Enc
			s.SaveState(&sub)
			e.Blob(sub.Data())
		case live:
			e.U8(estFreshen)
		default:
			e.U8(estSkip)
		}
	}
}

// LoadState restores a module saved with the same configuration. The
// receiver must be freshly constructed (CodeState otherwise) and the
// module's window store must already be restored: estimators whose summary
// did not serialize (third-party registry entries) are rebuilt by replaying
// the window through cfg.Refill. On error the receiver must be discarded.
func (m *Module) LoadState(d *persist.Dec) error {
	const op = "module"
	if m.phase != PhaseWarmup || m.pretrainSeen != 0 || m.brain.tree.Instances() != 0 {
		return persist.Errf(persist.CodeState, op, "receiver is not freshly constructed")
	}
	names := d.Strs()
	if d.Err() != nil {
		return d.Err()
	}
	if len(names) != len(m.names) {
		return persist.Errf(persist.CodeMismatch, op, "fleet %v, receiver has %v", names, m.names)
	}
	for i, n := range names {
		if n != m.names[i] {
			return persist.Errf(persist.CodeMismatch, op, "fleet %v, receiver has %v", names, m.names)
		}
	}
	phase := Phase(d.U8())
	active := d.Int()
	prefill := d.Int()
	prefillAge := d.Int()
	pretrainSeen := d.Int()
	incrementalSeen := d.Int()
	cooldown := d.Int()
	for range 3 { // the retired fallback counters
		d.U64()
	}
	if d.Err() != nil {
		return d.Err()
	}
	if phase < PhaseWarmup || phase > PhaseIncremental {
		return persist.Errf(persist.CodeMalformed, op, "phase %d", phase)
	}
	if active < 0 || active >= len(m.names) {
		return persist.Errf(persist.CodeMalformed, op, "active estimator %d of %d", active, len(m.names))
	}
	if prefill < -1 || prefill >= len(m.names) {
		return persist.Errf(persist.CodeMalformed, op, "prefill estimator %d of %d", prefill, len(m.names))
	}
	if prefillAge < 0 || pretrainSeen < 0 || incrementalSeen < 0 || cooldown < 0 {
		return persist.Errf(persist.CodeMalformed, op, "negative counter (%d, %d, %d, %d)",
			prefillAge, pretrainSeen, incrementalSeen, cooldown)
	}
	if err := m.accWindow.LoadState(d); err != nil {
		return err
	}
	if err := m.oppGap.LoadState(d); err != nil {
		return err
	}
	oppLen := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if oppLen != len(m.oppBest) {
		return persist.Errf(persist.CodeMismatch, op, "opportunity window %d, receiver has %d", oppLen, len(m.oppBest))
	}
	for i := 0; i < oppLen; i++ {
		b := d.Int()
		if b < -1 || b >= len(m.names) {
			if d.Err() != nil {
				return d.Err()
			}
			return persist.Errf(persist.CodeMalformed, op, "opportunity best %d of %d", b, len(m.names))
		}
		m.oppBest[i] = b
	}
	for i := 0; i < oppLen; i++ {
		t := d.U8()
		if int(t) >= numQueryTypes {
			if d.Err() != nil {
				return d.Err()
			}
			return persist.Errf(persist.CodeMalformed, op, "query type %d", t)
		}
		m.oppQt[i] = stream.QueryType(t)
	}
	oppN := d.Int()
	if oppN < 0 {
		if d.Err() != nil {
			return d.Err()
		}
		return persist.Errf(persist.CodeMalformed, op, "opportunity count %d", oppN)
	}
	for i := range m.names {
		if err := m.qerr[i].LoadState(d); err != nil {
			return err
		}
		m.qerrN[i] = d.U64()
	}
	switchesJSON := d.Blob()
	decisionsJSON := d.Blob()
	traceTotal := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	var switches []SwitchEvent
	if err := json.Unmarshal(switchesJSON, &switches); err != nil {
		return persist.Errf(persist.CodeMalformed, op, "decode switches: %v", err)
	}
	var decisions []telemetry.Decision
	if err := json.Unmarshal(decisionsJSON, &decisions); err != nil {
		return persist.Errf(persist.CodeMalformed, op, "decode decisions: %v", err)
	}
	if err := m.brain.loadState(d); err != nil {
		return err
	}
	m.phase = phase
	m.active = active
	m.prefill = prefill
	m.prefillAge = prefillAge
	m.pretrainSeen = pretrainSeen
	m.incrementalSeen = incrementalSeen
	m.cooldown = cooldown
	m.oppN = oppN
	m.switches = switches
	m.trace.Restore(decisions, traceTotal)
	return m.loadEstimators(d)
}

// loadEstimators restores each fleet member's summary per the directives
// saveEstimators wrote: an estBlob entry round-trips through its own
// codec, and an estFloatBlob entry, written before samples were lattice
// points, through the estimator's FloatStateful codec if it has one; an
// estFreshen entry is rebuilt by replaying the already-restored window
// (the same refill path a cold switch target takes); an estSkip entry
// stays at its freshly-constructed empty state.
func (m *Module) loadEstimators(d *persist.Dec) error {
	const op = "module estimators"
	for i, est := range m.ests {
		mode := d.U8()
		if d.Err() != nil {
			return d.Err()
		}
		switch mode {
		case estSkip:
		case estFreshen:
			m.freshen(i)
		case estBlob, estFloatBlob:
			s, ok := est.(estimator.Stateful)
			if !ok {
				return persist.Errf(persist.CodeMismatch, op,
					"%s was saved with internal state but the registered implementation cannot load it", m.names[i])
			}
			blob := d.Blob()
			if d.Err() != nil {
				return d.Err()
			}
			sub := persist.NewDec(blob)
			load := s.LoadState
			if f, ok := est.(estimator.FloatStateful); ok && mode == estFloatBlob {
				load = f.LoadFloatState
			}
			if err := load(sub); err != nil {
				return err
			}
			if err := sub.Done(); err != nil {
				return err
			}
		default:
			return persist.Errf(persist.CodeMalformed, op,
				"unknown restore directive %d for %s", mode, m.names[i])
		}
	}
	return nil
}

// saveState serializes the brain: normalizers, the per-(estimator, query
// type) performance profile and the Hoeffding tree itself.
//
// Between the profile and the tree, the section keeps the slots of a
// retired drift monitor that rebuilt the tree: a sliding window of the
// tree's own accuracy (values, next, count, sum), a label ring, a label
// count and a rebuild count. New images write them empty and loadState
// discards them, so every image taken while the monitor ran still
// restores.
func (b *brain) saveState(e *persist.Enc) {
	b.accNorm.SaveState(e)
	b.latNorm.SaveState(e)
	for est := range b.names {
		for t := 0; t < numQueryTypes; t++ {
			b.profAcc[est][t].SaveState(e)
			b.profLat[est][t].SaveState(e)
		}
	}
	e.F64s(nil) // the retired monitor's slots
	e.Int(0)
	e.Int(0)
	e.F64(0)
	e.Blob(nil)
	e.Int(0)
	e.Int(0)
	b.tree.SaveState(e)
}

func (b *brain) loadState(d *persist.Dec) error {
	if err := b.accNorm.LoadState(d); err != nil {
		return err
	}
	if err := b.latNorm.LoadState(d); err != nil {
		return err
	}
	for est := range b.names {
		for t := 0; t < numQueryTypes; t++ {
			if err := b.profAcc[est][t].LoadState(d); err != nil {
				return err
			}
			if err := b.profLat[est][t].LoadState(d); err != nil {
				return err
			}
		}
	}
	d.F64s() // the retired monitor's slots
	d.Int()
	d.Int()
	d.F64()
	d.Blob()
	d.Int()
	d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	return b.tree.LoadState(d)
}
