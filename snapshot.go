package latest

import (
	"bytes"
	"context"

	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// snapshot.go implements Engine.Snapshot / Engine.Restore for the two
// engine types. A snapshot is one LSNP container (internal/persist) whose
// sections are:
//
//	meta               engine kind, config fingerprint, generation
//	[shard-N/]window   the exact window store, objects in arrival order
//	[shard-N/]module   lifecycle counters, brain, estimator summaries
//	[shard-N/]engine   the stream clock high-water mark
//
// System and NewConcurrent's one-shard engine write unprefixed sections;
// NewSharded's writes one section group per shard. Every section and the
// whole file are CRC guarded; the container checksum is verified before the
// version field, so bit rot surfaces as CodeCorrupt rather than
// masquerading as skew.

// snapKindSingle is the engine kind System and NewConcurrent record in
// snapshot meta: one module, one window, the same sections, so their
// snapshots are interchangeable. NewSharded records "sharded:RxC" — the
// grid shape is part of the on-disk contract because its section groups
// are keyed by shard index.
const snapKindSingle = "single"

// metaSectionName is the section every snapshot must carry.
const metaSectionName = "meta"

// configFingerprint encodes every configuration knob that shapes
// serialized state. Restore compares fingerprints byte-for-byte: a
// snapshot taken under different parameters (different window span, fleet,
// seed, memory scale, ...) is refused with CodeMismatch instead of being
// silently reinterpreted. The module's knobs are read from mc, the
// configuration its module was built with, where core has already resolved
// the defaults — so an explicit WithTau(0.75) and an implied default
// fingerprint identically, from one table. World and seed come from cfg: a
// shard's module sees a derived rectangle and seed.
func configFingerprint(cfg *config, mc core.Config) []byte {
	cells := cfg.OracleGridCells
	if cells == 0 {
		cells = defaultOracleGridCells
	}
	traceDepth := cfg.TraceDepth
	if traceDepth == 0 {
		traceDepth = telemetry.DefaultTraceDepth
	}
	var e persist.Enc
	e.F64(cfg.World.MinX)
	e.F64(cfg.World.MinY)
	e.F64(cfg.World.MaxX)
	e.F64(cfg.World.MaxY)
	e.I64(mc.Span)
	e.Strs(mc.Estimators)
	e.Str(mc.Default)
	e.F64(mc.Alpha)
	e.F64(mc.Tau)
	e.F64(mc.Beta)
	e.Int(mc.AccWindow)
	e.Int(mc.PretrainQueries)
	e.Int(mc.CooldownQueries)
	e.F64(mc.OpportunityMargin)
	e.F64(mc.Scale)
	e.I64(cfg.Seed)
	e.Int(cells)
	e.Int(traceDepth)
	e.U8(uint8(cfg.Validation))
	return e.Data()
}

// encodeMeta builds the meta section payload.
func encodeMeta(kind string, fingerprint []byte, gen uint64) []byte {
	var e persist.Enc
	e.Str(kind)
	e.Blob(fingerprint)
	e.U64(gen)
	return e.Data()
}

// decodeMeta validates the meta section against the restoring engine's
// kind and fingerprint and returns the snapshot generation.
func decodeMeta(snap *persist.Snapshot, wantKind string, wantFP []byte) (gen uint64, err error) {
	const op = "snapshot meta"
	payload, ok := snap.Section(metaSectionName)
	if !ok {
		return 0, persist.Errf(persist.CodeMalformed, op, "section missing")
	}
	d := persist.NewDec(payload)
	kind := d.Str()
	fp := d.Blob()
	gen = d.U64()
	if d.Err() != nil {
		return 0, d.Err()
	}
	if err := d.Done(); err != nil {
		return 0, err
	}
	if kind != wantKind {
		return 0, persist.Errf(persist.CodeMismatch, op,
			"snapshot is from a %q engine, this engine is %q", kind, wantKind)
	}
	if !bytes.Equal(fp, wantFP) {
		return 0, persist.Errf(persist.CodeMismatch, op,
			"snapshot was taken under a different configuration (fingerprint differs); rebuild the engine with the original options")
	}
	return gen, nil
}

// writeSections serializes one System's state group into sw under prefix
// ("" or "shard-N/"; see shard.prefix).
func (s *System) writeSections(sw *persist.SnapshotWriter, prefix string) error {
	_ = sw.EncodeSection(prefix+"window", func(e *persist.Enc) error {
		s.window.SaveState(e)
		return nil
	})
	if err := sw.EncodeSection(prefix+"module", s.module.SaveState); err != nil {
		return err
	}
	var ee persist.Enc
	ee.I64(s.lastTS)
	sw.Section(prefix+"engine", ee.Data())
	return nil
}

// readSections restores one System's state group. The window loads first:
// estimators without a serialized summary are rebuilt by replaying the
// restored window through the refill path, which must see the full store.
func (s *System) readSections(snap *persist.Snapshot, prefix string) error {
	const op = "snapshot"
	win, ok := snap.Section(prefix + "window")
	if !ok {
		return persist.Errf(persist.CodeMalformed, op, "section %q missing", prefix+"window")
	}
	wd := persist.NewDec(win)
	if err := s.window.LoadState(wd); err != nil {
		return err
	}
	if err := wd.Done(); err != nil {
		return err
	}
	mod, ok := snap.Section(prefix + "module")
	if !ok {
		return persist.Errf(persist.CodeMalformed, op, "section %q missing", prefix+"module")
	}
	md := persist.NewDec(mod)
	if err := s.module.LoadState(md); err != nil {
		return err
	}
	if err := md.Done(); err != nil {
		return err
	}
	eng, ok := snap.Section(prefix + "engine")
	if !ok {
		return persist.Errf(persist.CodeMalformed, op, "section %q missing", prefix+"engine")
	}
	ed := persist.NewDec(eng)
	lastTS := ed.I64()
	if err := ed.Err(); err != nil {
		return err
	}
	if err := ed.Done(); err != nil {
		return err
	}
	s.lastTS = lastTS
	return nil
}

// Snapshot serializes the engine into st as one atomic artifact named
// persist.SnapshotName. Each successful snapshot increments the engine's
// generation by exactly one; the generation is embedded in the artifact,
// which is what lets the durable layer pair a snapshot with its feed WAL
// atomically (the pairing commits with the snapshot's rename).
//
// System is single-goroutine: do not call Snapshot concurrently with
// traffic (use NewConcurrent, NewSharded or DurableEngine for that).
func (s *System) Snapshot(ctx context.Context, st Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sw := persist.NewSnapshotWriter(s.window.MemoryBytes())
	sw.Section(metaSectionName, encodeMeta(snapKindSingle, s.fingerprint, s.gen+1))
	if err := s.writeSections(sw, ""); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := st.Save(persist.SnapshotName, sw.Bytes()); err != nil {
		return err
	}
	s.gen++
	return nil
}

// Restore loads a snapshot into this freshly constructed System. The
// engine must have been built with the same options (CodeMismatch
// otherwise) and never fed (CodeState otherwise). On error the engine must
// be discarded: a failed restore never leaves partial state behind a
// usable-looking engine.
func (s *System) Restore(ctx context.Context, st Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	data, err := st.Load(persist.SnapshotName)
	if err != nil {
		return err
	}
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	gen, err := decodeMeta(snap, snapKindSingle, s.fingerprint)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.readSections(snap, ""); err != nil {
		return err
	}
	s.gen = gen
	return nil
}

// Snapshot serializes every shard into st as one atomic artifact. All
// shard locks are held for the duration (acquired in shard order), so the
// capture is a consistent cut with respect to feeds and single-shard
// queries; for a cut that is also consistent with multi-shard query
// fan-outs, quiesce queries first (DurableEngine's write lock does).
func (s *ShardedSystem) Snapshot(ctx context.Context, st Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	windowBytes := 0
	for _, sh := range s.shards {
		windowBytes += sh.sys.window.MemoryBytes()
	}
	sw := persist.NewSnapshotWriter(windowBytes)
	sw.Section(metaSectionName, encodeMeta(s.snapKind, s.fingerprint, s.gen+1))
	for _, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sh.sys.writeSections(sw, sh.prefix); err != nil {
			return err
		}
	}
	if err := st.Save(persist.SnapshotName, sw.Bytes()); err != nil {
		return err
	}
	s.gen++
	return nil
}

// Restore loads a snapshot into this freshly constructed ShardedSystem.
// The shard grid must match (the kind string carries it) and every shard
// must be untouched; see System.Restore for the error contract.
func (s *ShardedSystem) Restore(ctx context.Context, st Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	data, err := st.Load(persist.SnapshotName)
	if err != nil {
		return err
	}
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	gen, err := decodeMeta(snap, s.snapKind, s.fingerprint)
	if err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	for _, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sh.sys.readSections(snap, sh.prefix); err != nil {
			return err
		}
	}
	s.gen = gen
	return nil
}
