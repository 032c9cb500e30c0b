package latest

import (
	"bytes"
	"context"
	"fmt"

	"github.com/spatiotext/latest/internal/core"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// snapshot.go encodes and restores the engine's image, which the durable
// layer (durable.go) names, stores and recovers. An image is one LSNP
// container (internal/persist) whose sections are:
//
//	meta               engine kind, config fingerprint, generation
//	[shard-N/]window2  the exact window store, objects in arrival order
//	[shard-N/]module   lifecycle counters, brain, estimator summaries
//	[shard-N/]engine   the stream clock high-water mark
//
// window2 stores each object's location as its lattice point. Images
// written before the window stored lattice points carry a "window"
// section instead, whose locations are float64s; it is still read, and
// its locations are snapped at load.
//
// The layout follows the module count, not the constructor (see
// snapshotLayout). Every section and the whole file are CRC guarded; the
// container checksum is verified before the version field, so bit rot
// surfaces as CodeCorrupt rather than masquerading as skew.

// snapshotLayout maps a rows×cols module grid to the snapshot meta kind and
// each module's section prefix, in row-major order. One module — New,
// NewConcurrent, NewSharded(WithShards(1)) — is kind "single" with
// unprefixed sections, so those engines write the same bytes and restore
// each other's images. A grid is "sharded:RxC" with one "shard-N/" group
// per shard: the grid shape is part of the on-disk contract because its
// section groups are keyed by shard index.
func snapshotLayout(rows, cols int) (kind string, prefixes []string) {
	if rows*cols == 1 {
		return "single", []string{""}
	}
	prefixes = make([]string, rows*cols)
	for i := range prefixes {
		prefixes[i] = fmt.Sprintf("shard-%d/", i)
	}
	return fmt.Sprintf("sharded:%dx%d", rows, cols), prefixes
}

// metaSectionName is the section every snapshot must carry.
const metaSectionName = "meta"

// The window's section names: the current one, and the one images written
// before lattice points carry.
const (
	windowSection      = "window2"
	floatWindowSection = "window"
)

// configFingerprint encodes every configuration knob that shapes
// serialized state. restoreImage compares fingerprints byte-for-byte: a
// snapshot taken under different parameters (different window span, fleet,
// seed, memory scale, ...) is refused with CodeMismatch instead of being
// silently reinterpreted. The module's knobs are read from mc, the
// configuration its module was built with, where core has already resolved
// the defaults — so an explicit WithTau(0.75) and an implied default
// fingerprint identically, from one table. World and seed come from cfg: a
// shard's module sees a derived rectangle and seed. A sharded engine passes
// mc with the engine's pre-training length, not a shard's share of it.
func configFingerprint(cfg *config, mc core.Config) []byte {
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
	// The switch cool-down and the opportunity margin were once knobs;
	// they keep their slots, written as the values core now fixes.
	e.Int(mc.AccWindow / 2)
	e.F64(0.15)
	e.F64(mc.Scale)
	e.I64(cfg.Seed)
	// The exact-store grid, the decision-trace depth and the validation
	// policy (0 = clamp) were once options; they keep their slots, written
	// as the constants they now are, so every image taken at their defaults
	// still restores and one taken with any of them changed is refused.
	e.Int(oracleGridCells)
	e.Int(telemetry.DefaultTraceDepth)
	e.U8(0)
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

// readMeta decodes the meta section: engine kind, config fingerprint and
// generation. It validates nothing against an engine; restoreImage does.
func readMeta(snap *persist.Snapshot) (kind string, fp []byte, gen uint64, err error) {
	payload, ok := snap.Section(metaSectionName)
	if !ok {
		return "", nil, 0, persist.Errf(persist.CodeMalformed, "snapshot meta", "section missing")
	}
	d := persist.NewDec(payload)
	kind, fp, gen = d.Str(), d.Blob(), d.U64()
	if d.Err() != nil {
		return "", nil, 0, d.Err()
	}
	if err := d.Done(); err != nil {
		return "", nil, 0, err
	}
	return kind, fp, gen, nil
}

// writeSections serializes one shard's state group into sw under prefix
// (see snapshotLayout). A split Estimate still waiting for its truth is
// dropped first: the image holds no half-answered query. Caller holds
// sh.mu.
func (sh *shard) writeSections(sw *persist.SnapshotWriter, prefix string) error {
	sh.dropSplit()
	_ = sw.EncodeSection(prefix+windowSection, func(e *persist.Enc) error {
		sh.window.SaveState(e)
		return nil
	})
	if err := sw.EncodeSection(prefix+"module", sh.module.SaveState); err != nil {
		return err
	}
	var ee persist.Enc
	ee.I64(sh.lastTS)
	sw.Section(prefix+"engine", ee.Data())
	return nil
}

// readSections restores one shard's state group. The window loads first:
// estimators without a serialized summary are rebuilt by replaying the
// restored window through the refill path, which must see the full store.
func (sh *shard) readSections(snap *persist.Snapshot, prefix string) error {
	const op = "snapshot"
	load := sh.window.LoadState
	win, ok := snap.Section(prefix + windowSection)
	if !ok {
		load = sh.window.LoadFloatState
		if win, ok = snap.Section(prefix + floatWindowSection); !ok {
			return persist.Errf(persist.CodeMalformed, op, "section %q missing", prefix+windowSection)
		}
	}
	wd := persist.NewDec(win)
	if err := load(wd); err != nil {
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
	if err := sh.module.LoadState(md); err != nil {
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
	sh.lastTS = lastTS
	return nil
}

// lockAll takes every shard lock in shard order and returns the function
// that releases them.
func (s *ShardedSystem) lockAll() (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}
}

// encodeImage serializes every shard as one LSNP container whose meta
// section carries generation gen; the caller names and stores the file.
//
// All shard locks are held for the duration (acquired in shard order), so
// the capture is a consistent cut with respect to feeds and single-shard
// queries.
func (s *ShardedSystem) encodeImage(ctx context.Context, gen uint64) ([]byte, error) {
	unlock := s.lockAll()
	defer unlock()
	kind, prefixes := snapshotLayout(s.grid.Rows, s.grid.Cols)
	windowBytes := 0
	for _, sh := range s.shards {
		windowBytes += sh.window.MemoryBytes()
	}
	sw := persist.NewSnapshotWriter(windowBytes)
	sw.Section(metaSectionName, encodeMeta(kind, s.fingerprint, gen))
	for i, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sh.writeSections(sw, prefixes[i]); err != nil {
			return nil, err
		}
	}
	return sw.Bytes(), nil
}

// restoreImage loads a decoded snapshot into this freshly constructed
// engine. The meta kind must match the shard grid and the fingerprint the
// construction options (CodeMismatch otherwise), and every shard must be
// untouched (CodeState otherwise). On error the engine must be discarded:
// a failed restore never leaves partial state behind a usable-looking
// engine.
func (s *ShardedSystem) restoreImage(snap *persist.Snapshot) error {
	unlock := s.lockAll()
	defer unlock()
	kind, gotFP, _, err := readMeta(snap)
	if err != nil {
		return err
	}
	wantKind, prefixes := snapshotLayout(s.grid.Rows, s.grid.Cols)
	// Images NewSharded(WithShards(1)) wrote before every one-module engine
	// shared the "single" layout hold the same sections under "shard-0/".
	if kind == "sharded:1x1" && len(s.shards) == 1 {
		kind, prefixes = wantKind, []string{"shard-0/"}
	}
	const op = "snapshot meta"
	if kind != wantKind {
		return persist.Errf(persist.CodeMismatch, op,
			"snapshot is from a %q engine, this engine is %q", kind, wantKind)
	}
	if !bytes.Equal(gotFP, s.fingerprint) {
		return persist.Errf(persist.CodeMismatch, op,
			"snapshot was taken under a different configuration (fingerprint differs); rebuild the engine with the original options")
	}
	for i, sh := range s.shards {
		if err := sh.readSections(snap, prefixes[i]); err != nil {
			return err
		}
	}
	return nil
}
