package latest

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/telemetry"
)

// DefaultSnapshotRetain is how many committed snapshot generations the
// durable layer keeps when DurableConfig.Retain is zero. Two generations
// means recovery survives the newest snapshot being corrupt: it falls
// back one generation and replays both generations' WALs.
const DefaultSnapshotRetain = 2

// DurableConfig tunes the persistence wrapper.
type DurableConfig struct {
	// SnapshotInterval, when positive, starts a background goroutine that
	// takes a snapshot every interval. Zero means snapshots happen only on
	// SnapshotNow and Shutdown.
	SnapshotInterval time.Duration
	// WALSyncEvery batches fsyncs: a feed call fsyncs the WAL once N
	// records have been written since the last fsync (default
	// persist.DefaultWALSyncEvery), so when FeedBatch returns at most N-1
	// acknowledged objects are un-fsynced. Lower is more durable, higher
	// is faster; a crash loses at most that tail, which the checksummed
	// record framing detects and drops on recovery.
	WALSyncEvery int
	// Retain is how many snapshot generations to keep (default
	// DefaultSnapshotRetain, minimum 1). Each retained generation keeps
	// its WAL too, so recovery can fall back past a corrupt newest
	// snapshot and replay the full chain.
	Retain int
	// RepairBackoff is the repair loop's initial retry delay after a
	// degradation (default 250ms); it doubles per attempt up to
	// RepairBackoffMax (default 5s).
	RepairBackoff    time.Duration
	RepairBackoffMax time.Duration
	// Log, when non-nil, receives state-machine transitions (degraded,
	// repaired, fallback recovery), each line carrying component=durable.
	// A nil logger drops everything.
	Log *slog.Logger
}

// DurableEngine wraps a ShardedSystem with crash-durable state: every fed
// object is appended to a checksummed write-ahead log before it reaches
// the engine, and periodic snapshots capture the engine's full state —
// window, module counters, learning model, estimator summaries. After a
// crash, NewDurable rebuilds the engine from the newest decodable
// snapshot plus every WAL generation written since it. It is the only
// writer and reader of snapshot files and owns the only generation
// counter.
//
// What recovery restores exactly: every object the WAL had fsynced, and
// all engine state as of the snapshot. What it does not: queries answered
// after the snapshot (their model feedback is not logged — re-deriving it
// would require re-running the queries) and the un-fsynced WAL tail. Both
// are documented trade-offs of logging only the feed stream.
//
// Persistence failures never stop serving. A failed WAL append or
// snapshot commit flips the engine into the degraded state (reported as
// TelemetrySnapshot().Durable.State): queries and feeds continue from
// memory, further WAL appends are dropped and counted rather than
// attempted against a broken store, and the background goroutine retries
// a fresh snapshot commit with backoff until durability is restored.
//
// Locking: mu orders the WAL and nothing else. A feed holds it through
// the WAL append and the engine apply, so log order is apply order, and a
// snapshot holds it, so it waits for any in-flight feed. Queries and
// telemetry reads call the wrapped engine directly and never wait on a
// feed's fsync; the engine's shard locks keep each shard's query atomic.
// So a snapshot is not atomic with respect to a multi-shard query fan-out:
// each shard's sections hold a state that shard was in, and since queries
// are not logged, recovery is unaffected.
//
// The snapshot/WAL pairing is atomic: each committed snapshot generation
// gets its own file (snapshot-<g>.snap, via atomic rename, with g in its
// meta section too) and the paired WAL is named after it (feed-<g>.wal).
// Whatever instant a crash hits, the store holds at least one committed
// snapshot and the WAL chain that extends it.
type DurableEngine struct {
	mu    sync.Mutex
	eng   imageEngine
	store Store
	cfg   DurableConfig
	log   *slog.Logger

	wal *persist.WAL
	gen atomic.Uint64 // written under mu, read without it
	// snaps indexes the retained snapshot files by generation (values are
	// file names; the legacy un-numbered snapshot.snap can appear here
	// after recovering a store written by an older build).
	snaps map[uint64]string

	// stats instruments the layer and holds the degraded-mode state
	// machine (durable_stats.go). Exposed via TelemetrySnapshot as the
	// latest_wal_* / latest_snapshot_* / latest_recovery_* /
	// latest_durable_* families.
	stats    durableStats
	repairCh chan struct{}

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// imageEngine is what the durable layer needs of the engine it wraps: the
// Engine surface plus its image (snapshot.go). *ShardedSystem is the one
// implementation; tests substitute recorders that isolate the durable
// layer.
type imageEngine interface {
	Engine
	encodeImage(ctx context.Context, gen uint64) ([]byte, error)
	restoreImage(snap *persist.Snapshot) error
}

// NewDurable wraps eng with snapshot + WAL persistence backed by st. A
// System's engine is sys.ShardedSystem.
//
// eng must be freshly constructed with the same options as the engine that
// wrote the store's state. If st holds snapshots, the newest decodable
// generation is restored and the WAL chain extending it replayed; a
// corrupt newest generation falls back to the previous retained one. Only
// when no generation can be decoded — or the surviving one fails the
// engine's own kind/fingerprint validation — does startup refuse with the
// typed error; never a partial restore. An empty store starts fresh at
// generation zero. A snapshot-<g>.snap copied into an empty store seeds it
// at generation g; an older build's un-numbered snapshot.snap seeds it at
// the generation in its meta section.
func NewDurable(eng *ShardedSystem, st Store, cfg DurableConfig) (*DurableEngine, error) {
	return openDurable(eng, st, cfg)
}

// openDurable is NewDurable over any imageEngine.
func openDurable(eng imageEngine, st Store, cfg DurableConfig) (*DurableEngine, error) {
	if cfg.WALSyncEvery == 0 {
		cfg.WALSyncEvery = persist.DefaultWALSyncEvery
	}
	if cfg.Retain < 1 {
		cfg.Retain = DefaultSnapshotRetain
	}
	if cfg.RepairBackoff <= 0 {
		cfg.RepairBackoff = 250 * time.Millisecond
	}
	if cfg.RepairBackoffMax <= 0 {
		cfg.RepairBackoffMax = 5 * time.Second
	}
	d := &DurableEngine{
		eng: eng, store: st, cfg: cfg,
		log:      cmp.Or(cfg.Log, telemetry.Discard).With("component", "durable"),
		snaps:    make(map[uint64]string),
		repairCh: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	d.stats.since = time.Now()
	recoverStart := time.Now()
	if err := d.recover(); err != nil {
		return nil, err
	}
	d.stats.recoverySeconds = time.Since(recoverStart).Seconds()
	d.wg.Add(1)
	go d.run()
	return d, nil
}

// snapCandidate is one restorable snapshot file found during recovery;
// snap holds it decoded once it has been read.
type snapCandidate struct {
	gen  uint64
	name string
	snap *persist.Snapshot
}

// loadSnapshot reads one snapshot file and checks every CRC.
func (d *DurableEngine) loadSnapshot(name string) (*persist.Snapshot, error) {
	data, err := d.store.Load(name)
	if err != nil {
		return nil, err
	}
	return persist.DecodeSnapshot(data)
}

// recover restores the newest decodable snapshot generation (falling back
// to older retained generations when the newest fails its CRCs), replays
// the WAL chain from the restored generation through the newest one, and
// leaves the top WAL open for appends.
func (d *DurableEngine) recover() error {
	names, err := d.store.List()
	if err != nil {
		return err
	}
	wals := make(map[uint64]bool)
	var cands []snapCandidate
	var lastErr error
	var badNames []string
	for _, name := range names {
		if gen, ok := persist.ParseSnapshotName(name); ok {
			cands = append(cands, snapCandidate{gen: gen, name: name})
		} else if gen, ok := persist.ParseWALName(name); ok {
			wals[gen] = true
		} else if name == persist.SnapshotName {
			// An older build's file: the generation lives inside the meta
			// section, not the name.
			snap, lerr := d.loadSnapshot(name)
			var gen uint64
			if lerr == nil {
				_, _, gen, lerr = readMeta(snap)
			}
			if lerr != nil {
				lastErr = lerr
				badNames = append(badNames, name)
				d.stats.noteErr("recover-snapshot", lerr)
				continue
			}
			cands = append(cands, snapCandidate{gen: gen, name: name, snap: snap})
		}
	}
	// Newest generation first; a numbered file wins a same-generation tie
	// against the legacy name (they hold identical state when both exist).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gen != cands[j].gen {
			return cands[i].gen > cands[j].gen
		}
		return cands[i].name != persist.SnapshotName
	})
	maxGen := uint64(0) // newest generation ever seen, restored or not
	for _, c := range cands {
		if c.gen > maxGen {
			maxGen = c.gen
		}
	}
	restored := false
	var restoredGen uint64
	for _, c := range cands {
		// Validate before the engine sees anything: DecodeSnapshot checks
		// every CRC, so a fallback here never leaves the engine partially
		// mutated.
		snap := c.snap
		if snap == nil {
			var lerr error
			if snap, lerr = d.loadSnapshot(c.name); lerr != nil {
				lastErr = lerr
				badNames = append(badNames, c.name)
				d.stats.noteErr("recover-snapshot",
					fmt.Errorf("snapshot generation %d (%s): %w", c.gen, c.name, lerr))
				continue
			}
		}
		// The engine validates kind and fingerprint. A refusal there is
		// semantic (wrong engine shape, config mismatch), not corruption —
		// falling back to an older generation would restore state this
		// process equally cannot speak, so refuse outright.
		if rerr := d.eng.restoreImage(snap); rerr != nil {
			return rerr
		}
		restored = true
		restoredGen = c.gen
		d.snaps[c.gen] = c.name
		if c.gen < maxGen {
			d.stats.recoveredFallback = true
			d.log.Warn("newest snapshot generation unreadable; falling back",
				"restored_generation", c.gen, "newest_generation", maxGen, "err", lastErr)
		}
		break
	}
	if !restored && lastErr != nil {
		// Snapshots existed but none decoded: that is a refusal, not a
		// fresh start — silently dropping state would be data loss.
		return lastErr
	}
	// Index the older retained generations too (not re-validated here:
	// they are fallback candidates by presence; a future recovery
	// validates whichever it needs).
	for _, c := range cands {
		if restored && c.gen < restoredGen {
			if _, ok := d.snaps[c.gen]; !ok {
				d.snaps[c.gen] = c.name
			}
		}
	}
	// Known-bad files are removed so retention never counts a corrupt
	// generation as a keeper.
	for _, name := range badNames {
		if err := d.store.Remove(name); err != nil && !persist.IsNotExist(err) {
			d.stats.noteErr("cleanup", err)
		}
	}
	d.stats.recoveredSnapshot = restored
	d.stats.recoveredGen = restoredGen

	// Replay the WAL chain. Generations between the restored snapshot and
	// the newest generation seen anywhere must all be present — a gap in
	// the middle means lost feeds, which is a refusal. The top generation
	// may be absent (a crash between snapshot commit and WAL open); it is
	// created empty.
	start := restoredGen // 0 when starting fresh
	top := start
	for g := range wals {
		if g > top {
			top = g
		}
	}
	if maxGen > top {
		top = maxGen
	}
	for g := start; g < top; g++ {
		data, lerr := d.store.Load(persist.WALName(g))
		if lerr != nil {
			if persist.IsNotExist(lerr) {
				return persist.Errf(persist.CodeTruncated, "wal replay",
					"wal chain broken: generation %d missing below generation %d", g, top)
			}
			return lerr
		}
		records, tail := persist.ParseWAL(data)
		if tail.DroppedBytes > 0 {
			// Only the final chain link may legitimately tear; a torn
			// middle generation means its rotation never flushed.
			d.stats.noteErr("wal-recover", fmt.Errorf(
				"wal generation %d: dropped %d-byte torn tail after %d valid records",
				g, tail.DroppedBytes, tail.Records))
		}
		if err := d.replayRecords(records); err != nil {
			return err
		}
		d.stats.recoveryRecords += uint64(len(records))
		d.stats.recoveryTruncated += tail.DroppedBytes
	}
	wal, records, tail, err := persist.OpenWAL(d.store, persist.WALName(top), d.cfg.WALSyncEvery)
	if err != nil {
		return err
	}
	wal.SetObserver(&d.stats)
	d.stats.recoveryRecords += uint64(len(records))
	d.stats.recoveryTruncated += tail.DroppedBytes
	if tail.DroppedBytes > 0 {
		// A torn tail is the expected shape of a crash mid-append; the
		// checksummed framing identified the exact valid prefix.
		d.stats.noteErr("wal-recover", fmt.Errorf("wal: dropped %d-byte torn tail after %d valid records",
			tail.DroppedBytes, tail.Records))
	}
	if err := d.replayRecords(records); err != nil {
		wal.Close()
		return err
	}
	d.wal = wal
	d.gen.Store(top)
	d.pruneGenerations()
	return nil
}

// replayRecords decodes one WAL generation's records and feeds them.
func (d *DurableEngine) replayRecords(records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	objs := make([]Object, 0, len(records))
	dec := persist.NewDec(nil) // one decoder, so records share keyword strings
	for i, rec := range records {
		dec.Reset(rec)
		o := stream.DecodeObject(dec)
		if dec.Err() != nil || dec.Done() != nil {
			return persist.Errf(persist.CodeMalformed, "wal replay",
				"record %d of %d does not decode as a feed object", i, len(records))
		}
		objs = append(objs, o)
	}
	d.eng.FeedBatch(objs)
	return nil
}

// pruneGenerations enforces the retention policy: the newest cfg.Retain
// snapshot generations stay (with every WAL from the oldest keeper
// through the current generation — the fallback replay chain), everything
// older goes. Removal failures are recorded, never fatal: stale files
// cost disk, not correctness.
func (d *DurableEngine) pruneGenerations() {
	gens := make([]uint64, 0, len(d.snaps))
	for g := range d.snaps {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	cur := d.gen.Load()
	oldestKept := cur
	for i, g := range gens {
		if i < d.cfg.Retain {
			if g < oldestKept {
				oldestKept = g
			}
			continue
		}
		if err := d.store.Remove(d.snaps[g]); err != nil && !persist.IsNotExist(err) {
			d.stats.noteErr("cleanup", err)
			continue
		}
		delete(d.snaps, g)
	}
	names, err := d.store.List()
	if err != nil {
		d.stats.noteErr("cleanup", err)
		return
	}
	for _, name := range names {
		g, ok := persist.ParseWALName(name)
		if !ok || g == cur || g >= oldestKept {
			continue
		}
		if err := d.store.Remove(name); err != nil && !persist.IsNotExist(err) {
			d.stats.noteErr("cleanup", err)
		}
	}
}

// run is the engine's one background goroutine. It waits for the
// snapshot ticker (when SnapshotInterval is set), a degradation or
// shutdown; after a degradation it retries repair with doubling backoff
// until the machine is healthy again.
func (d *DurableEngine) run() {
	defer d.wg.Done()
	var tick <-chan time.Time
	if d.cfg.SnapshotInterval > 0 {
		ticker := time.NewTicker(d.cfg.SnapshotInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-d.done:
			return
		case <-tick:
			// A failure degrades inside snapshotLocked, which wakes repairCh
			// for the next turn of this loop.
			_ = d.SnapshotNow(context.Background())
			continue
		case <-d.repairCh:
		}
		backoff := d.cfg.RepairBackoff
		for d.stats.degraded.Load() {
			timer := time.NewTimer(backoff)
			select {
			case <-d.done:
				timer.Stop()
				return
			case <-timer.C:
			}
			backoff = min(2*backoff, d.cfg.RepairBackoffMax)
			// Errors are recorded by the attempt itself; the loop only
			// paces retries.
			_ = d.repair(context.Background())
		}
	}
}

// repair is one step of the repair loop: while degraded, a fresh
// snapshot commit onto a new generation, which re-arms the machine on
// success (the commit captures every feed dropped while degraded). A
// no-op when healthy.
func (d *DurableEngine) repair(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.stats.degraded.Load() {
		return nil
	}
	d.stats.repairAttempts.Add(1)
	return d.snapshotLocked(ctx)
}

// appendWAL logs objs as one group commit: every object framed into the
// log's buffer, one write, at most one fsync. Caller holds mu.
// While degraded the append is not attempted — the store already failed;
// hammering it from the feed path would add latency for nothing — but the
// objects are counted, and the repair snapshot will capture them from
// engine memory. A write that fails part-way drops and counts the whole
// batch for the same reason: the repair snapshot supersedes this log.
func (d *DurableEngine) appendWAL(objs []Object) {
	if d.wal == nil {
		return // Shutdown already closed the log
	}
	n := uint64(len(objs))
	if d.stats.degraded.Load() {
		d.stats.droppedAppends.Add(n)
		return
	}
	err := d.wal.AppendBatch(len(objs), func(i int, e *persist.Enc) {
		stream.EncodeObject(e, &objs[i])
	})
	if err != nil {
		d.stats.droppedAppends.Add(n)
		d.degrade("wal-append", err)
		return
	}
	d.stats.appends.Add(n)
}

// FeedBatch logs the batch to the WAL in one write, then feeds the engine.
// When it returns, every object is in the log file and fewer than
// WALSyncEvery acknowledged objects are un-fsynced.
func (d *DurableEngine) FeedBatch(objs []Object) {
	if len(objs) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.appendWAL(objs)
	d.eng.FeedBatch(objs)
}

// EstimateAndExecute delegates to the engine without taking mu, so a
// query never waits on a feed's WAL write or fsync. Queries are not
// write-ahead logged; see the type comment for what that means on
// recovery.
func (d *DurableEngine) EstimateAndExecute(q *Query) (float64, int) {
	return d.eng.EstimateAndExecute(q)
}

// EstimateAndExecuteTraced delegates to the engine.
func (d *DurableEngine) EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (float64, int) {
	return d.eng.EstimateAndExecuteTraced(q, tr)
}

// TelemetrySnapshot delegates to the engine and attaches the durability
// layer's sample (generation, WAL and snapshot counters/latencies,
// recovery cost, state machine and recent errors) so /metrics and
// /statusz describe the whole stack. It is the layer's only read path and
// never waits on mu, so a parked fsync cannot stall it.
func (d *DurableEngine) TelemetrySnapshot() TelemetryReport {
	snap := d.eng.TelemetrySnapshot()
	snap.Durable = d.stats.sample(d.gen.Load())
	return snap
}

// SnapshotNow takes a snapshot into the backing store and rotates the feed
// WAL, atomically with respect to feeds: the engine's image at generation
// g+1 is saved as snapshot-<g+1>.snap via rename, appends switch to
// feed-<g+1>.wal, and generations past the retention horizon are
// removed. A crash at any point leaves a recoverable snapshot generation
// and the WAL chain extending it — never a torn pairing. A successful
// commit also repairs a degraded engine: everything in memory (dropped
// appends included) just became durable.
func (d *DurableEngine) SnapshotNow(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked(ctx)
}

func (d *DurableEngine) snapshotLocked(ctx context.Context) error {
	start := time.Now()
	if err := d.snapshotCommit(ctx); err != nil {
		d.stats.snapErrors.Add(1)
		d.degrade("snapshot", err)
		return err
	}
	d.stats.snapshots.Add(1)
	d.stats.snapLat.Record(time.Since(start))
	return nil
}

// snapshotCommit is the uninstrumented snapshot + rotation sequence.
// Caller holds mu.
func (d *DurableEngine) snapshotCommit(ctx context.Context) error {
	if d.wal != nil && !d.stats.degraded.Load() {
		// Flush pending appends first: if the snapshot fails the WAL must
		// still fully extend the previous one. A failed flush degrades but
		// does not abort — the snapshot below supersedes the WAL, and
		// committing it is exactly the repair.
		if err := d.wal.Sync(); err != nil {
			d.degrade("wal-sync", err)
		}
	}
	gen := d.gen.Load()
	target := persist.SnapshotNameFor(gen + 1)
	// FeedBatch appends to the WAL and applies to the engine under d.mu,
	// which we hold, so every logged feed has been applied by now: the
	// snapshot that supersedes this WAL generation carries them all.
	data, err := d.eng.encodeImage(ctx, gen+1)
	if err != nil {
		return err
	}
	if err := d.store.Save(target, data); err != nil {
		return err
	}
	d.stats.lastSnapBytes.Store(uint64(len(data)))
	wal, _, _, err := persist.OpenWAL(d.store, persist.WALName(gen+1), d.cfg.WALSyncEvery)
	if err != nil {
		// The snapshot committed but the new WAL did not open: recovery
		// from the new snapshot with an empty tail is still correct, but
		// this process can no longer log feeds. Fail the commit so the
		// machine degrades and the repair loop retries the whole sequence.
		return err
	}
	wal.SetObserver(&d.stats)
	if d.wal != nil {
		if cerr := d.wal.Close(); cerr != nil {
			d.stats.noteErr("wal-close", cerr)
		}
		d.stats.rotations.Add(1)
	}
	d.wal = wal
	d.gen.Store(gen + 1)
	d.snaps[gen+1] = target
	d.pruneGenerations()
	// The commit captured every acknowledged feed — including any dropped
	// from the WAL while degraded — so durability is whole again.
	d.rearm()
	return nil
}

// Shutdown drains gracefully: the background goroutine stops, a final
// snapshot captures everything — so a clean shutdown/restart cycle loses
// nothing — the WAL closes, and the inner engine shuts down, bounded by
// ctx. The first error is returned but every step still runs.
func (d *DurableEngine) Shutdown(ctx context.Context) error {
	var first error
	note := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	d.closeOnce.Do(func() {
		close(d.done)
		d.wg.Wait()
		d.mu.Lock()
		note(d.snapshotLocked(ctx))
		if d.wal != nil {
			note(d.wal.Close())
			d.wal = nil
		}
		d.mu.Unlock()
		note(d.eng.Shutdown(ctx))
	})
	return first
}
