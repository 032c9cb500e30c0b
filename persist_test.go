package latest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// persist_test.go exercises persistence end to end: the engine image on
// every engine shape, the typed failure paths, and the DurableEngine
// crash/recovery lifecycle — all over MemStore so the suite stays hermetic
// and fast.

// workload deterministically interleaves feeds and queries so two engines
// given the same seed and starting timestamp see byte-identical traffic.
type workload struct {
	rng *rand.Rand
	ts  int64
}

func newWorkload(seed int64) *workload {
	return &workload{rng: rand.New(rand.NewSource(seed))}
}

func (w *workload) feed(eng Engine, n int) {
	for i := 0; i < n; i++ {
		eng.FeedBatch([]Object{w.object()})
	}
}

// feedBatch feeds the n objects feed would, as one FeedBatch — under a
// DurableEngine, one WAL write.
func (w *workload) feedBatch(eng Engine, n int) {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = w.object()
	}
	eng.FeedBatch(objs)
}

func (w *workload) object() Object {
	w.ts++
	return Object{
		ID:        uint64(w.ts),
		Loc:       Pt(w.rng.Float64(), w.rng.Float64()),
		Keywords:  []string{fmt.Sprintf("kw%d", w.rng.Intn(20))},
		Timestamp: w.ts,
	}
}

func (w *workload) query(eng Engine) (float64, int) {
	r := CenteredRect(Pt(w.rng.Float64(), w.rng.Float64()), 0.3, 0.3)
	kws := []string{fmt.Sprintf("kw%d", w.rng.Intn(20))}
	var q Query
	switch w.rng.Intn(3) {
	case 0:
		q = SpatialQuery(r, w.ts)
	case 1:
		q = KeywordQuery(kws, w.ts)
	default:
		q = HybridQuery(r, kws, w.ts)
	}
	return eng.EstimateAndExecute(&q)
}

// drive runs rounds of (10 feeds + 1 query) and returns a transcript of
// every estimate/actual pair; identical engines must produce identical
// transcripts.
func (w *workload) drive(eng Engine, rounds int) string {
	var b strings.Builder
	for i := 0; i < rounds; i++ {
		w.feed(eng, 10)
		est, actual := w.query(eng)
		fmt.Fprintf(&b, "q=%03d est=%.9f actual=%d\n", i, est, actual)
	}
	return b.String()
}

// statsOf reads an engine's merged module stats, through the durable
// layer when there is one.
func statsOf(e Engine) Stats {
	if d, ok := e.(*DurableEngine); ok {
		e = d.eng
	}
	return e.(interface{ Stats() Stats }).Stats()
}

// warmToIncremental pushes an engine through warmup and pretraining (150
// pretrain queries under testSystem's options) into the incremental phase.
func warmEngine(t *testing.T, eng Engine, w *workload) {
	t.Helper()
	w.feed(eng, 3000)
	w.drive(eng, 160)
	if p := statsOf(eng).Phase; p != PhaseIncremental {
		t.Fatalf("phase after warm drive = %v, want incremental", p)
	}
}

// restoredBehavesIdentically snapshots src, restores into dst, and then
// drives both with identical traffic: the restored engine must not merely
// look like the original, it must *behave* like it query for query.
func restoredBehavesIdentically(t *testing.T, src, dst imageEngine, w *workload) {
	t.Helper()
	if err := restoreBytes(dst, snapshotImage(t, src)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	a, b := statsOf(src), statsOf(dst)
	if a.Phase != b.Phase || a.Active != b.Active ||
		a.PretrainSeen != b.PretrainSeen || a.IncrementalSeen != b.IncrementalSeen ||
		a.Switches != b.Switches || a.TrainingRecords != b.TrainingRecords {
		t.Fatalf("restored stats differ:\n  src: %+v...\n  dst: %+v...",
			struct{ P, A string }{fmt.Sprint(a.Phase), a.Active},
			struct{ P, A string }{fmt.Sprint(b.Phase), b.Active})
	}
	// Two independent copies of the post-snapshot future.
	wa, wb := newWorkload(99), newWorkload(99)
	wa.ts, wb.ts = w.ts, w.ts
	ta := wa.drive(src, 80)
	tb := wb.drive(dst, 80)
	if ta != tb {
		al, bl := strings.Split(ta, "\n"), strings.Split(tb, "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("post-restore behaviour diverges at line %d:\n  src: %s\n  dst: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatal("post-restore transcripts differ")
	}
}

// snapshotImage is eng's image at generation 1, the bytes NewDurable's
// first commit saves.
func snapshotImage(t testing.TB, eng imageEngine) []byte {
	t.Helper()
	data, err := eng.encodeImage(context.Background(), 1)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return data
}

// restoreBytes decodes an image and restores it into eng, as NewDurable's
// recovery does.
func restoreBytes(eng imageEngine, data []byte) error {
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	return eng.restoreImage(snap)
}

func TestSystemSnapshotRestoreRoundTrip(t *testing.T) {
	src := testSystem(t)
	w := newWorkload(7)
	warmEngine(t, src, w)
	restoredBehavesIdentically(t, src, testSystem(t), w)
}

// TestSamplerDrawImagesRestoreTwins: an image taken during warm-up, when the
// samplers are still empty, and one taken right after the first query drew
// them each restore to a twin that behaves bit for bit like the original:
// the warm-up twin draws the same samples (its image after that query is
// the original's), and both twins give the original's next 100 estimates.
func TestSamplerDrawImagesRestoreTwins(t *testing.T) {
	latency := WithLatencyModel(func(string, *Query, time.Duration) time.Duration { return time.Microsecond })
	build := func() *System { return testSystem(t, WithMemoryScale(0.05), latency) }
	// rounds drives an engine through n rounds of 10 feeds and a query from
	// a fresh copy of the post-image workload, and returns the estimates.
	rounds := func(eng Engine, from *workload, seed int64, n int) []float64 {
		w := newWorkload(seed)
		w.ts = from.ts
		out := make([]float64, n)
		for i := range out {
			w.feed(eng, 10)
			out[i], _ = w.query(eng)
		}
		from.ts = w.ts
		return out
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: estimate %d is %v on the original, %v on the twin", what, i, a[i], b[i])
			}
		}
	}
	restore := func(image []byte) *System {
		twin := build()
		if err := restoreBytes(twin, image); err != nil {
			t.Fatal(err)
		}
		return twin
	}

	src, w := build(), newWorkload(7)
	w.feed(src, 3000)
	if p := src.Phase(); p != PhaseWarmup {
		t.Fatalf("phase %v before the first query, want warm-up", p)
	}
	warm := snapshotImage(t, src)
	atWarm := *w
	first := rounds(src, w, 1, 1) // the first query draws the samplers
	drawn := snapshotImage(t, src)
	atDrawn := *w
	next := rounds(src, w, 2, 100)

	twinW := restore(warm)
	same("warm-up twin, first query", first, rounds(twinW, &atWarm, 1, 1))
	if !bytes.Equal(drawn, snapshotImage(t, twinW)) {
		t.Fatal("warm-up twin: image after the first query differs from the original's: the draws differ")
	}
	same("warm-up twin", next, rounds(twinW, &atWarm, 2, 100))
	same("drawn twin", next, rounds(restore(drawn), &atDrawn, 2, 100))
}

// TestConcurrentCrossRestore: System and NewConcurrent share the "single"
// snapshot kind. The same schedule through both yields the same artifact
// byte for byte (the latency model is a constant per estimator, so no
// wall-clock value reaches the image), and a snapshot taken by either
// restores into the other.
func TestConcurrentCrossRestore(t *testing.T) {
	latency := WithLatencyModel(func(name string, _ *Query, _ time.Duration) time.Duration {
		if name == EstimatorH4096 {
			return 5 * time.Microsecond
		}
		return 100 * time.Microsecond
	})
	newConc := func() *ShardedSystem {
		conc, err := NewConcurrent(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
			WithPretrainQueries(150), WithAccWindow(60), WithSeed(1), latency)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conc.Shutdown(context.Background()) })
		return conc
	}
	image := func(eng imageEngine) []byte { return snapshotImage(t, eng) }
	sys, conc := testSystem(t, latency), newConc()
	ws, wc := newWorkload(7), newWorkload(7)
	warmEngine(t, sys, ws)
	warmEngine(t, conc, wc)
	// Compared before the first switch: a decision record carries the wall
	// time it was made at, the one host-clock value an image can hold.
	if n := sys.Stats().Switches + conc.Stats().Switches; n != 0 {
		t.Fatalf("%d switches during warm-up, want none", n)
	}
	if a, b := image(sys), image(conc); !bytes.Equal(a, b) {
		t.Fatalf("System and NewConcurrent snapshots differ (%d vs %d bytes)", len(a), len(b))
	}
	// The next 80 rounds switch once, after pre-filling the candidate on
	// the query path; both engines count that pre-fill where it ran.
	ws.drive(sys, 80)
	wc.drive(conc, 80)
	for name, g := range map[string]GaugeSnapshot{"System": sys.PerShardStats().Shards[0].Gauges, "NewConcurrent": conc.PerShardStats().Shards[0].Gauges} {
		if sw, pf := sys.Stats().Switches, g.PrefillsDrawn+g.PrefillsReplayed; sw == 0 || sw != conc.Stats().Switches || pf == 0 {
			t.Errorf("%s: %d switches (NewConcurrent %d), %d pre-fills, want equal switches and both >= 1",
				name, sw, conc.Stats().Switches, pf)
		}
		if g.PrefillObjectsDrawn < g.PrefillsDrawn || g.PrefillObjectsReplayed < g.PrefillsReplayed {
			t.Errorf("%s: %d draws read %d objects and %d replays %d, want at least one each",
				name, g.PrefillsDrawn, g.PrefillObjectsDrawn, g.PrefillsReplayed, g.PrefillObjectsReplayed)
		}
	}
	restoredBehavesIdentically(t, sys, newConc(), ws)
	restoredBehavesIdentically(t, conc, testSystem(t, latency), wc)
}

// TestOneModuleImagesIdentical: the snapshot layout follows the module
// count, not the constructor. The same schedule through New, NewConcurrent
// and NewSharded(WithShards(1)) yields the same image byte for byte (a
// constant latency model keeps the wall clock out of the training records).
func TestOneModuleImagesIdentical(t *testing.T) {
	world, window := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second
	latency := WithLatencyModel(func(string, *Query, time.Duration) time.Duration { return time.Microsecond })
	opts := []Option{WithPretrainQueries(40), WithAccWindow(20), WithSeed(1), WithMemoryScale(0.1), latency}
	conc := newConcurrent(t, world, window, opts...)
	defer conc.Shutdown(context.Background())
	sharded1 := MustNewSharded(world, window, append(opts, WithShards(1))...)
	defer sharded1.Shutdown(context.Background())
	var want []byte
	for name, eng := range map[string]imageEngine{
		"New":                       MustNew(world, window, opts...),
		"NewConcurrent":             conc,
		"NewSharded(WithShards(1))": sharded1,
	} {
		w := newWorkload(3)
		w.feed(eng, 500)
		w.drive(eng, 20)
		image := snapshotImage(t, eng)
		if want == nil {
			want = image
		} else if !bytes.Equal(image, want) {
			t.Errorf("%s: image differs from the other constructors' (%d vs %d bytes)", name, len(image), len(want))
		}
	}
}

func testSharded(t *testing.T) *ShardedSystem {
	t.Helper()
	s, err := NewSharded(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithPretrainQueries(150), WithAccWindow(60), WithSeed(1),
		WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedSnapshotRestoreRoundTrip(t *testing.T) {
	src := testSharded(t)
	defer src.Shutdown(context.Background())
	w := newWorkload(9)
	w.feed(src, 3000)
	w.drive(src, 160)
	dst := testSharded(t)
	defer dst.Shutdown(context.Background())
	restoredBehavesIdentically(t, src, dst, w)
}

// imageWorld and imageWindow are the world and window every image under
// testdata/persist was written with.
var imageWorld, imageWindow = Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10 * time.Second

// explicitEngine is the 2-shard engine with every fingerprinted knob set
// away from its default, α aside (see TestRestoreImagesWrittenBeforePR24).
func explicitEngine(alpha float64) *ShardedSystem {
	return MustNewSharded(imageWorld, imageWindow,
		WithShards(2),
		WithEstimators(EstimatorH4096, EstimatorRSL, EstimatorRSH),
		WithDefaultEstimator(EstimatorRSL),
		WithAlpha(alpha), WithTau(0.6), WithBeta(0.7),
		WithAccWindow(50), WithPretrainQueries(80),
		WithMemoryScale(0.01), WithSeed(42))
}

// imageEngines builds, for each image under testdata/persist that still
// restores, a fresh engine with the options that wrote it.
var imageEngines = map[string]func() *ShardedSystem{
	"pr21_default_options.lsnp": func() *ShardedSystem {
		return MustNew(imageWorld, imageWindow, WithMemoryScale(0.01)).ShardedSystem
	},
	"pr25_sharded1.lsnp": func() *ShardedSystem {
		return MustNew(imageWorld, imageWindow, WithMemoryScale(0.01)).ShardedSystem
	},
	"pr33_explicit_options.lsnp": func() *ShardedSystem { return explicitEngine(0.3) },
	"sharded2_pretrain60.lsnp": func() *ShardedSystem {
		return MustNewSharded(imageWorld, imageWindow, WithShards(2), WithEstimators(EstimatorH4096, EstimatorRSH),
			WithPretrainQueries(80), WithMemoryScale(0.01), WithSeed(5))
	},
}

// loadImage reads one image under testdata/persist.
func loadImage(t testing.TB, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "persist", file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreImagesWrittenBeforePR24: the config fingerprint is bytes on
// disk, compared byte for byte on restore. The pr21 images were written by
// commit 670c8af, when the root package resolved the module's defaults a
// second time beside core.Config: one by New with every such knob left to
// its default (memory scale 0.01 only keeps the file small), one by
// NewSharded with every knob set — including a switch cooldown of 10, a
// negative opportunity margin, a 64-cell exact-store grid, a trace depth of
// 8 and the strict validation policy, options since removed. No engine can
// match that image any more, so an engine built with its remaining knobs
// refuses it with CodeMismatch. The pr33 image was written by commit 91ab6b6, the last with
// those options, by a 2-shard NewSharded with every remaining fingerprinted
// knob set away from its default: estimators H4096/RSL/RSH, default RSL,
// α 0.3, τ 0.6, β 0.7, accuracy window 50, pre-training 80, memory scale
// 0.01 and seed 42. Each image holds 40 fed objects.
func TestRestoreImagesWrittenBeforePR24(t *testing.T) {
	pr21 := explicitEngine(0)
	defer pr21.Shutdown(context.Background())
	if err := restoreBytes(pr21, loadImage(t, "pr21_explicit_options.lsnp")); PersistCode(err) != CodeMismatch {
		t.Errorf("pr21_explicit_options.lsnp: restore = %v, want CodeMismatch", err)
	}

	for _, file := range []string{"pr21_default_options.lsnp", "pr33_explicit_options.lsnp"} {
		eng := imageEngines[file]()
		defer eng.Shutdown(context.Background())
		if err := restoreBytes(eng, loadImage(t, file)); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		q := SpatialQuery(imageWorld, 40)
		if _, actual := eng.EstimateAndExecute(&q); actual != 40 {
			t.Errorf("%s: restored window counts %d objects, want 40", file, actual)
		}
	}
}

// TestRestoreOneShardImageSharded1x1: before every one-module engine wrote
// the "single" layout, NewSharded(WithShards(1)) wrote kind "sharded:1x1"
// with its sections under "shard-0/" — also what latestd wrote on a
// one-CPU host. The image was written that way by commit 3fca5c9
// (40 fed objects, memory scale 0.01) and restores into every one-module
// constructor.
func TestRestoreOneShardImageSharded1x1(t *testing.T) {
	world, window := imageWorld, imageWindow
	data := loadImage(t, "pr25_sharded1.lsnp")
	for name, eng := range map[string]imageEngine{
		"New":                       MustNew(world, window, WithMemoryScale(0.01)),
		"NewConcurrent":             newConcurrent(t, world, window, WithMemoryScale(0.01)),
		"NewSharded(WithShards(1))": MustNewSharded(world, window, WithShards(1), WithMemoryScale(0.01)),
	} {
		if err := restoreBytes(eng, data); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		q := SpatialQuery(world, 40)
		if _, actual := eng.EstimateAndExecute(&q); actual != 40 {
			t.Errorf("%s: restored window counts %d objects, want 40", name, actual)
		}
		eng.Shutdown(context.Background())
	}
}

// TestRestoredShardPastItsShareLeavesPretraining: the sharded fingerprint
// keeps the engine's pre-training length, not a shard's share of it, so an
// image written when every shard pre-trained on the whole length still
// restores. The image was written that way by commit 2497947: two shards,
// WithPretrainQueries(80), and 60 keyword queries, so each shard had seen 60
// of its 80. Each shard's share is now 40, which both have passed, so the
// next query takes each of them out of pre-training.
func TestRestoredShardPastItsShareLeavesPretraining(t *testing.T) {
	eng := imageEngines["sharded2_pretrain60.lsnp"]()
	defer eng.Shutdown(context.Background())
	if err := restoreBytes(eng, loadImage(t, "sharded2_pretrain60.lsnp")); err != nil {
		t.Fatal(err)
	}
	for i, sh := range eng.PerShardStats().Shards {
		if sh.Core.Phase != PhasePretrain || sh.Core.PretrainSeen != 60 {
			t.Fatalf("shard %d restored in %v with %d pre-training queries seen, want pre-training with 60", i, sh.Core.Phase, sh.Core.PretrainSeen)
		}
	}
	q := KeywordQuery([]string{"kw1"}, 40)
	eng.EstimateAndExecute(&q)
	if p := eng.Phase(); p != PhaseIncremental {
		t.Errorf("engine in %v after one more query, want every shard incremental", p)
	}
}

// TestImagesReencodeToThemselves: every checked-in image predates lattice
// points, so restored and encoded again at the generation in its meta
// section it becomes an image of the current format — window2 sections,
// no float window — once; that image, restored and encoded again, is the
// same bytes, so restoring reads back everything the encoder writes. The
// "sharded:1x1" image re-encodes in the "single" layout, by design.
func TestImagesReencodeToThemselves(t *testing.T) {
	for file, build := range imageEngines {
		data := loadImage(t, file)
		snap, err := persist.DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		_, _, gen, err := readMeta(snap)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		eng := build()
		defer eng.Shutdown(context.Background())
		if err := eng.restoreImage(snap); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		again, err := eng.encodeImage(context.Background(), gen)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if file == "pr25_sharded1.lsnp" {
			resnap, err := persist.DecodeSnapshot(again)
			if err != nil {
				t.Fatal(err)
			}
			if kind, _, regen, _ := readMeta(resnap); kind != "single" || regen != gen {
				t.Errorf("%s re-encodes as kind %q at generation %d, want \"single\" at %d", file, kind, regen, gen)
			}
			continue
		}
		resnap, err := persist.DecodeSnapshot(again)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range resnap.Names() {
			if strings.HasSuffix(name, floatWindowSection) {
				t.Errorf("%s re-encodes with a float window section %q", file, name)
			}
		}
		twin := build()
		defer twin.Shutdown(context.Background())
		if err := restoreBytes(twin, again); err != nil {
			t.Fatalf("%s: re-encoded image refused: %v", file, err)
		}
		fixed, err := twin.encodeImage(context.Background(), gen)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(fixed, again) {
			t.Errorf("%s: the re-encoded image encodes again to %d bytes that differ from its own %d", file, len(fixed), len(again))
		}
	}
}

func TestRestoreFailurePaths(t *testing.T) {
	src := testSystem(t)
	w := newWorkload(10)
	warmEngine(t, src, w)
	image := snapshotImage(t, src)

	t.Run("empty image", func(t *testing.T) {
		err := restoreBytes(testSystem(t), nil)
		if PersistCode(err) != CodeTruncated {
			t.Fatalf("restore of an empty image = %v, want CodeTruncated", err)
		}
	})

	t.Run("corruption", func(t *testing.T) {
		bad := bytes.Clone(image)
		bad[len(bad)/2] ^= 0x40
		err := restoreBytes(testSystem(t), bad)
		if PersistCode(err) != CodeCorrupt {
			t.Fatalf("restore corrupt = %v, want CodeCorrupt", err)
		}
	})

	t.Run("kind mismatch", func(t *testing.T) {
		sh := testSharded(t)
		defer sh.Shutdown(context.Background())
		err := restoreBytes(sh, image)
		if PersistCode(err) != CodeMismatch {
			t.Fatalf("sharded restore of single snapshot = %v, want CodeMismatch", err)
		}
	})

	t.Run("fingerprint mismatch", func(t *testing.T) {
		other := testSystem(t, WithSeed(42))
		err := restoreBytes(other, image)
		if PersistCode(err) != CodeMismatch {
			t.Fatalf("restore under different options = %v, want CodeMismatch", err)
		}
	})

	t.Run("non-fresh receiver", func(t *testing.T) {
		used := testSystem(t)
		uw := newWorkload(11)
		uw.feed(used, 50)
		uw.query(used) // a served query makes the receiver non-fresh
		err := restoreBytes(used, image)
		if PersistCode(err) != CodeState {
			t.Fatalf("restore into used engine = %v, want CodeState", err)
		}
	})
}

func newDurable(t *testing.T, st Store) *DurableEngine {
	t.Helper()
	dur, err := NewDurable(testSystem(t).ShardedSystem, st, DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dur
}

// durOf is the durable layer's one view of itself.
func durOf(d *DurableEngine) *telemetry.DurableSample { return d.TelemetrySnapshot().Durable }

// walRecords counts the records in st's feed-<gen>.wal that recovery would
// replay.
func walRecords(t *testing.T, st Store, gen uint64) int {
	t.Helper()
	data, err := st.Load(persist.WALName(gen))
	if err != nil {
		t.Fatal(err)
	}
	records, _ := persist.ParseWAL(data)
	return len(records)
}

// TestDurableCrashRecovery: feed + query, snapshot, feed a WAL tail, crash
// (abandon without Shutdown), recover — the second incarnation must match a
// control engine that saw the whole stream uninterrupted.
func TestDurableCrashRecovery(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(20)
	warmEngine(t, dur, w)
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.feed(dur, 500) // WAL'd but not snapshotted
	walTS := w.ts

	// Control: same traffic, no crash.
	control := testSystem(t)
	cw := newWorkload(20)
	cw.feed(control, 3000)
	cw.drive(control, 160)
	cw.feed(control, 500)
	if cw.ts != walTS {
		t.Fatalf("control timestamp %d != durable timestamp %d", cw.ts, walTS)
	}

	recovered := newDurable(t, st) // crash: first incarnation abandoned
	if h := durOf(recovered); h.State != telemetry.DurableHealthy || h.ErrorsTotal != 0 {
		t.Fatalf("recovery health = %s with %d errors (%v), want clean healthy", h.State, h.ErrorsTotal, h.LastErrors)
	}
	if got := durOf(recovered).Generation; got != 1 {
		t.Fatalf("generation after recovery = %d, want 1", got)
	}
	a, b := control.Stats(), statsOf(recovered)
	if a.Phase != b.Phase || a.Active != b.Active || a.IncrementalSeen != b.IncrementalSeen {
		t.Fatalf("recovered stats differ from control: %v/%s/%d vs %v/%s/%d",
			a.Phase, a.Active, a.IncrementalSeen, b.Phase, b.Active, b.IncrementalSeen)
	}
	wa, wb := newWorkload(21), newWorkload(21)
	wa.ts, wb.ts = walTS, walTS
	if ta, tb := wa.drive(control, 60), wb.drive(recovered, 60); ta != tb {
		t.Fatal("recovered engine diverges from uninterrupted control")
	}
	if err := recovered.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableWALRotation: each snapshot opens the next generation's WAL
// and removes the superseded one.
func TestDurableWALRotation(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(22)
	w.feed(dur, 100)
	if n := walRecords(t, st, 0); n != 100 {
		t.Fatalf("WAL records = %d, want 100", n)
	}
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	wantWAL := persist.WALName(1)
	var wals []string
	for _, n := range names {
		if strings.HasSuffix(n, ".wal") {
			wals = append(wals, n)
		}
	}
	if len(wals) != 1 || wals[0] != wantWAL {
		t.Fatalf("WALs after rotation = %v, want [%s]", wals, wantWAL)
	}
	if n := walRecords(t, st, 1); n != 0 {
		t.Fatalf("records after rotation = %d, want 0 (fresh WAL)", n)
	}
	if err := dur.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCleanShutdown: Shutdown takes a final snapshot, so a clean
// restart loses nothing — not even un-snapshotted tail feeds.
func TestDurableCleanShutdown(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(23)
	warmEngine(t, dur, w)
	before := statsOf(dur)
	if err := dur.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	reopened := newDurable(t, st)
	defer reopened.Shutdown(context.Background())
	after := statsOf(reopened)
	if before.Phase != after.Phase || before.Active != after.Active ||
		before.IncrementalSeen != after.IncrementalSeen || before.Switches != after.Switches {
		t.Fatalf("state lost across clean shutdown: %+v vs %+v", before.Active, after.Active)
	}
	if durOf(reopened).Generation == 0 {
		t.Fatal("reopened engine did not load the shutdown snapshot")
	}
}

// TestDurableFallbackRecovery: with two retained generations, corrupting
// the newest snapshot must not lose anything — recovery falls back one
// generation and replays both generations' WALs, landing byte-identical
// to an uninterrupted control.
func TestDurableFallbackRecovery(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(26)
	warmEngine(t, dur, w)
	if err := dur.SnapshotNow(context.Background()); err != nil { // gen 1
		t.Fatal(err)
	}
	w.feed(dur, 300)                                              // WAL generation 1
	if err := dur.SnapshotNow(context.Background()); err != nil { // gen 2
		t.Fatal(err)
	}
	w.feed(dur, 200) // WAL generation 2
	crashTS := w.ts

	// Crash, then bit rot eats the newest snapshot generation.
	data, err := st.Load(persist.SnapshotNameFor(2))
	if err != nil {
		t.Fatalf("load gen-2 snapshot: %v", err)
	}
	if err := st.Corrupt(persist.SnapshotNameFor(2), len(data)/2); err != nil {
		t.Fatal(err)
	}

	control := testSystem(t)
	cw := newWorkload(26)
	cw.feed(control, 3000)
	cw.drive(control, 160)
	cw.feed(control, 300)
	cw.feed(control, 200)
	if cw.ts != crashTS {
		t.Fatalf("control timestamp %d != durable timestamp %d", cw.ts, crashTS)
	}

	recovered := newDurable(t, st)
	defer recovered.Shutdown(context.Background())
	h := durOf(recovered)
	if h.State != telemetry.DurableHealthy {
		t.Fatalf("fallback recovery left state %s", h.State)
	}
	if h.ErrorsTotal == 0 {
		t.Fatal("fallback recovery recorded no error for the corrupt generation")
	}
	if h.StoreErrors != 1 {
		t.Fatalf("StoreErrors = %d, want 1 for the skipped snapshot generation", h.StoreErrors)
	}
	if !recovered.stats.recoveredFallback {
		t.Fatal("recoveredFallback not set")
	}
	if got := recovered.stats.recoveredGen; got != 1 {
		t.Fatalf("recovered from generation %d, want 1", got)
	}
	// d.gen must land past the corrupt generation so the next snapshot
	// never reuses its number.
	if got := h.Generation; got != 2 {
		t.Fatalf("generation after fallback = %d, want 2", got)
	}
	wa, wb := newWorkload(27), newWorkload(27)
	wa.ts, wb.ts = crashTS, crashTS
	if ta, tb := wa.drive(control, 60), wb.drive(recovered, 60); ta != tb {
		t.Fatal("fallback-recovered engine diverges from uninterrupted control")
	}
	// The corrupt file was removed so retention never counts it again.
	if _, err := st.Load(persist.SnapshotNameFor(2)); !IsNotExist(err) {
		t.Fatalf("corrupt generation file still present (load err %v)", err)
	}
}

// TestDurableFallbackCommitsItsGeneration: the durable layer's generation is
// the only one. After recovery falls back past a corrupt newest generation,
// the next commit writes its generation into both the file name and the
// meta section.
func TestDurableFallbackCommitsItsGeneration(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(33)
	for range 2 {
		w.feed(dur, 100)
		if err := dur.SnapshotNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	data, err := st.Load(persist.SnapshotNameFor(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Corrupt(persist.SnapshotNameFor(2), len(data)/2); err != nil {
		t.Fatal(err)
	}

	recovered := newDurable(t, st)
	defer recovered.Shutdown(context.Background())
	if !recovered.stats.recoveredFallback {
		t.Fatal("recovery did not fall back")
	}
	if err := recovered.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen := durOf(recovered).Generation
	if data, err = st.Load(persist.SnapshotNameFor(gen)); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, metaGen, err := readMeta(snap); err != nil || metaGen != gen {
		t.Fatalf("%s carries generation %d in its meta section (err %v), want %d",
			persist.SnapshotNameFor(gen), metaGen, err, gen)
	}
}

// loadCounter is a Store that counts Loads per file name.
type loadCounter struct {
	Store
	mu    sync.Mutex
	loads map[string]int
}

func (c *loadCounter) Load(name string) ([]byte, error) {
	c.mu.Lock()
	c.loads[name]++
	c.mu.Unlock()
	return c.Store.Load(name)
}

// TestDurableRecoveryReadsSnapshotOnce: NewDurable reads the snapshot it
// restores once, a numbered generation or an un-numbered snapshot.snap
// seed alike, and hands the decoded image to the engine.
func TestDurableRecoveryReadsSnapshotOnce(t *testing.T) {
	src := testSystem(t)
	newWorkload(34).feed(src, 300)
	image := snapshotImage(t, src)
	for _, file := range []string{persist.SnapshotNameFor(1), persist.SnapshotName} {
		st := &loadCounter{Store: NewMemStore(), loads: make(map[string]int)}
		if err := st.Save(file, image); err != nil {
			t.Fatal(err)
		}
		dur := newDurable(t, st)
		if got := durOf(dur).Generation; got != 1 || !dur.stats.recoveredSnapshot {
			t.Errorf("%s: recovered at generation %d (restored %t), want 1 from the snapshot",
				file, got, dur.stats.recoveredSnapshot)
		}
		if n := st.loads[file]; n != 1 {
			t.Errorf("%s: loaded %d times during recovery, want 1", file, n)
		}
		dur.Shutdown(context.Background())
	}
}

// TestDurableAllGenerationsCorruptRefused: when every retained snapshot
// fails its checksums, startup refuses with the typed corruption error —
// silently starting fresh would be data loss.
func TestDurableAllGenerationsCorruptRefused(t *testing.T) {
	st := NewMemStore()
	dur := newDurable(t, st)
	w := newWorkload(28)
	warmEngine(t, dur, w)
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.feed(dur, 100)
	if err := dur.SnapshotNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []uint64{1, 2} {
		data, err := st.Load(persist.SnapshotNameFor(gen))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Corrupt(persist.SnapshotNameFor(gen), len(data)/2); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewDurable(testSystem(t).ShardedSystem, st, DurableConfig{WALSyncEvery: 1})
	if PersistCode(err) != CodeCorrupt {
		t.Fatalf("recover with all generations corrupt = %v, want CodeCorrupt", err)
	}
}

// TestDurableDegradedRepair drives the state machine directly: a batch
// whose one WAL write fails degrades the engine (serving continues, the
// whole batch counts as dropped), a repair commits a fresh generation and
// re-arms it, and the dropped feeds are in that snapshot — a reopened
// engine has them.
func TestDurableDegradedRepair(t *testing.T) {
	inner := NewMemStore()
	fst := persist.NewFaultStore(inner, persist.FaultRule{Op: persist.FaultAppend, Count: 1})
	fst.SetEnabled(false)
	dur, err := NewDurable(testSystem(t).ShardedSystem, fst, DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkload(29)
	warmEngine(t, dur, w)
	fst.SetEnabled(true)

	w.feedBatch(dur, 10) // one write: it fires the fault and degrades
	h := durOf(dur)
	if h.State != telemetry.DurableDegraded {
		t.Fatalf("state after append fault = %s, want degraded", h.State)
	}
	if h.Degradations != 1 || h.DroppedAppends != 10 || h.WALErrors == 0 {
		t.Fatalf("health after fault = %+v, want 1 degradation, 10 dropped appends", h)
	}
	// Serving continues from memory while degraded.
	if est, _ := w.query(dur); est < 0 {
		t.Fatalf("degraded query estimate = %v", est)
	}

	if err := dur.repair(context.Background()); err != nil {
		t.Fatalf("repair: %v", err)
	}
	h = durOf(dur)
	if h.State != telemetry.DurableHealthy || h.Repairs != 1 || h.RepairAttempts != 1 {
		t.Fatalf("health after repair = %+v, want healthy with 1 repair", h)
	}
	w.feed(dur, 5) // healthy again: these hit the fresh WAL
	if n := walRecords(t, inner, h.Generation); n != 5 {
		t.Fatalf("records after repair = %d, want 5", n)
	}
	crashTS := w.ts

	// Control: the same stream — warm, the 10 feeds that were dropped from
	// the WAL, the degraded-mode query, the 5 post-repair feeds — with no
	// faults anywhere.
	control := testSystem(t)
	cw := newWorkload(29)
	cw.feed(control, 3000)
	cw.drive(control, 160)
	cw.feed(control, 10)
	cw.query(control)
	cw.feed(control, 5)
	if cw.ts != crashTS {
		t.Fatalf("control timestamp %d != durable timestamp %d", cw.ts, crashTS)
	}

	// Crash (abandon) and reopen: the dropped feeds were captured by the
	// repair snapshot, the post-repair feeds by the fresh WAL — nothing
	// acknowledged after the repair is lost.
	fst.SetEnabled(false)
	reopened, err := NewDurable(testSystem(t).ShardedSystem, fst, DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Shutdown(context.Background())
	wa, wb := newWorkload(30), newWorkload(30)
	wa.ts, wb.ts = crashTS, crashTS
	if ta, tb := wa.drive(control, 40), wb.drive(reopened, 40); ta != tb {
		t.Fatal("reopened engine diverges from the uninterrupted control")
	}
}

// TestDurableSeedsFromSideSnapshot: NewDurable over a store holding only
// an older build's un-numbered snapshot.snap seeds from it, reading its
// generation from the meta section. A seeded engine that feeds on and then
// crashes recovers the seed plus its WAL tail, matching an uninterrupted
// control.
func TestDurableSeedsFromSideSnapshot(t *testing.T) {
	src := testSystem(t)
	w := newWorkload(31)
	warmEngine(t, src, w)
	side := NewMemStore()
	if err := side.Save(persist.SnapshotName, snapshotImage(t, src)); err != nil {
		t.Fatal(err)
	}

	seeded := newDurable(t, side)
	if got := durOf(seeded).Generation; got != 1 {
		t.Fatalf("seeded generation = %d, want the seed's 1", got)
	}
	w.feed(seeded, 200) // WAL'd onto the seed, then abandoned without Shutdown
	crashTS := w.ts

	control := testSystem(t)
	cw := newWorkload(31)
	cw.feed(control, 3000)
	cw.drive(control, 160)
	cw.feed(control, 200)
	if cw.ts != crashTS {
		t.Fatalf("control timestamp %d != durable timestamp %d", cw.ts, crashTS)
	}

	inner := testSystem(t)
	reopened, err := NewDurable(inner.ShardedSystem, side, DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Shutdown(context.Background())
	if h := durOf(reopened); h.State != telemetry.DurableHealthy || h.ErrorsTotal != 0 {
		t.Fatalf("reopen health = %s with %d errors (%v), want clean healthy", h.State, h.ErrorsTotal, h.LastErrors)
	}
	if a, b := control.WindowSize(), inner.WindowSize(); a != b {
		t.Fatalf("window size %d after reopen, control %d", b, a)
	}
	wa, wb := newWorkload(32), newWorkload(32)
	wa.ts, wb.ts = crashTS, crashTS
	if ta, tb := wa.drive(control, 60), wb.drive(reopened, 60); ta != tb {
		t.Fatal("engine seeded from snapshot.snap diverges from uninterrupted control")
	}
}
