package latest

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/persist"
)

// fuzz_test.go drives the public ingest and query paths with arbitrary
// float64 coordinates, rectangle corners and timestamps. The contract: no
// input may panic the engine, and every estimate the engine does emit is
// finite and non-negative. FuzzRestoreImage feeds the image decoder
// arbitrary bytes.

// fuzzEngine is one engine under fuzz, named for failure messages.
type fuzzEngine struct {
	name string
	Engine
}

// fuzzWorlds builds a small System, a NewConcurrent engine and a 4-shard
// NewSharded engine — the last two share the shard code, so hostile floats
// reach shardOf and targets as well as the module. Engines are
// deliberately shared across iterations of a fuzz target: accumulated state
// (clamped clocks, evicted windows, phase transitions) is part of the
// surface being fuzzed.
func fuzzWorlds(f *testing.F) []fuzzEngine {
	f.Helper()
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	opts := []Option{WithSeed(7), WithPretrainQueries(20), WithAccWindow(10)}
	sys, err := New(world, 10*time.Second, opts...)
	if err != nil {
		f.Fatal(err)
	}
	conc, err := NewConcurrent(world, 10*time.Second, opts...)
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := NewSharded(world, 10*time.Second, append(opts, WithShards(4))...)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { conc.Shutdown(context.Background()) })
	f.Cleanup(func() { sharded.Shutdown(context.Background()) })
	return []fuzzEngine{{"System", sys}, {"NewConcurrent", conc}, {"NewSharded(4)", sharded}}
}

func FuzzFeed(f *testing.F) {
	f.Add(0.5, 0.5, int64(10))
	f.Add(math.NaN(), 0.5, int64(20))
	f.Add(0.5, math.Inf(1), int64(30))
	f.Add(math.Inf(-1), math.Inf(1), int64(-40))
	f.Add(1e308, -1e308, int64(math.MaxInt64))
	f.Add(0.25, 0.75, int64(math.MinInt64))
	f.Add(math.SmallestNonzeroFloat64, -0.0, int64(0))
	f.Add(0.5, 0.5, int64(41)) // a word repeated inside the object, around the empty word

	systems := fuzzWorlds(f)
	var id uint64
	f.Fuzz(func(t *testing.T, x, y float64, ts int64) {
		id++
		for _, sys := range systems {
			sys.FeedBatch([]Object{{ID: id, Loc: Pt(x, y), Keywords: fuzzKeywords(ts), Timestamp: ts}})
			// Benign probe queries after every ingest: whatever the feed
			// did to internal state, the query path must stay finite.
			r := Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}
			for _, probe := range []Query{SpatialQuery(r, ts), KeywordQuery([]string{"", "fz"}, ts), HybridQuery(r, []string{"fz", "fz"}, ts)} {
				est, actual := sys.EstimateAndExecute(&probe)
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("%s: estimate %v for %v after feeding (%v,%v,%d)", sys.name, est, probe, x, y, ts)
				}
				if actual < 0 {
					t.Fatalf("%s: exact count %d for %v", sys.name, actual, probe)
				}
			}
		}
	})
}

// fuzzKeywords picks an object's keyword list by the low bits of its
// timestamp — one word, a word repeated around the empty word, none, two
// words — so that the fuzzer reaches them through the signature the
// checked-in corpus is written for.
func fuzzKeywords(ts int64) []string {
	return [][]string{{"fz"}, {"fz", "", "fz"}, nil, {"", "zf"}}[ts&3]
}

func FuzzEstimate(f *testing.F) {
	f.Add(0.2, 0.2, 0.8, 0.8, int64(10))
	f.Add(0.8, 0.8, 0.2, 0.2, int64(20)) // inverted
	f.Add(math.NaN(), 0.0, 1.0, 1.0, int64(30))
	f.Add(0.0, 0.0, math.Inf(1), 1.0, int64(40))
	f.Add(-5.0, -5.0, 5.0, 5.0, int64(50)) // world-swallowing
	f.Add(0.5, 0.5, 0.5, 0.5, int64(60))   // empty
	f.Add(1e308, 1e308, -1e308, -1e308, int64(math.MaxInt64))
	f.Add(0.1, 0.9, 0.2, math.Inf(-1), int64(math.MinInt64))

	systems := fuzzWorlds(f)
	for _, sys := range systems {
		for i := int64(1); i <= 64; i++ {
			sys.FeedBatch([]Object{{ID: uint64(i), Loc: Pt(float64(i%8)/8, float64(i%5)/5),
				Keywords: []string{"fz"}, Timestamp: i}})
		}
	}
	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY float64, ts int64) {
		for _, sys := range systems {
			q := Query{Range: Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
				HasRange: true, Timestamp: ts}
			est, actual := sys.EstimateAndExecute(&q)
			if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
				t.Fatalf("%s: estimate %v for rect (%v,%v,%v,%v,%d)",
					sys.name, est, minX, minY, maxX, maxY, ts)
			}
			if actual < 0 {
				t.Fatalf("%s: exact count %d", sys.name, actual)
			}
		}
	})
}

// FuzzRestoreImage: recovery reads images it has no reason to trust.
// Decoding one and restoring it into a fresh engine — built with the
// options whose fingerprint its meta section carries, when one of the
// testdata/persist writers matches — fails with a typed persist error or
// succeeds. A restored engine's image, encoded at the generation in the
// meta section, restores into a second fresh engine that encodes the same
// bytes. A mutated image almost never keeps its CRCs, so every input is
// also tried with the file's and the meta section's resealed; that is what
// lets mutation reach the meta section and the section wiring behind the
// checksums. The shard sections keep their own CRCs: their payloads have
// fuzz targets of their own (FuzzWindowLoadState, FuzzModuleLoadState),
// and a reservoir restores its RNG position by replaying as many draws as
// the payload says, which only those CRCs bound.
func FuzzRestoreImage(f *testing.F) {
	files := make([]string, 0, len(imageEngines))
	for file := range imageEngines {
		files = append(files, file)
	}
	slices.Sort(files)
	builders := make([]func() *ShardedSystem, len(files))
	fingerprints := make([][]byte, len(files))
	for i, file := range files {
		builders[i] = imageEngines[file]
		fingerprints[i] = builders[i]().fingerprint
		f.Add(loadImage(f, file))
	}
	f.Add(loadImage(f, "pr21_explicit_options.lsnp"))
	// Fresh 1-shard and 2-shard images, past pre-training.
	for _, file := range []string{"pr21_default_options.lsnp", "sharded2_pretrain60.lsnp"} {
		eng := imageEngines[file]()
		w := newWorkload(36)
		w.feed(eng, 400)
		w.drive(eng, 100)
		f.Add(snapshotImage(f, eng))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, resealImage(data)} {
			snap, err := persist.DecodeSnapshot(img)
			if err != nil {
				if PersistCode(err) == 0 {
					t.Fatalf("decode: untyped error %v", err)
				}
				continue
			}
			_, fp, gen, _ := readMeta(snap)
			build := builders[max(0, slices.IndexFunc(fingerprints, func(b []byte) bool { return bytes.Equal(b, fp) }))]
			eng := build()
			if err := eng.restoreImage(snap); err != nil {
				if PersistCode(err) == 0 {
					t.Fatalf("restore: untyped error %v", err)
				}
				continue
			}
			first, err := eng.encodeImage(context.Background(), gen)
			if err != nil {
				t.Fatal(err)
			}
			twin := build()
			if err := restoreBytes(twin, first); err != nil {
				t.Fatalf("re-encoded image refused: %v", err)
			}
			second, err := twin.encodeImage(context.Background(), gen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-encoded image restores to an engine that encodes %d different bytes (was %d)", len(second), len(first))
			}
		}
	})
}

// resealImage recomputes the meta section's CRC and then the file's in an
// LSNP container, and returns data unchanged where the framing does not
// parse.
func resealImage(data []byte) []byte {
	if len(data) < 14 {
		return data
	}
	out := bytes.Clone(data)
	body := out[:len(out)-4]
	off := 10 // magic, version, section count
	for n := binary.LittleEndian.Uint32(body[6:]); n > 0; n-- {
		if off+2 > len(body) {
			return data
		}
		name := off + 2
		off = name + int(binary.LittleEndian.Uint16(body[off:]))
		if off+4 > len(body) {
			return data
		}
		size := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if size > len(body)-off-4 {
			return data
		}
		if string(body[name:off-4]) == metaSectionName {
			binary.LittleEndian.PutUint32(body[off+size:], crc32.ChecksumIEEE(body[off:off+size]))
		}
		off += size + 4
	}
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}
