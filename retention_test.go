package latest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestFeedDoesNotRetainCallerSlices: an engine copies what it keeps. A
// producer that builds every batch in the same Object and keyword arrays,
// and overwrites them as soon as FeedBatch returns, leaves the engine in
// the state of a twin fed fresh slices: the same exact counts on keyword
// and hybrid queries, which are also a brute-force scan's, and the same
// snapshot, byte for byte. The stream outlasts the window, so evictions
// read the engine's own copy too, and it stays inside pre-training, where
// every summary of the fleet is fed.
func TestFeedDoesNotRetainCallerSlices(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	const window = 10 * time.Second
	opts := []Option{WithPretrainQueries(400), WithAccWindow(60), WithSeed(1),
		WithLatencyModel(func(string, *Query, time.Duration) time.Duration { return 50 * time.Microsecond })}
	builders := map[string]func() (imageEngine, error){
		"New":           func() (imageEngine, error) { return New(world, window, opts...) },
		"NewConcurrent": func() (imageEngine, error) { return NewConcurrent(world, window, opts...) },
		"NewSharded4": func() (imageEngine, error) {
			return NewSharded(world, window, append(opts[:len(opts):len(opts)], WithShards(4))...)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			engine := func() imageEngine {
				eng, err := build()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Shutdown(context.Background()) })
				return eng
			}
			reusing, twin := engine(), engine()

			const batchLen, batches = 400, 12
			rng := rand.New(rand.NewSource(5))
			var (
				all   []Object // every object fed, with its own keyword slice
				batch = make([]Object, batchLen)
				kwbuf = make([]string, 3*batchLen)
				ts    int64
			)
			for b := 0; b < batches; b++ {
				fresh := make([]Object, batchLen)
				next := kwbuf
				for i := range fresh {
					ts += 3 // 14.4 s of stream against a 10 s window
					kws := make([]string, rng.Intn(4))
					for k := range kws {
						kws[k] = fmt.Sprintf("kw%d", rng.Intn(12))
					}
					if len(kws) == 3 && rng.Intn(2) == 0 {
						kws[2], kws[1] = kws[0], "" // a repeat and the empty word
					}
					fresh[i] = Object{ID: uint64(ts), Loc: Pt(rng.Float64(), rng.Float64()), Keywords: kws, Timestamp: ts}
					batch[i] = fresh[i]
					batch[i].Keywords, next = next[:len(kws):len(kws)], next[len(kws):]
					copy(batch[i].Keywords, kws)
				}
				all = append(all, fresh...)
				twin.FeedBatch(fresh)
				reusing.FeedBatch(batch)
				for i := range kwbuf {
					kwbuf[i] = "scribbled"
				}
				clear(batch)

				for k := 0; k < 6; k++ {
					r := CenteredRect(Pt(rng.Float64(), rng.Float64()), 0.2+rng.Float64()*0.6, 0.2+rng.Float64()*0.6)
					kws := []string{fmt.Sprintf("kw%d", rng.Intn(12)), "", "scribbled"}[:1+k%3]
					q := KeywordQuery(kws, ts)
					if k%2 == 1 {
						q = HybridQuery(r, kws, ts)
					}
					want := 0
					for i := range all {
						if all[i].Timestamp >= ts-window.Milliseconds() && q.Matches(&all[i]) {
							want++
						}
					}
					q2 := q
					gotEst, got := reusing.EstimateAndExecute(&q)
					twinEst, twinGot := twin.EstimateAndExecute(&q2)
					if got != want || twinGot != want || gotEst != twinEst {
						t.Fatalf("batch %d, %v: counted %d (estimate %v), twin %d (estimate %v), brute force %d",
							b, q, got, gotEst, twinGot, twinEst, want)
					}
				}
			}
			if p := statsOf(reusing).Phase; p == PhaseIncremental {
				t.Fatal("the run left pre-training: idle summaries were not fed")
			}
			if a, b := snapshotImage(t, reusing), snapshotImage(t, twin); !bytes.Equal(a, b) {
				t.Errorf("snapshot after the caller reused its slices differs from the twin's (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}
