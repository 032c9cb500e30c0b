package server

import (
	"context"
	"slices"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/wire"
)

// boomEstimator is H4096 that panics on every object and every query
// carrying the keyword "boom".
type boomEstimator struct{ estimator.Estimator }

func (b boomEstimator) Insert(o *stream.Object) {
	if slices.Contains(o.Keywords, "boom") {
		panic("boom: insert")
	}
	b.Estimator.Insert(o)
}

func (b boomEstimator) Estimate(q *stream.Query) float64 {
	if slices.Contains(q.Keywords, "boom") {
		panic("boom: estimate")
	}
	return b.Estimator.Estimate(q)
}

// TestEstimatorPanicFailsOneRequest pins the one rule for a panic inside
// an estimator: it fails the request that hit it with CodeInternal, and
// nothing else. The engine is a 2-shard durable engine whose estimators
// panic on chosen inputs, served over TCP. After a panicking
// query, single-shard or fanned out, the next query on the same shard is
// answered (no lock left held, no pending estimate left behind), through
// pre-training and into the incremental phase; after a panicking feed,
// the next durable feed returns.
func TestEstimatorPanicFailsOneRequest(t *testing.T) {
	// Both fleet members panic, so the rule holds whichever one a shard's
	// switch leaves active.
	base := estimator.DefaultRegistry()
	boom := func(p estimator.Params) estimator.Estimator {
		e, err := base.Build(estimator.NameH4096, p)
		if err != nil {
			panic(err)
		}
		return boomEstimator{e}
	}
	reg := estimator.NewRegistry()
	reg.Register("BOOM", boom)
	reg.Register(estimator.NameH4096, boom)

	world := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	const pretrain = 20
	eng, err := latest.NewSharded(world, time.Minute,
		latest.WithShards(2),
		latest.WithRegistry(reg),
		latest.WithEstimators("BOOM", estimator.NameH4096),
		latest.WithDefaultEstimator("BOOM"),
		latest.WithPretrainQueries(pretrain),
		latest.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := latest.NewDurable(eng, latest.NewMemStore(), latest.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Shutdown(context.Background()) })
	srv := startServer(t, dur, Config{})
	rc := dialRaw(t, srv.Addr())

	var id, ts uint64
	obj := func(x, y float64, kw string) stream.Object {
		ts++
		o := stream.Object{ID: ts, Timestamp: int64(ts), Keywords: []string{kw}}
		o.Loc.X, o.Loc.Y = x, y
		return o
	}
	feed := func(objs ...stream.Object) (wire.Header, []byte) {
		id++
		rc.write(wire.AppendFeedBatch(nil, id, objs))
		return rc.read()
	}
	wantInternal := func(what string) {
		t.Helper()
		if _, re := rc.readErr(); re.Code != wire.CodeInternal {
			t.Fatalf("%s: code %v, want CodeInternal", what, re.Code)
		}
	}
	var objs []stream.Object
	for i := 0; i < 400; i++ {
		objs = append(objs, obj(float64(i%20)/20+0.01, float64(i/20)/20+0.01, "calm"))
	}
	if h, _ := feed(objs...); h.Type != wire.TAck {
		t.Fatalf("warm-up feed answered %v", h.Type)
	}

	// One shard's rectangle, shrunk so the query touches no other shard,
	// and the whole world, which every shard must answer.
	r := eng.ShardRects()[0]
	inShard := geo.Rect{MinX: r.MinX + 0.01, MinY: r.MinY + 0.01, MaxX: r.MaxX - 0.01, MaxY: r.MaxY - 0.01}
	for rng, want := range map[geo.Rect]int{inShard: 1, world: 2} {
		n := 0
		for _, s := range eng.ShardRects() {
			if s.Intersects(rng) {
				n++
			}
		}
		if n != want {
			t.Fatalf("query range %v touches %d shards, want %d", rng, n, want)
		}
	}
	query := func(rng geo.Rect, kw string) {
		t.Helper()
		ts++
		q := stream.HybridQ(rng, []string{kw}, int64(ts))
		id++
		rc.write(wire.AppendEstimate(nil, id, 0, &q))
		if kw == "boom" {
			wantInternal("panicking query")
			return
		}
		h, payload := rc.read()
		if h.Type != wire.TEstimateResult {
			t.Fatalf("query after a panic answered %v", h.Type)
		}
		if _, err := wire.DecodeEstimateResult(payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*pretrain; i++ {
		for _, rng := range []geo.Rect{inShard, world} {
			query(rng, "boom")
			query(rng, "calm")
		}
	}
	if got := eng.Phase(); got != latest.PhaseIncremental {
		t.Fatalf("engine still in %v after %d answered queries", got, 6*pretrain)
	}

	// An Insert panic fails its feed; the next feeds, direct and served,
	// still return, and the shard still answers.
	h, payload := feed(obj(0.5, 0.5, "boom"))
	if h.Type != wire.TError {
		t.Fatalf("panicking feed answered %v", h.Type)
	}
	if re, err := wire.DecodeError(payload); err != nil || re.Code != wire.CodeInternal {
		t.Fatalf("panicking feed: %v %v", re, err)
	}
	done := make(chan struct{})
	go func() {
		dur.FeedBatch([]latest.Object{obj(0.5, 0.5, "calm")})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("durable feed after an Insert panic never returned")
	}
	if h, _ := feed(obj(0.25, 0.25, "calm")); h.Type != wire.TAck {
		t.Fatalf("served feed after an Insert panic answered %v", h.Type)
	}
	query(world, "calm")
	query(inShard, "calm")
}
