package latest

import (
	"bytes"
	"context"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/persist"
)

// validation_test.go pins the input-hardening layer: NaN/Inf coordinates,
// inverted and out-of-world rectangles, and timestamp regressions must
// never panic an engine, and the repair/reject split must be visible in
// the validation gauges.

func validationSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithSeed(1), WithPretrainQueries(50), WithAccWindow(40))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestValidationRejectsNonFiniteObjects(t *testing.T) {
	// Clamping repairs what it can, but a non-finite location has no
	// in-world repair, so it is rejected.
	t.Run("clamp", func(t *testing.T) {
		sys := validationSystem(t)
		for _, loc := range []Point{
			Pt(math.NaN(), 0.5),
			Pt(0.5, math.NaN()),
			Pt(math.Inf(1), 0.5),
			Pt(0.5, math.Inf(-1)),
		} {
			sys.FeedBatch([]Object{{ID: 1, Loc: loc, Keywords: []string{"a"}, Timestamp: 10}})
		}
		if n := sys.WindowSize(); n != 0 {
			t.Errorf("%d non-finite objects ingested", n)
		}
		if got := sys.PerShardStats().Shards[0].Gauges.ValidationRejected; got != 4 {
			t.Errorf("ValidationRejected = %d, want 4", got)
		}
	})
}

func TestValidationTimestampRegression(t *testing.T) {
	// The regressed arrival is pulled forward and kept.
	sys := validationSystem(t)
	sys.FeedBatch([]Object{{ID: 1, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 100}})
	sys.FeedBatch([]Object{{ID: 2, Loc: Pt(0.4, 0.4), Keywords: []string{"a"}, Timestamp: 50}})
	if n := sys.WindowSize(); n != 2 {
		t.Errorf("clamp kept %d objects, want 2", n)
	}
	if g := sys.PerShardStats().Shards[0].Gauges; g.ValidationClamped != 1 || g.ValidationRejected != 0 {
		t.Errorf("ValidationClamped = %d, ValidationRejected = %d; want 1, 0", g.ValidationClamped, g.ValidationRejected)
	}
}

func TestValidationQueryPolicies(t *testing.T) {
	feedSome := func(sys *System) int64 {
		rng := rand.New(rand.NewSource(2))
		var ts int64
		for i := 0; i < 500; i++ {
			ts++
			sys.FeedBatch([]Object{{ID: uint64(ts), Loc: Pt(rng.Float64(), rng.Float64()),
				Keywords: []string{"kw"}, Timestamp: ts}})
		}
		return ts
	}

	t.Run("clamp repairs inverted rect in place", func(t *testing.T) {
		sys := validationSystem(t)
		ts := feedSome(sys)
		inverted := Query{Range: Rect{MinX: 0.8, MinY: 0.7, MaxX: 0.2, MaxY: 0.1}, HasRange: true, Timestamp: ts}
		est := sys.Estimate(&inverted)
		if math.IsNaN(est) || est < 0 {
			t.Fatalf("estimate on repaired query = %v", est)
		}
		if inverted.Range.MinX > inverted.Range.MaxX || inverted.Range.MinY > inverted.Range.MaxY {
			t.Errorf("rect not repaired in place: %v", inverted.Range)
		}
		actual := sys.Execute(&inverted)
		canonical := SpatialQuery(Rect{MinX: 0.2, MinY: 0.1, MaxX: 0.8, MaxY: 0.7}, ts)
		if want := sys.shards[0].window.Answer(&canonical); actual != want {
			t.Errorf("repaired exact count %d != canonical %d", actual, want)
		}
		if g := sys.PerShardStats().Shards[0].Gauges; g.ValidationClamped != 1 {
			t.Errorf("ValidationClamped = %d, want 1", g.ValidationClamped)
		}
	})

	t.Run("rejects NaN rects and no-predicate queries", func(t *testing.T) {
		sys := validationSystem(t)
		ts := feedSome(sys)
		bad := []Query{
			{Range: Rect{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}, HasRange: true, Timestamp: ts},
			{Range: Rect{MinX: 0, MinY: 0, MaxX: math.Inf(1), MaxY: 1}, HasRange: true, Timestamp: ts},
			{Timestamp: ts}, // no range, no keywords
			{Range: Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}, HasRange: true, Timestamp: ts}, // empty
		}
		for i := range bad {
			if est, actual := sys.EstimateAndExecute(&bad[i]); est != 0 || actual != 0 {
				t.Errorf("bad query %d answered (%v, %d)", i, est, actual)
			}
		}
		if g := sys.PerShardStats().Shards[0].Gauges; g.ValidationRejected != uint64(len(bad)) {
			t.Errorf("ValidationRejected = %d, want %d", g.ValidationRejected, len(bad))
		}
	})

	t.Run("degenerate rects reject with their exact answer", func(t *testing.T) {
		// A zero-area (point or line) rectangle cannot match any object
		// under the open-interval intersection semantics, and
		// core.Module.Estimate panics on queries Query.Valid deems invalid.
		// Validation therefore rejects them — the reject's 0 is also the
		// exact answer — and the engine must not panic.
		sys := validationSystem(t)
		ts := feedSome(sys)
		for _, r := range []Rect{
			{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}, // point
			{MinX: 0.2, MinY: 0.5, MaxX: 0.8, MaxY: 0.5}, // horizontal line
		} {
			q := Query{Range: r, HasRange: true, Timestamp: ts}
			if est, actual := sys.EstimateAndExecute(&q); est != 0 || actual != 0 {
				t.Errorf("degenerate rect %v answered (%v, %d)", r, est, actual)
			}
			if want := sys.shards[0].window.Answer(&q); want != 0 {
				t.Fatalf("degenerate rect %v matches %d objects; reject is no longer exact", r, want)
			}
		}
		if g := sys.PerShardStats().Shards[0].Gauges; g.ValidationRejected != 2 {
			t.Errorf("ValidationRejected = %d, want 2", g.ValidationRejected)
		}
	})

	t.Run("rejected estimate skips the feedback loop", func(t *testing.T) {
		sys := validationSystem(t)
		ts := feedSome(sys)
		before := sys.Stats().PretrainSeen
		nan := Query{Range: Rect{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}, HasRange: true, Timestamp: ts}
		if est := sys.Estimate(&nan); est != 0 {
			t.Errorf("rejected estimate = %v", est)
		}
		sys.ObserveActual(42) // must be dropped, not trained on
		if after := sys.Stats().PretrainSeen; after != before {
			t.Error("feedback for a rejected query reached the module")
		}
		// The rejection flag must not leak onto the next, valid query.
		good := SpatialQuery(CenteredRect(Pt(0.5, 0.5), 0.4, 0.4), ts)
		sys.Estimate(&good)
		sys.ObserveActual(7)
		if after := sys.Stats().PretrainSeen; after != before+1 {
			t.Error("valid query after a rejected one did not train")
		}
	})
}

func TestValidationShardedRouting(t *testing.T) {
	sys, err := NewSharded(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithShards(4), WithSeed(3), WithPretrainQueries(30), WithAccWindow(20))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())

	// NaN locations must not break shard routing; they are rejected by the
	// shard they route to and the reject shows up in the merged gauges.
	sys.FeedBatch([]Object{{ID: 1, Loc: Pt(math.NaN(), math.NaN()), Keywords: []string{"a"}, Timestamp: 1}})
	sys.FeedBatch([]Object{{ID: 2, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 2}})
	if n := sys.WindowSize(); n != 1 {
		t.Errorf("window holds %d objects, want 1", n)
	}
	var rejected uint64
	for _, sh := range sys.PerShardStats().Shards {
		rejected += sh.Gauges.ValidationRejected
	}
	if rejected != 1 {
		t.Errorf("merged ValidationRejected = %d, want 1", rejected)
	}

	// An inverted rect is repaired before routing, so it reaches the shards
	// it actually covers instead of silently matching none.
	inverted := Query{Range: Rect{MinX: 0.9, MinY: 0.9, MaxX: 0.1, MaxY: 0.1}, HasRange: true, Timestamp: 3}
	if est, actual := sys.EstimateAndExecute(&inverted); actual != 1 {
		t.Errorf("inverted rect over the whole world found (%v, %d), want actual 1", est, actual)
	}

	// A NaN rect is rejected before routing.
	nan := Query{Range: Rect{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}, HasRange: true, Timestamp: 4}
	if est, actual := sys.EstimateAndExecute(&nan); est != 0 || actual != 0 {
		t.Errorf("NaN rect answered (%v, %d)", est, actual)
	}
}

// TestValidationOutOfWorldRange: a range wholly outside the world is not
// rejected: it is clamped onto the world as objects are, so every
// constructor — New through the split Estimate and Execute too — counts
// the object clamped into the world's corner under it, spends one training
// record on the query and counts no reject.
func TestValidationOutOfWorldRange(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	type answer func(*Query) (float64, int)
	for name, build := range map[string]func(...Option) (*ShardedSystem, answer){
		"New": func(opts ...Option) (*ShardedSystem, answer) {
			s := MustNew(world, 10*time.Second, opts...)
			return s.ShardedSystem, s.EstimateAndExecute
		},
		"New split": func(opts ...Option) (*ShardedSystem, answer) {
			s := MustNew(world, 10*time.Second, opts...)
			return s.ShardedSystem, func(q *Query) (float64, int) {
				est := s.Estimate(q)
				return est, s.Execute(q)
			}
		},
		"NewConcurrent": func(opts ...Option) (*ShardedSystem, answer) {
			s := newConcurrent(t, world, 10*time.Second, opts...)
			return s, s.EstimateAndExecute
		},
		"NewSharded(1)": func(opts ...Option) (*ShardedSystem, answer) {
			s := MustNewSharded(world, 10*time.Second, append(opts, WithShards(1))...)
			return s, s.EstimateAndExecute
		},
		"NewSharded(4)": func(opts ...Option) (*ShardedSystem, answer) {
			s := MustNewSharded(world, 10*time.Second, append(opts, WithShards(4))...)
			return s, s.EstimateAndExecute
		},
	} {
		eng, answer := build(WithSeed(1))
		eng.FeedBatch([]Object{{ID: 1, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 1}})
		eng.FeedBatch([]Object{{ID: 2, Loc: Pt(9, 9), Keywords: []string{"a"}, Timestamp: 1}})
		outside := SpatialQuery(Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, 1)
		_, actual := answer(&outside)
		var rejected uint64
		for _, sh := range eng.PerShardStats().Shards {
			rejected += sh.Gauges.ValidationRejected
		}
		if seen := eng.Stats().PretrainSeen; actual != 1 || seen != 1 || rejected != 0 {
			t.Errorf("%s: answered %d, PretrainSeen %d, ValidationRejected %d; want 1, 1, 0",
				name, actual, seen, rejected)
		}
		eng.Shutdown(context.Background())
	}
}

// TestOutOfWorldObjectCountedWhereItLies: an object beyond the world is
// kept where its location clamps, on the world's edge, and the exact
// answer counts it there. A range reaching past that edge holds (0.95,
// 0.5) and (5, 0.5); one that stops short of the edge's lattice column
// holds only (0.95, 0.5); on the spatial path and the hybrid one alike.
func TestOutOfWorldObjectCountedWhereItLies(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	for _, shards := range []int{1, 4} {
		s := MustNewSharded(world, 10*time.Second, WithSeed(1), WithShards(shards))
		s.FeedBatch([]Object{{ID: 1, Loc: Pt(5, 0.5), Keywords: []string{"a"}, Timestamp: 1}})
		s.FeedBatch([]Object{{ID: 2, Loc: Pt(0.95, 0.5), Keywords: []string{"a"}, Timestamp: 1}})
		for _, tc := range []struct {
			r    Rect
			want int
		}{
			{Rect{MinX: 0.9, MinY: 0, MaxX: 2, MaxY: 1}, 2},
			{Rect{MinX: 0.9, MinY: 0, MaxX: 0.99, MaxY: 1}, 1},
		} {
			for _, q := range []Query{SpatialQuery(tc.r, 1), HybridQuery(tc.r, []string{"a"}, 1)} {
				if _, actual := s.EstimateAndExecute(&q); actual != tc.want {
					t.Errorf("%d shards, %v over %v: actual %d, want %d", shards, q.Type(), tc.r, actual, tc.want)
				}
			}
		}
		s.Shutdown(context.Background())
	}
}

func TestValidationRejectedObjectDoesNotPoisonClock(t *testing.T) {
	// Regression: the concurrent and sharded wrappers used to advance their
	// timestamp high-water mark before validation ran, so a rejected object
	// (NaN coordinates) carrying a garbage timestamp permanently poisoned
	// the stream clock and every subsequent valid object was clamped
	// forward to it. The high-water mark must advance only on acceptance.
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	poison := Object{ID: 1, Loc: Pt(math.NaN(), 0.5), Keywords: []string{"a"}, Timestamp: 1 << 50}
	valid := Object{ID: 2, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 2000}
	check := func(t *testing.T, name string, g GaugeSnapshot, size int) {
		t.Helper()
		if size != 1 {
			t.Errorf("%s: window holds %d objects, want 1", name, size)
		}
		if g.ValidationRejected != 1 {
			t.Errorf("%s: ValidationRejected = %d, want 1", name, g.ValidationRejected)
		}
		if g.Reordered != 0 || g.ValidationClamped != 0 {
			t.Errorf("%s: valid object clamped to poisoned clock (reordered %d, clamped %d)",
				name, g.Reordered, g.ValidationClamped)
		}
	}

	t.Run("inline", func(t *testing.T) {
		sys := validationSystem(t)
		sys.FeedBatch([]Object{poison})
		sys.FeedBatch([]Object{valid})
		check(t, "inline", sys.PerShardStats().Shards[0].Gauges, sys.WindowSize())
	})

	t.Run("concurrent", func(t *testing.T) {
		sys, err := NewConcurrent(world, 10*time.Second, WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown(context.Background())
		sys.FeedBatch([]Object{poison})
		sys.FeedBatch([]Object{valid})
		check(t, "concurrent", sys.PerShardStats().Shards[0].Gauges, sys.WindowSize())
	})

	t.Run("sharded", func(t *testing.T) {
		sys, err := NewSharded(world, 10*time.Second, WithShards(1), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown(context.Background())
		sys.FeedBatch([]Object{poison})
		sys.FeedBatch([]Object{valid})
		var g GaugeSnapshot
		for _, sh := range sys.PerShardStats().Shards {
			g.ValidationRejected += sh.Gauges.ValidationRejected
			g.ValidationClamped += sh.Gauges.ValidationClamped
			g.Reordered += sh.Gauges.Reordered
		}
		check(t, "sharded", g, sys.WindowSize())
	})
}

// TestValidationClampCountedOneWay: one regressed arrival reads the same on
// every constructor — one ValidationClamped, one Reordered, the object kept
// — and the repair never reaches the caller's slice.
func TestValidationClampCountedOneWay(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	batch := func() []Object {
		return []Object{
			{ID: 1, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 100},
			{ID: 2, Loc: Pt(0.4, 0.4), Keywords: []string{"a"}, Timestamp: 50},
		}
	}
	for name, eng := range map[string]*ShardedSystem{
		"New":           validationSystem(t).ShardedSystem,
		"NewConcurrent": newConcurrent(t, world, 10*time.Second, WithSeed(1)),
		"NewSharded":    MustNewSharded(world, 10*time.Second, WithSeed(1), WithShards(1)),
	} {
		t.Run(name, func(t *testing.T) {
			defer eng.Shutdown(context.Background())
			objs := batch()
			eng.FeedBatch(objs)
			g, size := eng.PerShardStats().Shards[0].Gauges, eng.WindowSize()
			if g.ValidationClamped != 1 || g.Reordered != 1 || size != 2 {
				t.Errorf("ValidationClamped %d, Reordered %d, window %d; want 1, 1, 2",
					g.ValidationClamped, g.Reordered, size)
			}
			if objs[1].Timestamp != 50 {
				t.Errorf("caller's slice modified: timestamp %d, want 50", objs[1].Timestamp)
			}
		})
	}
}

// TestValidationLogsRejects: every reject — object or query — is logged
// at warn level; a repair is counted, not logged.
func TestValidationLogsRejects(t *testing.T) {
	var buf strings.Builder
	sys, err := New(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
		WithSeed(1), WithLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))))
	if err != nil {
		t.Fatal(err)
	}
	sys.FeedBatch([]Object{{ID: 1, Loc: Pt(0.5, 0.5), Keywords: []string{"a"}, Timestamp: 5}})
	sys.FeedBatch([]Object{{ID: 2, Loc: Pt(0.4, 0.4), Keywords: []string{"a"}, Timestamp: 1}})
	if buf.Len() != 0 {
		t.Errorf("clamped arrival logged: %q", buf.String())
	}
	sys.FeedBatch([]Object{{ID: 3, Loc: Pt(math.NaN(), 0.5), Keywords: []string{"a"}, Timestamp: 6}})
	q := Query{Timestamp: 6}
	sys.EstimateAndExecute(&q)
	for _, want := range []string{"object rejected: non-finite coordinates", "query rejected: no predicates"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("reject %q not logged: %q", want, buf.String())
		}
	}
}

// TestLogLinesNameTheirComponent: on a 2-shard durable engine whose WAL
// appends all fail, a rejected object is logged by the shard that owns it
// and the degrade by the durable layer. An engine given a nil logger, or
// none, takes the same input without panicking and writes nothing, not
// even to the process's default logger.
func TestLogLinesNameTheirComponent(t *testing.T) {
	// Two shards split the unit square at x = 0.5; a non-finite y still
	// routes by x.
	bad := []Object{
		{ID: 1, Loc: Pt(0.25, math.NaN()), Keywords: []string{"a"}, Timestamp: 1},
		{ID: 2, Loc: Pt(0.75, math.Inf(1)), Keywords: []string{"a"}, Timestamp: 2},
	}
	feed := func(t *testing.T, l *slog.Logger, opts ...Option) {
		t.Helper()
		eng, err := NewSharded(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10*time.Second,
			append(opts, WithShards(2), WithSeed(1))...)
		if err != nil {
			t.Fatal(err)
		}
		store := persist.NewFaultStore(NewMemStore(), persist.FaultRule{Op: persist.FaultAppend})
		dur, err := NewDurable(eng, store, DurableConfig{Log: l, RepairBackoff: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range bad {
			dur.FeedBatch([]Object{o})
		}
		if st := dur.Health().State; st != DurableDegraded {
			t.Errorf("durability %v after failed appends, want degraded", st)
		}
		for i, sh := range eng.TelemetrySnapshot().Shards {
			if sh.ValidationRejected != 1 {
				t.Errorf("shard %d rejected %d objects, want 1", i, sh.ValidationRejected)
			}
		}
		dur.Shutdown(context.Background())
	}

	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	feed(t, l, WithLogger(l))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, want := range []string{
		`level=WARN msg="object rejected: non-finite coordinates" component=shard-0 id=1 `,
		`level=WARN msg="object rejected: non-finite coordinates" component=shard-1 id=2 `,
		`level=WARN msg="durability degraded; serving continues from memory" component=durable op=`,
	} {
		found := false
		for _, line := range lines {
			found = found || (strings.HasPrefix(line, "time=") && strings.Contains(line, want))
		}
		if !found {
			t.Errorf("no line holds %q:\n%s", want, buf.String())
		}
	}

	// A component that fell back on the default logger would write here.
	var stray bytes.Buffer
	func() {
		prev, prevOut, prevFlags := slog.Default(), log.Writer(), log.Flags()
		slog.SetDefault(slog.New(slog.NewTextHandler(&stray, nil)))
		defer func() {
			slog.SetDefault(prev)
			log.SetOutput(prevOut)
			log.SetFlags(prevFlags)
		}()
		feed(t, nil, WithLogger(nil))
		feed(t, nil)
	}()
	if strings.Contains(stray.String(), "rejected") || strings.Contains(stray.String(), "durability") {
		t.Errorf("an engine without a logger wrote:\n%s", stray.String())
	}
}

func TestOptionValidationErrors(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		name string
		opts []Option
		win  time.Duration
		want string
	}{
		{"sub-millisecond window", nil, 500 * time.Microsecond, "at least 1ms"},
		{"negative acc window", []Option{WithAccWindow(-5)}, time.Second, "AccWindow"},
		{"NaN tau", []Option{WithTau(math.NaN())}, time.Second, "Tau"},
		{"Inf alpha", []Option{WithAlpha(math.Inf(1))}, time.Second, "Alpha"},
		{"negative memory scale", []Option{WithMemoryScale(-2)}, time.Second, "MemoryScale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(world, tc.win, tc.opts...); err == nil {
				t.Fatalf("accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The same guardrails cover the concurrent and sharded constructors.
	if _, err := NewConcurrent(world, 500*time.Microsecond); err == nil {
		t.Error("concurrent accepted sub-millisecond window")
	}
	if _, err := NewSharded(world, 500*time.Microsecond, WithShards(2)); err == nil {
		t.Error("sharded accepted sub-millisecond window")
	}
}

func TestMustConstructors(t *testing.T) {
	world := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	MustNew(world, time.Second)
	MustNewSharded(world, time.Second, WithShards(2)).Shutdown(context.Background())
	for _, build := range []func(){
		func() { MustNew(world, 0) },
		func() { MustNewSharded(world, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Must constructor did not panic on invalid config")
				}
			}()
			build()
		}()
	}
}
