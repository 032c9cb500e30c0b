package latest_test

import (
	"context"
	"fmt"
	"time"

	"github.com/spatiotext/latest"
)

// ExampleNew demonstrates the full feedback loop on a tiny deterministic
// stream: ingest, estimate, execute, and inspect the adaptor.
func ExampleNew() {
	sys, err := latest.New(
		latest.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		time.Minute,
		latest.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}

	// Ten objects: five tagged "fire" clustered in the south-west, five
	// tagged "food" in the north-east.
	feedDemoStream(sys)

	// How many "fire" objects in the south-west quadrant?
	q := latest.HybridQuery(latest.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}, []string{"fire"}, 10)
	estimate := sys.Estimate(&q) // approximate, via the active estimator
	actual := sys.Execute(&q)    // exact, and feeds the switching model

	fmt.Printf("estimate: %.0f\n", estimate)
	fmt.Printf("actual: %d\n", actual)
	fmt.Printf("window size: %d\n", sys.WindowSize())
	fmt.Printf("active estimator: %s\n", sys.ActiveEstimator())
	fmt.Printf("phase: %v\n", sys.Phase())
	// Output:
	// estimate: 5
	// actual: 5
	// window size: 10
	// active estimator: RSH
	// phase: pretrain
}

// ExampleKeywordQuery shows a pure distinct-value query (no spatial
// predicate).
func ExampleKeywordQuery() {
	q := latest.KeywordQuery([]string{"fire", "rescue"}, 42)
	fmt.Println(q.Type())
	fmt.Println(q.HasRange)
	// Output:
	// keyword
	// false
}

// feedDemoStream feeds the ten-object demo stream the examples share:
// five "fire" objects clustered south-west, five "food" north-east.
func feedDemoStream(eng latest.Engine) {
	objs := make([]latest.Object, 10)
	for i := 0; i < 5; i++ {
		objs[i] = latest.Object{
			ID: uint64(i), Loc: latest.Pt(2+float64(i)*0.1, 2),
			Keywords: []string{"fire"}, Timestamp: int64(i),
		}
	}
	for i := 5; i < 10; i++ {
		objs[i] = latest.Object{
			ID: uint64(i), Loc: latest.Pt(8, 8+float64(i-5)*0.1),
			Keywords: []string{"food"}, Timestamp: int64(i),
		}
	}
	eng.FeedBatch(objs)
}

// ExampleNewConcurrent builds the one-shard ShardedSystem — one module
// behind one mutex, the same estimator behaviour as New, safe for
// concurrent producers — and runs one query through the combined
// estimate-then-execute feedback call.
func ExampleNewConcurrent() {
	eng, err := latest.NewConcurrent(
		latest.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		time.Minute,
		latest.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	defer eng.Shutdown(context.Background())

	feedDemoStream(eng)
	q := latest.HybridQuery(latest.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}, []string{"fire"}, 10)
	est, actual := eng.EstimateAndExecute(&q)
	fmt.Printf("estimate: %.0f actual: %d\n", est, actual)
	fmt.Printf("window size: %d\n", eng.WindowSize())
	// Output:
	// estimate: 5 actual: 5
	// window size: 10
}

// ExampleNewSharded partitions the world into a grid of independent
// LATEST instances; spatial queries fan out only to overlapping shards.
func ExampleNewSharded() {
	eng, err := latest.NewSharded(
		latest.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		time.Minute,
		latest.WithSeed(1),
		latest.WithShards(4),
	)
	if err != nil {
		panic(err)
	}
	defer eng.Shutdown(context.Background())

	feedDemoStream(eng)
	q := latest.HybridQuery(latest.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}, []string{"fire"}, 10)
	est, actual := eng.EstimateAndExecute(&q)
	fmt.Printf("shards: %d\n", eng.NumShards())
	fmt.Printf("estimate: %.0f actual: %d\n", est, actual)
	// Output:
	// shards: 4
	// estimate: 5 actual: 5
}

// ExampleNewDurable wraps an engine with snapshot + write-ahead-log
// persistence: a clean Shutdown takes a final snapshot, and the next
// NewDurable over the same store resumes exactly where it left off.
func ExampleNewDurable() {
	store := latest.NewMemStore() // use NewFileStore(dir) in production
	world := latest.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}

	sys, err := latest.New(world, time.Minute, latest.WithSeed(1))
	if err != nil {
		panic(err)
	}
	eng, err := latest.NewDurable(sys.ShardedSystem, store, latest.DurableConfig{})
	if err != nil {
		panic(err)
	}
	feedDemoStream(eng)
	if err := eng.Shutdown(context.Background()); err != nil {
		panic(err)
	}

	// A new process: same options, same store — state comes back.
	sys2, err := latest.New(world, time.Minute, latest.WithSeed(1))
	if err != nil {
		panic(err)
	}
	eng2, err := latest.NewDurable(sys2.ShardedSystem, store, latest.DurableConfig{})
	if err != nil {
		panic(err)
	}
	defer eng2.Shutdown(context.Background())
	fmt.Printf("generation: %d\n", eng2.TelemetrySnapshot().Durable.Generation)
	fmt.Printf("recovered window size: %d\n", sys2.WindowSize())
	// Output:
	// generation: 1
	// recovered window size: 10
}
