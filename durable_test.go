package latest

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// parkStore is a Store whose append files park the next Sync after arm
// until release: a feed caught there holds the durable engine's WAL lock
// for as long as the test likes.
type parkStore struct {
	Store
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

func newParkStore() *parkStore {
	return &parkStore{Store: NewMemStore(), parked: make(chan struct{}), release: make(chan struct{})}
}

func (s *parkStore) unpark() { s.once.Do(func() { close(s.release) }) }

func (s *parkStore) OpenAppend(name string, truncateTo int64) (persist.AppendFile, error) {
	f, err := s.Store.OpenAppend(name, truncateTo)
	if err != nil {
		return nil, err
	}
	return parkFile{f, s}, nil
}

type parkFile struct {
	persist.AppendFile
	s *parkStore
}

func (f parkFile) Sync() error {
	if f.s.armed.CompareAndSwap(true, false) {
		close(f.s.parked)
		<-f.s.release
	}
	return f.AppendFile.Sync()
}

// TestConcurrentDurableReadsDuringFsync: the durable engine's lock orders
// the WAL and nothing else. While one feed is parked inside its fsync,
// queries and telemetry reads return, and a snapshot waits for the feed.
func TestConcurrentDurableReadsDuringFsync(t *testing.T) {
	st := newParkStore()
	eng := MustNewSharded(testWorld(), 10*time.Second, WithShards(2), WithSeed(1),
		WithPretrainQueries(150), WithAccWindow(60))
	dur, err := NewDurable(eng, st, DurableConfig{WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: the parked feed is released before
	// Shutdown asks for the lock it holds.
	t.Cleanup(func() { dur.Shutdown(context.Background()) })
	t.Cleanup(st.unpark)

	w := newWorkload(41)
	w.feedBatch(dur, 500)
	st.armed.Store(true)
	fed := make(chan struct{})
	batch := make([]Object, 64)
	for i := range batch {
		batch[i] = w.object()
	}
	go func() {
		dur.FeedBatch(batch)
		close(fed)
	}()
	select {
	case <-st.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the feed never reached its fsync")
	}

	snapped := make(chan error, 1)
	go func() { snapped <- dur.SnapshotNow(context.Background()) }()

	within := func(name string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s waited on the parked feed's fsync", name)
		}
	}
	// Wide enough to cover both shards, so the query fans out.
	wide := SpatialQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, w.ts)
	one := SpatialQuery(Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, w.ts)
	within("EstimateAndExecute", func() { dur.EstimateAndExecute(&wide) })
	within("EstimateAndExecuteTraced", func() {
		dur.EstimateAndExecuteTraced(&one, telemetry.NewTraceBuffer(4, 1).Start("estimate", telemetry.NewTraceID()))
	})
	within("TelemetrySnapshot", func() { dur.TelemetrySnapshot() })
	within("Generation", func() { dur.Generation() })
	within("Health", func() { dur.Health() })

	select {
	case err := <-snapped:
		t.Fatalf("SnapshotNow returned (%v) while a feed was parked in its fsync", err)
	case <-time.After(100 * time.Millisecond):
	}
	st.unpark()
	<-fed
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	// The snapshot came after the whole feed: the fresh WAL is empty.
	if g, n := dur.Generation(), dur.WALAppends(); g != 1 || n != 0 {
		t.Fatalf("after the snapshot: generation %d, %d WAL appends, want 1 and 0", g, n)
	}
}

// TestDurableIntervalSnapshotRepairs: the engine's one background goroutine
// takes the interval snapshots and, when one fails, repairs with backoff
// until the engine is healthy; Shutdown waits for it to exit.
func TestDurableIntervalSnapshotRepairs(t *testing.T) {
	fst := persist.NewFaultStore(NewMemStore(), persist.FaultRule{Op: persist.FaultSave, Count: 1})
	dur, err := NewDurable(testSystem(t).ShardedSystem, fst, DurableConfig{
		SnapshotInterval: 5 * time.Millisecond,
		RepairBackoff:    time.Millisecond,
		RepairBackoffMax: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	newWorkload(35).feed(dur, 100)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		h := dur.Health()
		if h.Healthy() && h.SnapshotErrors == 1 && h.Repairs == 1 && dur.Generation() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s: %+v at generation %d, want healthy again after one failed interval snapshot", h, dur.Generation())
		}
	}
	if err := dur.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
