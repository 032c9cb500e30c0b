package check

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/replay"
	"github.com/spatiotext/latest/internal/server"
	"github.com/spatiotext/latest/internal/telemetry"
)

// golden_cluster.go is the cross-node exactness oracle: the golden trace
// replays through a real N-node cluster — pre-bound listeners, a partition
// map naming their addresses, one clustered latestd-equivalent server per
// node, a scatter-gather router on top — and the per-query actual counts
// must be byte-identical to a 1-node control run of the same stack.
// Partitioning must be invisible in the counts: feeds route to cell
// owners, spatial queries clip at partition boundaries into disjoint
// territories, keyword-only queries broadcast, and the per-node answers
// sum exactly. Estimates are deliberately NOT compared: per-node sketches
// see different substreams, so summed estimates legitimately differ from a
// single node's — only the exact path is partition-invariant.

// ClusterConfig parameterizes the exactness replay.
type ClusterConfig struct {
	// Nodes is the cluster size; 1 is the control.
	Nodes int
	// Cols, Rows form the partition grid.
	Cols, Rows int
	// Window is each node engine's sliding-window span.
	Window time.Duration
	// BatchSize groups trace objects into feed batches.
	BatchSize int
	// ObjectsPerQuery issues one query per that many objects, like the
	// single-process golden replay.
	ObjectsPerQuery int
	// WholeWorldEvery replaces every Nth query with the whole-world rect,
	// guaranteeing queries that span every partition.
	WholeWorldEvery int
	// Seed drives the deterministic query maker.
	Seed int64
}

// DefaultClusterConfig mirrors DefaultGoldenConfig's replay shape.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:           3,
		Cols:            9,
		Rows:            3,
		Window:          5 * time.Second,
		BatchSize:       8,
		ObjectsPerQuery: 8,
		WholeWorldEvery: 16,
		Seed:            11,
	}
}

// RunClusterReplay replays the trace from r through a live cluster of
// cfg.Nodes servers and returns the per-query count report plus the
// router's final telemetry sample.
func RunClusterReplay(r io.Reader, cfg ClusterConfig) (string, telemetry.ClusterSample, error) {
	var sample telemetry.ClusterSample
	world := datagen.ByName(TraceSpec.Dataset, TraceSpec.Seed, TraceSpec.Rate).World()

	// Pre-bind listeners so the map can name real addresses before any
	// server exists — the coordinator sequence cmd/latestd documents.
	lns := make([]net.Listener, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", sample, err
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	m, err := cluster.Uniform(world, cfg.Cols, cfg.Rows, addrs, 1)
	if err != nil {
		return "", sample, err
	}
	for i, ln := range lns {
		// Each node's engine covers its territory, as latestd builds it;
		// the 1-node control's territory is the world.
		eng, err := latest.NewSharded(m.Territory(i), cfg.Window, latest.WithShards(1))
		if err != nil {
			return "", sample, err
		}
		defer eng.Shutdown(context.Background())
		srv, err := server.New(eng, server.Config{Listener: ln, ClusterMap: m, NodeID: i})
		if err != nil {
			return "", sample, fmt.Errorf("check: start cluster node %d: %w", i, err)
		}
		defer srv.Close()
	}
	cl, err := client.NewClusterFromMap(m.Encode(), client.Options{})
	if err != nil {
		return "", sample, err
	}
	defer cl.Close()

	ctx := context.Background()
	qm := newQueryMaker(cfg.Seed, world)
	var report strings.Builder
	reader := replay.NewReader(r)
	batch := make([]latest.Object, 0, cfg.BatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		accepted, err := cl.FeedBatch(ctx, batch)
		if err != nil {
			return fmt.Errorf("check: cluster feed: %w", err)
		}
		if int(accepted) != len(batch) {
			return fmt.Errorf("check: cluster feed accepted %d of %d", accepted, len(batch))
		}
		batch = batch[:0]
		return nil
	}

	fed, qi := 0, 0
	var lastTS int64
	for {
		o, rerr := reader.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return "", sample, rerr
		}
		batch = append(batch, o)
		if len(batch) >= cfg.BatchSize {
			if err := flush(); err != nil {
				return "", sample, err
			}
		}
		qm.observe(&o)
		lastTS = o.Timestamp
		fed++
		if fed%cfg.ObjectsPerQuery != 0 {
			continue
		}
		// Every acknowledged feed must be visible to the query that
		// follows it, so the batch flushes before the query runs.
		if err := flush(); err != nil {
			return "", sample, err
		}
		q := qm.next(lastTS)
		if cfg.WholeWorldEvery > 0 && qi%cfg.WholeWorldEvery == 0 {
			// The whole world overlaps every partition: the scatter leg
			// with boundary clipping is exercised on all nodes at once.
			q = latest.SpatialQuery(world, lastTS)
		}
		_, acts, err := cl.QueryBatch(ctx, []latest.Query{q})
		if err != nil {
			return "", sample, fmt.Errorf("check: cluster query %d: %w", qi, err)
		}
		fmt.Fprintf(&report, "q=%04d type=%-7s actual=%d\n", qi, q.Type(), acts[0])
		qi++
	}
	return report.String(), cl.Sample(), nil
}

// RunClusterExactness replays the trace through an N-node cluster and a
// 1-node control and diffs the count reports. An empty diff is the
// exactness proof; a non-empty one lists the first diverging lines.
func RunClusterExactness(tracePath string, cfg ClusterConfig) (diff []string, sample telemetry.ClusterSample, err error) {
	multi, sample, err := runClusterReplayFile(tracePath, cfg)
	if err != nil {
		return nil, sample, err
	}
	control := cfg
	control.Nodes = 1
	single, _, err := runClusterReplayFile(tracePath, control)
	if err != nil {
		return nil, sample, err
	}
	return DiffLines(single, multi, 10), sample, nil
}

func runClusterReplayFile(tracePath string, cfg ClusterConfig) (string, telemetry.ClusterSample, error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return "", telemetry.ClusterSample{}, err
	}
	defer f.Close()
	return RunClusterReplay(f, cfg)
}
