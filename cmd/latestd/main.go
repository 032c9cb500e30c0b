// latestd serves a LATEST engine over the network: the binary wire
// protocol from internal/wire on one TCP listener for the hot paths (feed
// batches, estimates, query batches), and the HTTP admin plane (health,
// /metrics, /statusz, pprof, drain trigger) on another.
//
// Usage:
//
//	latestd -addr 127.0.0.1:7707 -admin 127.0.0.1:7708
//	latestd -shards 1 -window 2m -addr-file /tmp/latestd.addr
//	latestd -data-dir /var/lib/latestd -snapshot-interval 30s
//	latestd -cluster-map /etc/latest/cluster.map -node-id 0
//
// With -cluster-map the daemon serves one partition of a multi-node
// cluster: it refuses feeds and spatial queries outside its territory
// with a typed not-owner frame carrying the map epoch, answers TMapFetch
// with the map so routers can bootstrap, and stamps the epoch into pongs.
//
// With -data-dir the engine is wrapped in a latest.DurableEngine: every
// feed is write-ahead logged, snapshots are taken periodically and on
// drain, and a restart resumes from the newest snapshot plus the WAL
// tail. A corrupt or mismatched data directory refuses startup with the
// typed reason — the daemon never serves from partial state.
//
// SIGTERM or SIGINT (or POST /drain on the admin plane) begins a graceful
// drain: the listener closes, in-flight requests finish and flush, new
// requests are refused with a retryable draining error, and the process
// exits once peers hang up or the drain timeout expires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/server"
	"github.com/spatiotext/latest/internal/telemetry"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGTERM, os.Interrupt)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, shutdown))
}

type daemonOptions struct {
	addr         string
	adminAddr    string
	addrFile     string
	shards       int
	window       time.Duration
	worldStr     string
	maxConns     int
	maxInFlight  int
	drainTimeout time.Duration
	logLevel     string
	clusterMap   string
	nodeID       int
	dataDir      string
	snapInterval time.Duration
	walSyncEvery int
	snapRetain   int
	diskFault    string
	traceDepth   int
	traceSample  int
}

// run is the testable entrypoint: flags in, exit code out, shutdown
// triggered by whatever the caller feeds the signal channel.
func run(args []string, stdout, stderr io.Writer, shutdown <-chan os.Signal) int {
	fs := flag.NewFlagSet("latestd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o daemonOptions
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7707", "wire-protocol listen address (port 0 = kernel-assigned)")
	fs.StringVar(&o.adminAddr, "admin", "127.0.0.1:0", "admin/metrics listen address; empty disables the admin plane")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound addresses here (line 1 wire, line 2 admin) once listening")
	fs.IntVar(&o.shards, "shards", 0, "spatial shard count (0 = one per CPU core)")
	fs.DurationVar(&o.window, "window", time.Minute, "sliding-window span")
	fs.StringVar(&o.worldStr, "world", "-125,24,-66,50", "world rect: minx,miny,maxx,maxy")
	fs.IntVar(&o.maxConns, "max-conns", 256, "maximum concurrent wire connections")
	fs.IntVar(&o.maxInFlight, "max-inflight", 64, "per-connection in-flight request window")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "bound on graceful drain before force-closing connections")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log severity: debug, info, warn, error")
	fs.StringVar(&o.clusterMap, "cluster-map", "", "partition map file for multi-node serving (author one with latest-router -write-map); empty runs standalone")
	fs.IntVar(&o.nodeID, "node-id", 0, "this daemon's index in the cluster map's node list (used with -cluster-map)")
	fs.StringVar(&o.dataDir, "data-dir", "", "directory for durable state (snapshots + feed WAL); empty serves from memory only")
	fs.DurationVar(&o.snapInterval, "snapshot-interval", 30*time.Second, "how often the durable engine snapshots (requires -data-dir)")
	fs.IntVar(&o.walSyncEvery, "wal-sync-every", 0, "fsync the feed WAL every N records (0 = library default)")
	fs.IntVar(&o.snapRetain, "snapshot-retain", 0, "snapshot generations to keep for fallback recovery (0 = library default)")
	fs.StringVar(&o.diskFault, "disk-fault", "", "deterministic disk-fault injection for chaos drills, e.g. append:after=20,count=5;sync:count=5 (ops: append, sync, save, load, remove, open, any; add 'short' for torn writes; append counts WAL writes — one per feed batch — not objects)")
	fs.IntVar(&o.traceDepth, "trace-depth", 0, "retained span timelines in /debug/requests (0 = library default)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "sample one trace-flagged request in N (1 = all, 0 = library default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.shards == 0 {
		o.shards = runtime.GOMAXPROCS(0)
	}

	if err := serve(o, stdout, stderr, shutdown); err != nil {
		fmt.Fprintln(stderr, "latestd:", err)
		return 1
	}
	return 0
}

func parseLevel(s string) (telemetry.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return telemetry.LevelDebug, nil
	case "info":
		return telemetry.LevelInfo, nil
	case "warn":
		return telemetry.LevelWarn, nil
	case "error":
		return telemetry.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q", s)
}

// loadClusterMap reads and validates the -cluster-map file. The daemon
// refuses to start as a node the map does not know: serving with a wrong
// -node-id would silently accept objects another node owns.
func loadClusterMap(o daemonOptions) (*cluster.Map, error) {
	if o.clusterMap == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(o.clusterMap)
	if err != nil {
		return nil, fmt.Errorf("-cluster-map: %w", err)
	}
	m, err := cluster.DecodeMap(raw)
	if err != nil {
		return nil, fmt.Errorf("-cluster-map %s: %w", o.clusterMap, err)
	}
	if o.nodeID < 0 || o.nodeID >= len(m.Nodes) {
		return nil, fmt.Errorf("-node-id %d out of range: map %s names %d nodes", o.nodeID, o.clusterMap, len(m.Nodes))
	}
	return m, nil
}

// parseWorld parses "minx,miny,maxx,maxy".
func parseWorld(spec string) (geo.Rect, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("want minx,miny,maxx,maxy, got %q", spec)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, err
		}
		vals[i] = v
	}
	r := geo.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if !r.Valid() || r.Empty() {
		return geo.Rect{}, fmt.Errorf("invalid world %v", r)
	}
	return r, nil
}

// buildEngine constructs the serving engine: the unified latest.Engine is
// the daemon's whole view of it — serving surface, persistence hooks and
// graceful teardown. With -data-dir the core engine is wrapped in a
// DurableEngine, which restores the newest snapshot plus the WAL tail (or
// refuses with the typed reason) before the listener opens.
func buildEngine(o daemonOptions, world geo.Rect, logW io.Writer, level telemetry.Level, log *telemetry.Logger) (latest.Engine, error) {
	// The daemon owns the exposition listener through internal/server, so
	// the engine is built WITHOUT WithTelemetry — its snapshot is scraped
	// through the admin plane instead.
	eng, err := latest.NewSharded(world, o.window,
		latest.WithLogger(logW, level), latest.WithShards(o.shards))
	if err != nil {
		return nil, err
	}
	if o.dataDir == "" {
		return eng, nil
	}
	st, err := latest.NewFileStore(o.dataDir)
	if err != nil {
		eng.Shutdown(context.Background())
		return nil, err
	}
	var store latest.Store = st
	if o.diskFault != "" {
		// Chaos drills: the data dir sits behind a deterministic fault
		// injector so degraded-mode behavior can be exercised end to end
		// on a real process without a failing disk.
		rules, perr := parseFaultSpec(o.diskFault)
		if perr != nil {
			eng.Shutdown(context.Background())
			return nil, fmt.Errorf("-disk-fault: %w", perr)
		}
		store = persist.NewFaultStore(st, rules...)
		log.Warn("disk-fault injection armed", "spec", o.diskFault)
	}
	dur, err := latest.NewDurable(eng, store, latest.DurableConfig{
		SnapshotInterval: o.snapInterval,
		WALSyncEvery:     o.walSyncEvery,
		Retain:           o.snapRetain,
		Log:              log.Named("durable"),
	})
	if err != nil {
		eng.Shutdown(context.Background())
		// A typed refusal names the exact reason: checksum failure, version
		// skew, configuration mismatch, foreign engine kind. The operator
		// decision (restore a backup, wipe the dir, fix the flags) differs
		// per code, so surface it verbatim.
		return nil, fmt.Errorf("recover %s (code %v): %w", o.dataDir, latest.PersistCode(err), err)
	}
	return dur, nil
}

func serve(o daemonOptions, stdout, stderr io.Writer, shutdown <-chan os.Signal) error {
	level, err := parseLevel(o.logLevel)
	if err != nil {
		return err
	}
	world, err := parseWorld(o.worldStr)
	if err != nil {
		return fmt.Errorf("-world: %w", err)
	}
	cm, err := loadClusterMap(o)
	if err != nil {
		return err
	}
	log := telemetry.NewLogger(stderr, level)
	eng, err := buildEngine(o, world, stderr, level, log)
	if err != nil {
		return err
	}
	srv, err := server.New(eng, server.Config{
		Addr:        o.addr,
		AdminAddr:   o.adminAddr,
		ClusterMap:  cm,
		NodeID:      o.nodeID,
		MaxConns:    o.maxConns,
		MaxInFlight: o.maxInFlight,
		TraceDepth:  o.traceDepth,
		TraceEvery:  o.traceSample,
		Log:         log,
	})
	if err != nil {
		eng.Shutdown(context.Background())
		return err
	}

	if o.addrFile != "" {
		content := srv.Addr() + "\n" + srv.AdminAddr() + "\n"
		if err := os.WriteFile(o.addrFile, []byte(content), 0o644); err != nil {
			srv.Close()
			eng.Shutdown(context.Background())
			return fmt.Errorf("-addr-file: %w", err)
		}
	}
	durability := "none"
	if dur, ok := eng.(*latest.DurableEngine); ok {
		h := dur.Health()
		durability = fmt.Sprintf("%s gen=%d wal=%d recovery=%.3fs state=%s",
			o.dataDir, dur.Generation(), dur.WALAppends(), dur.RecoverySeconds(), h.State)
	}
	clusterInfo := "standalone"
	if cm != nil {
		clusterInfo = fmt.Sprintf("node=%d/%d epoch=%d", o.nodeID, len(cm.Nodes), cm.Epoch)
	}
	fmt.Fprintf(stdout, "latestd listening addr=%s admin=%s shards=%d window=%s durability=%s cluster=%s\n",
		srv.Addr(), srv.AdminAddr(), o.shards, o.window, durability, clusterInfo)

	select {
	case sig := <-shutdown:
		fmt.Fprintf(stdout, "latestd draining reason=%v\n", sig)
	case <-srv.DrainRequested():
		fmt.Fprintln(stdout, "latestd draining reason=admin")
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	// Engine shutdown runs after the listener has drained, so the final
	// snapshot a DurableEngine takes here captures every acknowledged feed:
	// a clean stop/start cycle loses nothing.
	engErr := eng.Shutdown(ctx)
	if dur, ok := eng.(*latest.DurableEngine); ok {
		if h := dur.Health(); !h.Healthy() || h.ErrorsTotal > 0 {
			fmt.Fprintf(stderr, "latestd: durability %s errors=%d degradations=%d repairs=%d dropped_appends=%d\n",
				h.State, h.ErrorsTotal, h.Degradations, h.Repairs, h.DroppedAppends)
		}
		fmt.Fprintf(stdout, "latestd final snapshot gen=%d\n", dur.Generation())
	}
	fmt.Fprintln(stdout, "latestd stopped")
	return errors.Join(drainErr, engErr)
}
