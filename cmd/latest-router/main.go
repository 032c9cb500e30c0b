// latest-router fronts a multi-node LATEST cluster: it speaks the binary
// wire protocol to clients on one TCP listener, owns a pipelined client
// per latestd node, and routes by the spatial partition map — feeds go to
// the cell owner, spatial queries forward to a single owner or
// scatter-gather across owners with exact boundary clipping, keyword-only
// queries broadcast. Unmodified clients talk to the cluster exactly as
// they talk to one node.
//
// Usage:
//
//	latest-router -map /etc/latest/cluster.map
//	latest-router -seed 127.0.0.1:7707,127.0.0.1:7717 -addr 127.0.0.1:7700
//	latest-router -write-map -world -125,24,-66,50 -grid 8x4 \
//	    -nodes 127.0.0.1:7707,127.0.0.1:7717,127.0.0.1:7727 \
//	    -epoch 1 -out cluster.map
//
// The partition map comes from -map (a file authored with -write-map) or
// is fetched over the wire from the first reachable -seed node. When a
// node answers with a newer epoch, the router refetches and retries
// transparently.
//
// -write-map authors a map file and exits: it assigns the uniform grid's
// column stripes to the listed nodes, encodes with the epoch and a CRC,
// and prints the assignment.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/geo"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGTERM, os.Interrupt)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, shutdown))
}

type routerOptions struct {
	addr         string
	adminAddr    string
	addrFile     string
	mapFile      string
	seeds        string
	maxConns     int
	maxInFlight  int
	drainTimeout time.Duration
	reqTimeout   time.Duration
	mapRetries   int
	logLevel     slog.Level

	writeMap bool
	worldStr string
	gridStr  string
	nodesStr string
	epoch    uint64
	outFile  string
}

// run is the testable entrypoint: flags in, exit code out, shutdown
// triggered by whatever the caller feeds the signal channel.
func run(args []string, stdout, stderr io.Writer, shutdown <-chan os.Signal) int {
	fs := flag.NewFlagSet("latest-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o routerOptions
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7700", "wire-protocol listen address (port 0 = kernel-assigned)")
	fs.StringVar(&o.adminAddr, "admin", "127.0.0.1:0", "admin/metrics listen address; empty disables the admin plane")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound addresses here (line 1 wire, line 2 admin) once listening")
	fs.StringVar(&o.mapFile, "map", "", "partition map file (author one with -write-map)")
	fs.StringVar(&o.seeds, "seed", "", "comma-separated node addresses to fetch the map from (alternative to -map)")
	fs.IntVar(&o.maxConns, "max-conns", 256, "maximum concurrent wire connections")
	fs.IntVar(&o.maxInFlight, "max-inflight", 64, "per-connection in-flight request window")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "bound on graceful drain before force-closing connections")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 10*time.Second, "per-node request deadline budget")
	fs.IntVar(&o.mapRetries, "map-retries", 0, "refetch-and-retry budget on stale-map refusals (0 = library default)")
	fs.TextVar(&o.logLevel, "log-level", slog.LevelInfo, "minimum log `severity`: debug, info, warn or error, in any case")

	fs.BoolVar(&o.writeMap, "write-map", false, "author a partition map file and exit")
	fs.StringVar(&o.worldStr, "world", "-125,24,-66,50", "(-write-map) world rect: minx,miny,maxx,maxy")
	fs.StringVar(&o.gridStr, "grid", "8x4", "(-write-map) partition grid: COLSxROWS")
	fs.StringVar(&o.nodesStr, "nodes", "", "(-write-map) comma-separated node addresses, territory owners in stripe order")
	fs.Uint64Var(&o.epoch, "epoch", 1, "(-write-map) map epoch; nodes refuse with this number so stale routers refetch")
	fs.StringVar(&o.outFile, "out", "cluster.map", "(-write-map) output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	if o.writeMap {
		err = writeMap(o, stdout)
	} else {
		err = serve(o, stdout, stderr, shutdown)
	}
	if err != nil {
		fmt.Fprintln(stderr, "latest-router:", err)
		return 1
	}
	return 0
}

// parseGrid parses "COLSxROWS".
func parseGrid(spec string) (cols, rows int, err error) {
	parts := strings.SplitN(strings.ToLower(spec), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want COLSxROWS, got %q", spec)
	}
	if cols, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, err
	}
	if rows, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, err
	}
	return cols, rows, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// writeMap authors a partition map file: uniform grid, column stripes
// assigned to the listed nodes in order.
func writeMap(o routerOptions, stdout io.Writer) error {
	world, err := geo.ParseRect(o.worldStr)
	if err != nil {
		return fmt.Errorf("-world: %w", err)
	}
	cols, rows, err := parseGrid(o.gridStr)
	if err != nil {
		return fmt.Errorf("-grid: %w", err)
	}
	nodes := splitList(o.nodesStr)
	if len(nodes) == 0 {
		return errors.New("-write-map needs -nodes")
	}
	m, err := cluster.Uniform(world, cols, rows, nodes, o.epoch)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.outFile, m.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "latest-router wrote %s: epoch=%d grid=%dx%d world=%v\n",
		o.outFile, m.Epoch, m.Cols, m.Rows, m.World)
	for i, addr := range m.Nodes {
		cells := 0
		for _, owner := range m.Owners {
			if int(owner) == i {
				cells++
			}
		}
		fmt.Fprintf(stdout, "  node %d %s owns %d/%d cells territory=%v\n", i, addr, cells, len(m.Owners), m.Territory(i))
	}
	return nil
}

// buildCluster resolves the partition map — from the -map file or fetched
// from the first reachable -seed — and dials the member nodes.
func buildCluster(o routerOptions, copts client.Options) (*client.Cluster, error) {
	switch {
	case o.mapFile != "" && o.seeds != "":
		return nil, errors.New("-map and -seed are mutually exclusive")
	case o.mapFile != "":
		raw, err := os.ReadFile(o.mapFile)
		if err != nil {
			return nil, fmt.Errorf("-map: %w", err)
		}
		cl, err := client.NewClusterFromMap(raw, copts)
		if err != nil {
			return nil, fmt.Errorf("-map %s: %w", o.mapFile, err)
		}
		return cl, nil
	case o.seeds != "":
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cl, err := client.DialCluster(ctx, splitList(o.seeds), copts)
		if err != nil {
			return nil, fmt.Errorf("-seed: %w", err)
		}
		return cl, nil
	default:
		return nil, errors.New("need -map FILE or -seed ADDRS (or -write-map)")
	}
}

func serve(o routerOptions, stdout, stderr io.Writer, shutdown <-chan os.Signal) error {
	log := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: o.logLevel}))
	cl, err := buildCluster(o, client.Options{RequestTimeout: o.reqTimeout})
	if err != nil {
		return err
	}
	if o.mapRetries > 0 {
		cl.Router().SetMaxMapRetries(o.mapRetries)
	}
	p, err := cluster.NewProxy(cl, cluster.ProxyConfig{
		Addr:        o.addr,
		AdminAddr:   o.adminAddr,
		MaxConns:    o.maxConns,
		MaxInFlight: o.maxInFlight,
		Log:         log,
	})
	if err != nil {
		cl.Close()
		return err
	}

	if o.addrFile != "" {
		content := p.Addr() + "\n" + p.AdminAddr() + "\n"
		if err := os.WriteFile(o.addrFile, []byte(content), 0o644); err != nil {
			p.Close()
			cl.Close()
			return fmt.Errorf("-addr-file: %w", err)
		}
	}
	fmt.Fprintf(stdout, "latest-router listening addr=%s admin=%s epoch=%d nodes=%d\n",
		p.Addr(), p.AdminAddr(), cl.Epoch(), len(cl.Nodes()))

	select {
	case sig := <-shutdown:
		fmt.Fprintf(stdout, "latest-router draining reason=%v\n", sig)
	case <-p.DrainRequested():
		fmt.Fprintln(stdout, "latest-router draining reason=admin")
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := p.Shutdown(ctx)
	closeErr := cl.Close()
	fmt.Fprintln(stdout, "latest-router stopped")
	return errors.Join(drainErr, closeErr)
}
