package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/client"
	"github.com/spatiotext/latest/internal/cluster"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/server"
	"github.com/spatiotext/latest/internal/stream"
)

var testWorld = geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

// startClusterNodes pre-binds n listeners, builds the partition map naming
// their real addresses, and starts one clustered server per listener.
func startClusterNodes(t *testing.T, n int) *cluster.Map {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	m, err := cluster.Uniform(testWorld, 3*n, 1, addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range lns {
		eng, err := latest.NewConcurrent(testWorld, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(eng, server.Config{Listener: ln, ClusterMap: m, NodeID: i})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			eng.Shutdown(context.Background())
		})
	}
	return m
}

// startRouter runs the router command in a goroutine and waits for the
// addr file, mirroring the latestd test harness.
func startRouter(t *testing.T, extraArgs ...string) (addr string, shutdown chan os.Signal, wait func() (int, string)) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "router.addr")
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-drain-timeout", "5s",
	}, extraArgs...)

	var stdout, stderr bytes.Buffer
	var mu sync.Mutex
	shutdown = make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		done <- run(args, &stdout, &stderr, shutdown)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			addr = strings.Split(string(b), "\n")[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never wrote addr file; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	wait = func() (int, string) {
		select {
		case code := <-done:
			mu.Lock()
			out := stdout.String()
			mu.Unlock()
			return code, out
		case <-time.After(15 * time.Second):
			t.Fatal("router did not exit")
			return -1, ""
		}
	}
	return addr, shutdown, wait
}

func writeMapFile(t *testing.T, m *cluster.Map) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.map")
	if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func spreadObjects(n int) []latest.Object {
	objs := make([]latest.Object, n)
	for i := range objs {
		o := stream.Object{ID: uint64(i + 1), Timestamp: int64(i + 1), Keywords: []string{"fire"}}
		// Sweep west to east so every node's territory receives objects.
		o.Loc = geo.Pt(-170+float64(i)*340/float64(n), 10)
		objs[i] = o
	}
	return objs
}

// TestWriteMapMode: -write-map authors a decodable map and prints the
// stripe assignment with each node's territory.
func TestWriteMapMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "authored.map")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-write-map", "-world", "0,0,10,10", "-grid", "6x2",
		"-nodes", "a:1, b:2,c:3", "-epoch", "5", "-out", out,
	}, &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.DecodeMap(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 5 || m.Cols != 6 || m.Rows != 2 || len(m.Nodes) != 3 {
		t.Fatalf("authored map %+v", m)
	}
	if !strings.Contains(stdout.String(), "node 1 b:2 owns 4/12 cells territory="+m.Territory(1).String()) {
		t.Fatalf("stdout missing assignment:\n%s", stdout.String())
	}
}

// TestRouterServeFromMapFile: the full path — three clustered daemons, a
// router fronting them from a map file, an unmodified client feeding and
// querying through the router, graceful drain.
func TestRouterServeFromMapFile(t *testing.T) {
	m := startClusterNodes(t, 3)
	addr, shutdown, wait := startRouter(t, "-map", writeMapFile(t, m))

	c := client.Dial(addr, client.Options{})
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping through router: %v", err)
	}
	if got := c.ClusterEpoch(); got != m.Epoch {
		t.Fatalf("router pong epoch %d, want %d", got, m.Epoch)
	}

	objs := spreadObjects(60)
	accepted, err := c.FeedBatch(ctx, objs)
	if err != nil || int(accepted) != len(objs) {
		t.Fatalf("feed through router: %d, %v", accepted, err)
	}

	// Whole-world query scatters across all three nodes and sums exactly.
	world := stream.SpatialQ(testWorld, int64(len(objs)))
	_, acts, err := c.QueryBatch(ctx, []latest.Query{world})
	if err != nil {
		t.Fatalf("query through router: %v", err)
	}
	if acts[0] != len(objs) {
		t.Fatalf("whole-world count %d, want %d", acts[0], len(objs))
	}

	// Keyword-only queries broadcast to every node; the summed estimate is
	// approximate but must see the stream (every node holds matches).
	kw := stream.KeywordQ([]string{"fire"}, int64(len(objs)))
	est, err := c.Estimate(ctx, kw)
	if err != nil || est <= 0 {
		t.Fatalf("keyword estimate %v, %v, want > 0", est, err)
	}

	c.Close()
	shutdown <- syscall.SIGTERM
	code, out := wait()
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"latest-router listening", "draining reason=terminated", "latest-router stopped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestRouterSeedBootstrap: with -seed the router fetches the map over the
// wire from a member node instead of reading a file.
func TestRouterSeedBootstrap(t *testing.T) {
	m := startClusterNodes(t, 2)
	// First seed is unreachable: bootstrap must fall through to the live one.
	addr, shutdown, wait := startRouter(t, "-seed", "127.0.0.1:1,"+m.Nodes[0])

	c := client.Dial(addr, client.Options{})
	defer c.Close()
	ctx := context.Background()
	objs := spreadObjects(20)
	if accepted, err := c.FeedBatch(ctx, objs); err != nil || int(accepted) != len(objs) {
		t.Fatalf("feed: %d, %v", accepted, err)
	}
	world := stream.SpatialQ(testWorld, int64(len(objs)))
	if _, acts, err := c.QueryBatch(ctx, []latest.Query{world}); err != nil || acts[0] != len(objs) {
		t.Fatalf("query: %v, %v", acts, err)
	}

	c.Close()
	shutdown <- syscall.SIGTERM
	if code, _ := wait(); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestRouterBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	cases := [][]string{
		{},                          // neither -map nor -seed
		{"-map", "x", "-seed", "y"}, // mutually exclusive
		{"-map", filepath.Join(t.TempDir(), "missing.map")},
		{"-log-level", "loud"},
		{"-write-map", "-nodes", ""},
		{"-write-map", "-nodes", "a:1", "-grid", "bogus"},
		{"-write-map", "-nodes", "a:1", "-world", "1,2,3"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		ch := make(chan os.Signal)
		if code := run(args, &out, &errOut, ch); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRouterLevelFlag: -log-level folds case, so WARN silences the
// info-level serving line that info and Debug let through, and an unknown
// level is a usage error naming the flag.
func TestRouterLevelFlag(t *testing.T) {
	m, err := cluster.Uniform(testWorld, 2, 1, []string{"127.0.0.1:1", "127.0.0.1:2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapFile := writeMapFile(t, m)
	for _, tc := range []struct {
		level   string
		serving bool
	}{{"info", true}, {"WARN", false}, {"Debug", true}} {
		var out, errOut bytes.Buffer
		args := []string{"-map", mapFile, "-addr", "127.0.0.1:0", "-admin", "", "-log-level", tc.level}
		ch := make(chan os.Signal, 1)
		ch <- syscall.SIGTERM
		if code := run(args, &out, &errOut, ch); code != 0 {
			t.Fatalf("-log-level %s: exit %d, stderr %q", tc.level, code, errOut.String())
		}
		if got := strings.Contains(errOut.String(), "level=INFO msg=serving component=router"); got != tc.serving {
			t.Errorf("-log-level %s: serving line logged %t, want %t; stderr %q", tc.level, got, tc.serving, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-log-level", "loud"}, &out, &errOut, make(chan os.Signal)); code != 2 || !strings.Contains(errOut.String(), "-log-level") {
		t.Fatalf("-log-level loud: exit %d, stderr %q; want 2 naming the flag", code, errOut.String())
	}
}

func TestParseGrid(t *testing.T) {
	cols, rows, err := parseGrid("8X4")
	if err != nil || cols != 8 || rows != 4 {
		t.Fatalf("parseGrid = (%d, %d, %v)", cols, rows, err)
	}
	for _, bad := range []string{"8", "x", "ax2", "2xb"} {
		if _, _, err := parseGrid(bad); err == nil {
			t.Errorf("parseGrid(%q) accepted", bad)
		}
	}
}
