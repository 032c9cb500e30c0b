package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
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
	"github.com/spatiotext/latest/internal/stream"
)

// startDaemon runs the daemon in a goroutine and waits for the addr file.
// Returns the wire and admin addresses, the shutdown trigger, and a
// function that waits for exit and returns (code, stdout).
func startDaemon(t *testing.T, extraArgs ...string) (addr, admin string, shutdown chan os.Signal, wait func() (int, string)) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "latestd.addr")
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-shards", "1",
		"-window", "30s",
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
			lines := strings.Split(string(b), "\n")
			addr, admin = lines[0], lines[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote addr file; stderr: %s", stderr.String())
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
			t.Fatal("daemon did not exit")
			return -1, ""
		}
	}
	return addr, admin, shutdown, wait
}

func testObjects(n int) []latest.Object {
	objs := make([]latest.Object, n)
	for i := range objs {
		o := stream.Object{ID: uint64(i + 1), Timestamp: int64(i), Keywords: []string{"fire"}}
		o.Loc.X, o.Loc.Y = -100+float64(i)*0.01, 35
		objs[i] = o
	}
	return objs
}

// TestServeFeedQueryDrain: the full daemon loop — serve traffic through
// the public client, then SIGTERM and verify a clean exit.
func TestServeFeedQueryDrain(t *testing.T) {
	addr, admin, shutdown, wait := startDaemon(t)

	c := client.Dial(addr, client.Options{})
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	accepted, err := c.FeedBatch(ctx, testObjects(50))
	if err != nil || accepted != 50 {
		t.Fatalf("feed: %d, %v", accepted, err)
	}
	var p geo.Point
	p.X, p.Y = -100, 35
	q := stream.HybridQ(geo.CenteredRect(p, 5, 5), []string{"fire"}, 6)
	if _, err := c.Estimate(ctx, q); err != nil {
		t.Fatalf("estimate: %v", err)
	}

	// The admin plane must expose health and server metric families.
	resp, err := http.Get("http://" + admin + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()

	c.Close()
	shutdown <- syscall.SIGTERM
	code, out := wait()
	if code != 0 {
		t.Fatalf("exit code %d; stdout: %s", code, out)
	}
	for _, want := range []string{"latestd listening", "draining reason=terminated", "latestd stopped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestAdminDrainTrigger: POST /drain is equivalent to SIGTERM.
func TestAdminDrainTrigger(t *testing.T) {
	_, admin, _, wait := startDaemon(t)
	resp, err := http.Post("http://"+admin+"/drain", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /drain: %v", err)
	}
	resp.Body.Close()
	code, out := wait()
	if code != 0 || !strings.Contains(out, "draining reason=admin") {
		t.Fatalf("code=%d out=%s", code, out)
	}
}

// TestShardedEngineOption: a multi-shard engine also serves.
func TestShardedEngineOption(t *testing.T) {
	addr, _, shutdown, wait := startDaemon(t, "-shards", "2")
	c := client.Dial(addr, client.Options{})
	defer c.Close()
	if _, err := c.FeedBatch(context.Background(), testObjects(10)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	shutdown <- syscall.SIGTERM
	if code, _ := wait(); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

// TestClusteredDaemon: with -cluster-map the daemon serves one partition —
// pongs carry the map epoch, TMapFetch serves the map, objects outside
// the node's territory are refused with a typed not-owner error, and the
// startup line names the territory its engine covers.
func TestClusteredDaemon(t *testing.T) {
	world := geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	m, err := cluster.Uniform(world, 4, 1, []string{"127.0.0.1:1", "127.0.0.1:2"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	mapFile := filepath.Join(t.TempDir(), "cluster.map")
	if err := os.WriteFile(mapFile, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	addr, _, shutdown, wait := startDaemon(t, "-cluster-map", mapFile, "-node-id", "0")
	c := client.Dial(addr, client.Options{})
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if got := c.ClusterEpoch(); got != 9 {
		t.Fatalf("pong epoch %d, want 9", got)
	}
	raw, err := c.FetchMap(ctx)
	if err != nil {
		t.Fatalf("fetch map: %v", err)
	}
	served, err := cluster.DecodeMap(raw)
	if err != nil || served.Epoch != 9 {
		t.Fatalf("served map = (%+v, %v), want epoch 9", served, err)
	}

	// Node 0 owns the west half: owned feeds ack, strangers are refused.
	if _, err := c.FeedBatch(ctx, testObjects(10)); err != nil {
		t.Fatalf("owned feed: %v", err)
	}
	stranger := stream.Object{ID: 99, Timestamp: 1}
	stranger.Loc.X, stranger.Loc.Y = 100, 35
	_, err = c.FeedBatch(ctx, []latest.Object{stranger})
	var no *client.NotOwnerError
	if !errors.As(err, &no) || no.Epoch != 9 {
		t.Fatalf("stranger feed err = %v, want NotOwnerError epoch 9", err)
	}

	c.Close()
	shutdown <- syscall.SIGTERM
	code, out := wait()
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "cluster=node=0/2 epoch=9 territory="+m.Territory(0).String()) {
		t.Fatalf("stdout missing cluster info:\n%s", out)
	}
}

func TestClusterFlagValidation(t *testing.T) {
	world := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	m, err := cluster.Uniform(world, 2, 1, []string{"a:1", "b:2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mapFile := filepath.Join(dir, "ok.map")
	if err := os.WriteFile(mapFile, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.map")
	raw := m.Encode()
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Three nodes over two columns: node 2 owns no cell.
	spare, err := cluster.Uniform(world, 2, 1, []string{"a:1", "b:2", "c:3"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spareFile := filepath.Join(dir, "spare.map")
	if err := os.WriteFile(spareFile, spare.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	cases := [][]string{
		{"-cluster-map", filepath.Join(dir, "missing.map")},
		{"-cluster-map", corrupt},
		{"-cluster-map", mapFile, "-node-id", "2"},
		{"-cluster-map", mapFile, "-node-id", "-1"},
		{"-cluster-map", spareFile, "-node-id", "2"},
	}
	for _, args := range cases {
		ch := make(chan os.Signal)
		if code := run(args, &out, &errOut, ch); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	cases := [][]string{
		{"-shards", "-1"},
		{"-world", "1,2,3"},
		{"-log-level", "loud"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		ch := make(chan os.Signal)
		if code := run(args, &out, &errOut, ch); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestLevelFlag: -log-level folds case, so WARN silences the info-level
// serving line that info and Debug let through, and an unknown level is a
// usage error naming the flag.
func TestLevelFlag(t *testing.T) {
	for _, tc := range []struct {
		level   string
		serving bool
	}{{"info", true}, {"WARN", false}, {"Debug", true}} {
		var out, errOut bytes.Buffer
		args := []string{"-addr", "127.0.0.1:0", "-admin", "", "-shards", "1", "-log-level", tc.level}
		if code := run(args, &out, &errOut, stopAtOnce()); code != 0 {
			t.Fatalf("-log-level %s: exit %d, stderr %q", tc.level, code, errOut.String())
		}
		if got := strings.Contains(errOut.String(), "level=INFO msg=serving component=server"); got != tc.serving {
			t.Errorf("-log-level %s: serving line logged %t, want %t; stderr %q", tc.level, got, tc.serving, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-log-level", "loud"}, &out, &errOut, stopAtOnce()); code != 2 || !strings.Contains(errOut.String(), "-log-level") {
		t.Fatalf("-log-level loud: exit %d, stderr %q; want 2 naming the flag", code, errOut.String())
	}
}

// TestClusterMapCarriesTheWorld: -world beside -cluster-map is refused as a
// usage error naming the flag, since the map's territory sets the world.
func TestClusterMapCarriesTheWorld(t *testing.T) {
	m, err := cluster.Uniform(geo.UnitSquare, 2, 1, []string{"a:1", "b:2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapFile := filepath.Join(t.TempDir(), "ok.map")
	if err := os.WriteFile(mapFile, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-cluster-map", mapFile, "-world", "0,0,1,1"}, &out, &errOut, stopAtOnce())
	if code != 2 || !strings.Contains(errOut.String(), "-world") {
		t.Fatalf("exit %d, stderr %q; want 2 naming -world", code, errOut.String())
	}
}

// TestClusterNodeRefusesWholeWorldDataDir: a data directory written by a
// standalone daemon holds a whole-world engine; the engine fingerprint
// holds the world, so a clustered daemon, whose engine covers only its
// territory, refuses it with CodeMismatch instead of serving from it.
func TestClusterNodeRefusesWholeWorldDataDir(t *testing.T) {
	dataDir := t.TempDir()
	_, _, shutdown, wait := startDaemon(t, "-world", "0,0,1,1", "-data-dir", dataDir)
	shutdown <- syscall.SIGTERM
	if code, out := wait(); code != 0 {
		t.Fatalf("standalone run exit %d:\n%s", code, out)
	}

	m, err := cluster.Uniform(geo.UnitSquare, 2, 1, []string{"a:1", "b:2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapFile := filepath.Join(t.TempDir(), "cluster.map")
	if err := os.WriteFile(mapFile, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-admin", "", "-shards", "1", "-window", "30s",
		"-cluster-map", mapFile, "-node-id", "0", "-data-dir", dataDir}, &out, &errOut, stopAtOnce())
	if code == 0 || !strings.Contains(errOut.String(), "code "+latest.CodeMismatch.String()) {
		t.Fatalf("exit %d, stderr %q; want a refusal with code %v", code, errOut.String(), latest.CodeMismatch)
	}
}

// stopAtOnce returns a shutdown channel already holding SIGTERM, so a
// daemon that wrongly starts serving drains and exits instead of hanging
// the test.
func stopAtOnce() chan os.Signal {
	ch := make(chan os.Signal, 1)
	ch <- syscall.SIGTERM
	return ch
}
