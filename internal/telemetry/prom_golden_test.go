package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden exposition file from current output")

// goldenScrapes is every pinned exposition: the file under testdata and the
// scrapes whose concatenation it holds. metrics.golden exercises every
// family with samples; metrics_minimal.golden pins what it cannot — which
// families an empty Snapshot still declares, and that a present Durable
// section renders from its zero value; runtime.golden pins the latest_go_*
// block handleMetrics appends.
var goldenScrapes = []struct {
	file    string
	scrapes func() []string
}{
	{"metrics.golden", func() []string {
		return []string{renderProm(fullSnapshot())}
	}},
	{"metrics_minimal.golden", func() []string {
		return []string{
			renderProm(Snapshot{}),
			renderProm(Snapshot{Shards: []ShardSample{{Active: "RSH"}}, Durable: &DurableSample{}}),
		}
	}},
	{"runtime.golden", func() []string {
		var b strings.Builder
		WriteGoRuntimeProm(&b, GoRuntimeSample{Goroutines: 17, HeapBytes: 3 << 20, GCCycles: 42,
			GCPauseP50: 0.000125, GCPauseP95: 0.0005, GCPauseP99: 0.0015})
		return []string{b.String()}
	}},
}

func renderProm(snap Snapshot) string {
	var b strings.Builder
	WriteProm(&b, snap)
	return b.String()
}

// TestWritePromGolden pins WriteProm's and WriteGoRuntimeProm's output byte
// for byte. Both are pure functions of their argument, so any diff here is
// a deliberate exposition change — rerun with -update and review the golden
// diff in the same commit.
func TestWritePromGolden(t *testing.T) {
	for _, tc := range goldenScrapes {
		t.Run(tc.file, func(t *testing.T) {
			scrapes := tc.scrapes()
			got := strings.Join(scrapes, "")

			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run `go test ./internal/telemetry -run Golden -update` to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("exposition differs from golden:\n%s\n(run with -update to accept)", firstDiff(string(want), got))
			}

			// The pinned bytes must themselves be valid expositions — a
			// golden file can otherwise freeze a spec violation in place.
			for _, s := range scrapes {
				for _, e := range LintProm(strings.NewReader(s)) {
					t.Errorf("golden output fails lint: %v", e)
				}
			}
		})
	}
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\n  golden: " + w + "\n  got:    " + g
		}
	}
	return "lengths differ only"
}
