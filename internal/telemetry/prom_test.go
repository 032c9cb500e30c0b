package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPromLabelValuesEscaped feeds every caller-supplied label value (an
// estimator's registry name, a node's address) through the renderer with
// the three characters the exposition format makes it escape. The scrape
// must lint clean and the linter's label parser must read the value back.
func TestPromLabelValuesEscaped(t *testing.T) {
	const nasty = "a\"b\\c\n"
	snap := fullSnapshot()
	snap.Shards[0].Active = nasty
	snap.Shards[0].Sanitized = map[string]uint64{nasty: 1}
	snap.QError[0].Estimator = nasty
	snap.Cluster.PerNode[0].Addr = nasty

	out := renderProm(snap)
	for _, e := range LintProm(strings.NewReader(out)) {
		t.Errorf("lint: %v", e)
	}

	want := map[string]bool{
		"latest_active_estimator": false, "latest_sanitized_total": false,
		"latest_qerror":                      false,
		"latest_cluster_node_requests_total": false, "latest_cluster_node_latency_seconds_count": false,
	}
	for _, line := range strings.Split(out, "\n") {
		i, j := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if j < i {
			t.Fatalf("unterminated label block: %q", line)
		}
		labels, perr := parseLabels(line[i+1 : j])
		if perr != "" {
			t.Fatalf("%q: %s", line, perr)
		}
		for _, v := range labels {
			if v == nasty {
				want[line[:i]] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("%s: no series carries the label value %q back through the parser", name, nasty)
		}
	}
}

// TestFamilyTable checks the table's own invariants, and that the goldens
// and the table declare the same families — so a row without a pinned
// rendering, or a rendering no row produces, fails here.
func TestFamilyTable(t *testing.T) {
	type row struct{ name, typ, help string }
	var rows []row
	for _, g := range snapshotFamilies {
		for _, f := range g.families {
			rows = append(rows, row{f.name, f.typ, f.help})
		}
	}
	for _, g := range runtimeFamilies {
		for _, f := range g.families {
			rows = append(rows, row{f.name, f.typ, f.help})
		}
	}

	declared := map[string]string{}
	for _, r := range rows {
		if _, dup := declared[r.name]; dup {
			t.Errorf("%s: declared twice", r.name)
		}
		declared[r.name] = r.typ
		if !validMetricName(r.name) || !strings.HasPrefix(r.name, "latest_") {
			t.Errorf("%s: not a valid latest_* metric name", r.name)
		}
		if r.help == "" {
			t.Errorf("%s: empty HELP", r.name)
		}
		if r.typ == counter && !strings.HasSuffix(r.name, "_total") {
			t.Errorf("%s: counter name must end _total", r.name)
		}
		if r.typ == histogram && !strings.HasSuffix(r.name, "_seconds") {
			t.Errorf("%s: histogram name must end _seconds", r.name)
		}
	}

	pinned := map[string]string{}
	for _, g := range goldenScrapes {
		data, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(rest, " ")
				pinned[name] = typ
			}
		}
	}
	for name, typ := range declared {
		if pinned[name] != typ {
			t.Errorf("%s: table says %s, goldens say %q", name, typ, pinned[name])
		}
	}
	for name := range pinned {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: pinned by a golden but not in the table", name)
		}
	}
}
