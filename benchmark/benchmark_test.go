package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantileIsMedianOfSegments(t *testing.T) {
	var s samples
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 2000; i++ {
			s.add(seg, float64(i%100)) // p99 of every clean segment is 98
		}
	}
	// One segment hit by a stall: a tenth of its samples are huge.
	for i := 0; i < 200; i++ {
		s.seg[2][i] = 1e9
	}
	got, ok := s.quantile(0.99)
	if !ok || got != 98 {
		t.Fatalf("p99 = %v, supported %v; want 98 from the four clean segments", got, ok)
	}
	if whole := percentile(s.all(), 0.99); whole != 1e9 {
		t.Fatalf("whole-run p99 = %v; the stall should dominate it", whole)
	}
}

func TestQuantileFallsBackWhenSegmentsAreThin(t *testing.T) {
	var s samples
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 400; i++ { // 4 beyond p99 per segment, 20 overall
			s.add(seg, float64(seg*400+i))
		}
	}
	got, ok := s.quantile(0.99)
	if want := float64(rank(0.99, 2000)); !ok || got != want {
		t.Fatalf("p99 = %v, supported %v; want the whole run's %v", got, ok, want)
	}
	if _, ok := s.quantile(0.50); !ok {
		t.Fatal("p50 of 400-sample segments must be supported")
	}
	var thin samples
	for i := 0; i < 300; i++ {
		thin.add(i%segments, float64(i))
	}
	if _, ok := thin.quantile(0.99); ok {
		t.Fatal("300 samples leave 3 beyond p99: must be reported as unsupported")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	us := func(d time.Duration) int { return int(d / time.Microsecond) }

	// Connection free at the due time, generator woke 300 us late: the
	// lateness is the instrument's, so latency is the call's own 200 us.
	lat, lag := openLoopSample(at(1000), at(500), at(1300), at(1500))
	if us(lat) != 200 || us(lag) != 300 {
		t.Fatalf("free connection: latency %v lag %v", lat, lag)
	}
	// Previous request finished 4000 us after this one was due: the wait is
	// the system's and is charged in full.
	lat, lag = openLoopSample(at(1000), at(5000), at(5010), at(5210))
	if us(lat) != 4200 || us(lag) != 10 {
		t.Fatalf("behind a stall: latency %v lag %v", lat, lag)
	}

	period := 2 * time.Millisecond
	if b := backlog(at(0), at(-1), period, 100, 0); b != 0 {
		t.Fatalf("before the schedule starts: backlog %d", b)
	}
	if b := backlog(at(0), at(0), period, 100, 0); b != 1 {
		t.Fatalf("first request due: backlog %d", b)
	}
	// 10.5 ms in, requests 0..5 are due; three were sent.
	if b := backlog(at(0), at(10500), period, 100, 3); b != 3 {
		t.Fatalf("mid-run: backlog %d", b)
	}
	if b := backlog(at(0), at(10_000_000), period, 100, 98); b != 2 {
		t.Fatalf("past the end of the schedule: backlog %d", b)
	}
}

func TestSelfTimeFolding(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "call", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},       // nested child
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},       // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 130},      // runs past the parent
		{ID: 4, Parent: 1, Name: "a.inner", Start: 15, End: 25}, // grandchild
		{ID: 5, Parent: 0, Name: "early", Start: -50, End: -5},  // wholly outside
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (30 + 20 + 10), // a covers 10-40, b adds 40-60, c clipped to 90-100
		30 - 10,
		30,
		40,
		10,
		45,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "feed_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	tight := func(med float64) side { return sideOf([]float64{med * 0.99, med, med * 1.01}) }
	share := metricDecl{Name: "late_frac", Better: "lower"}
	cases := []struct {
		d        metricDecl
		gated    bool
		old, new side
		want     verdict
	}{
		{lower, true, tight(100), tight(105), verdictOK},
		{lower, true, tight(100), tight(115), verdictRegression},
		{lower, false, tight(100), tight(115), verdictWorse},
		{lower, true, tight(100), tight(50), verdictOK},
		{higher, true, tight(100), tight(85), verdictRegression},
		{higher, true, tight(100), tight(120), verdictOK},
		// The old side's own runs spread wider than the bound.
		{lower, true, sideOf([]float64{80, 100, 120}), tight(130), verdictUnresolved},
		// A share that is zero on a healthy run has no relative bound.
		{share, false, tight(0), tight(0), verdictOK},
		{share, false, tight(0), tight(0.02), verdictWorse},
	}
	for i, c := range cases {
		if got := judge(c.d, c.gated, c.old, c.new); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

// manifestFile is BENCHMARK.json as the acceptance driver reads it.
type manifestFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestManifestMatchesDeclarations(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from metrics.go; regenerate with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	var m manifestFile
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		checkName(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", e.Name, e.Unit, e.Bound)
		}
		hasSetup = hasSetup || e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	for _, p := range m.PerLayer {
		checkName(p.Name)
		if !unit.MatchString(p.Unit) || p.Better != "lower" && p.Better != "higher" {
			t.Errorf("%s: unit %q better %q", p.Name, p.Unit, p.Better)
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; the driver accepts 1 to 128", n)
	}
}

// TestSmokeAllWorkloads runs every workload plain and traced at 1/200
// scale over a one-second window and checks that what is printed is
// exactly what BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	// required is what a run's result object must carry; a plain run's
	// table may show per-layer names too (the demoted end-to-end metrics).
	required := map[bool]map[string]bool{false: {}, true: {}}
	anyDeclared := map[string]bool{}
	for _, e := range m.EndToEnd {
		required[false][e.Name] = true
		anyDeclared[e.Name] = true
	}
	for _, p := range m.PerLayer {
		required[true][p.Name] = true
		anyDeclared[p.Name] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	row := regexp.MustCompile(`^  (\S+) +(\S+) (\S+) +n=`)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, spec := range workloads {
		if m.Workloads[i].Name != spec.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, m.Workloads[i].Name, spec.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(spec, runOptions{
				seed: 1, scale: 1.0 / 200, traced: traced, outDir: t.TempDir(), log: io.Discard,
				window: time.Second, pretrain: 16,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if err := checkComplete(res); err != nil {
				t.Error(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", spec.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			var out bytes.Buffer
			printResult(&out, res)
			lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			printed := map[string]bool{}
			for _, line := range lines {
				if f := row.FindStringSubmatch(line); f != nil {
					if !name.MatchString(f[1]) {
						t.Errorf("%s: printed name %q is malformed", spec.name, f[1])
					}
					if v, err := json.Number(f[2]).Float64(); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %s printed as %q", spec.name, f[1], f[2])
					}
					printed[f[1]] = true
				}
			}
			for n := range printed {
				if !anyDeclared[n] || traced && !required[true][n] {
					t.Errorf("%s traced=%v prints %s, which BENCHMARK.json does not declare", spec.name, traced, n)
				}
			}
			for n := range required[traced] {
				if !printed[n] {
					t.Errorf("%s traced=%v does not print %s, which BENCHMARK.json declares", spec.name, traced, n)
				}
			}
			var last struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", spec.name, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(required[traced]) {
				t.Errorf("%s traced=%v: result object incomplete: %s", spec.name, traced, lines[len(lines)-1])
			}
			for n, m := range last.Metrics {
				if !required[traced][n] || m.Value == nil || m.Unit == nil {
					t.Errorf("%s traced=%v: result object carries %s, undeclared for this mode or without value and unit", spec.name, traced, n)
				}
			}
			if traced {
				if _, err := os.Stat(res.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", spec.name, err)
				}
			}
		}
	}
}
