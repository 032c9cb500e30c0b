package telemetry

import (
	"strings"
	"testing"
	"time"
)

// fullSnapshot extends the engine-only test fixture with the serving,
// durability and cluster slices so every WriteProm family is exercised.
func fullSnapshot() Snapshot {
	var h Histogram
	for i := 0; i < 64; i++ {
		h.Record(time.Duration(i) * 10 * time.Microsecond)
	}
	hs := h.Snapshot()

	snap := testSnapshot()
	snap.Shards[0].Sanitized = map[string]uint64{"RSH": 2, "H4096": 0}
	snap.Server = &ServerSample{
		Addr:           "127.0.0.1:7070",
		ConnsActive:    2,
		ConnsAccepted:  9,
		ConnsRejected:  1,
		BytesIn:        4096,
		BytesOut:       8192,
		FramesIn:       120,
		FramesOut:      118,
		InFlight:       1,
		FeedObjects:    900,
		CoalescedFeeds: 7,
		Ops: []ServerOp{
			{Op: "feed", Requests: 80, Latency: hs},
			{Op: "estimate", Requests: 30, Latency: hs},
		},
		Errors:        ServerErrors{Backpressure: 3, Deadline: 1, NotOwner: 2},
		ConnDuration:  hs,
		TracesSeen:    40,
		TracesSampled: 5,
	}
	snap.Cluster = &ClusterSample{
		Epoch:         4,
		Nodes:         3,
		Cols:          8,
		Rows:          4,
		FeedObjects:   1200,
		FeedBatches:   40,
		Estimates:     25,
		Queries:       10,
		ForwardSingle: 20,
		ScatterMulti:  12,
		Broadcasts:    3,
		Subqueries:    55,
		NotOwner:      2,
		MapRefetches:  1,
		Retries:       1,
		NodeErrors:    1,
		PerNode: []ClusterNode{
			{Addr: "127.0.0.1:7101", Requests: 60, Errors: 1, Latency: hs},
			{Addr: "127.0.0.1:7102", Requests: 58, Latency: hs},
		},
	}
	snap.Durable = &DurableSample{
		Generation:          3,
		State:               "degraded",
		StateSeconds:        4.5,
		WALAppends:          500,
		WALBytes:            123456,
		WALSyncs:            50,
		WALRotations:        3,
		WALErrors:           2,
		StoreErrors:         1,
		DroppedAppends:      17,
		Degradations:        2,
		RepairAttempts:      3,
		Repairs:             1,
		ErrorsTotal:         4,
		LastErrors:          []DurableError{{UnixNanos: 1700000000000000000, Op: "wal-append", Err: "injected fault"}},
		Snapshots:           3,
		SnapshotErrors:      1,
		LastSnapshotBytes:   6789,
		RecoverySeconds:     0.125,
		RecoveryWALRecords:  42,
		RecoveredSnapshot:   true,
		RecoveredGeneration: 2,
		RecoveredFallback:   true,
		AppendLatency:       hs,
		SyncLatency:         hs,
		SnapshotLatency:     hs,
	}
	return snap
}

// TestLintPromAcceptsWriteProm is the contract between the exporter and the
// linter: everything WriteProm can render must lint clean.
func TestLintPromAcceptsWriteProm(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, fullSnapshot())
	WriteGoRuntimeProm(&b, ReadGoRuntime())
	if errs := LintProm(strings.NewReader(b.String())); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("lint: %v", e)
		}
	}
}

// TestLintPromAcceptsSpecForms covers legal exposition the exporter happens
// not to emit: timestamps, escapes, free comments, special float values.
func TestLintPromAcceptsSpecForms(t *testing.T) {
	const src = `# a free-form comment
# HELP good_metric Described metric.
# TYPE good_metric gauge
good_metric{path="C:\\temp\\x",msg="say \"hi\"\n"} NaN 1699999999999
good_metric{path="other"} -Inf
# TYPE untyped_ok untyped
untyped_ok 3.14e-2
`
	if errs := LintProm(strings.NewReader(src)); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("lint: %v", e)
		}
	}
}

// TestLintPromCatchesViolations proves each checked class of breakage is
// actually caught — the linter guards CI, so a silent pass would render the
// metrics-lint step decorative.
func TestLintPromCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of at least one reported violation
	}{
		{
			"sample before TYPE",
			"orphan_metric 1\n",
			"before any TYPE",
		},
		{
			"invalid metric name",
			"# TYPE 0bad gauge\n",
			"malformed TYPE",
		},
		{
			"unknown type keyword",
			"# TYPE m histo\n",
			"unknown type",
		},
		{
			"TYPE after samples",
			"# TYPE m gauge\nm 1\n# TYPE m gauge\n",
			"after its samples",
		},
		{
			"duplicate HELP",
			"# HELP m one\n# HELP m two\n# TYPE m gauge\nm 1\n",
			"duplicate HELP",
		},
		{
			"unparseable value",
			"# TYPE m gauge\nm abc\n",
			"unparseable value",
		},
		{
			"bad label escape",
			"# TYPE m gauge\nm{l=\"a\\t\"} 1\n",
			"invalid escape",
		},
		{
			"unquoted label value",
			"# TYPE m gauge\nm{l=5} 1\n",
			"not quoted",
		},
		{
			"reserved label name",
			"# TYPE m gauge\nm{__name__=\"x\"} 1\n",
			"invalid label name",
		},
		{
			"duplicate label",
			"# TYPE m gauge\nm{a=\"1\",a=\"2\"} 1\n",
			"duplicate label",
		},
		{
			"unterminated label block",
			"# TYPE m gauge\nm{a=\"1\" 1\n",
			"unterminated",
		},
		{
			"bucket without le",
			"# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
			"without le",
		},
		{
			"missing +Inf bucket",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"missing le=\"+Inf\"",
		},
		{
			"non-monotone cumulative counts",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
				"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"cumulative count decreased",
		},
		{
			"non-increasing le bounds",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n" +
				"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"not increasing",
		},
		{
			"+Inf bucket disagrees with _count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
			"!= _count",
		},
		{
			"histogram missing _count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\n",
			"missing _count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := LintProm(strings.NewReader(tc.src))
			if len(errs) == 0 {
				t.Fatalf("lint accepted broken input:\n%s", tc.src)
			}
			for _, e := range errs {
				if strings.Contains(e.Msg, tc.want) {
					return
				}
			}
			t.Fatalf("no violation mentions %q; got %v", tc.want, errs)
		})
	}
}

// TestLintErrorString pins the operator-facing error rendering.
func TestLintErrorString(t *testing.T) {
	e := LintError{Line: 7, Msg: "boom"}
	if e.Error() != "line 7: boom" {
		t.Fatalf("Error() = %q", e.Error())
	}
}
