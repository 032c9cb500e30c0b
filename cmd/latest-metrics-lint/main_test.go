package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun covers the gate's three outcomes: a clean exposition, a
// violation, and an unreadable input.
func TestRun(t *testing.T) {
	golden := filepath.Join("..", "..", "internal", "telemetry", "testdata", "metrics.golden")
	missing := filepath.Join(t.TempDir(), "absent.txt")
	cases := []struct {
		name   string
		args   []string
		stdin  string
		code   int
		stdout string
		stderr string
	}{
		{"golden exposition lints clean", []string{golden}, "", 0, "exposition clean", ""},
		{"+Inf bucket disagrees with _count", nil,
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
			1, "", "!= _count"},
		{"missing file", []string{missing}, "", 1, "", "absent.txt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout.String(), tc.stdout)
			}
			if tc.code == 0 && stderr.Len() != 0 {
				t.Errorf("clean run wrote to stderr: %q", stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}
