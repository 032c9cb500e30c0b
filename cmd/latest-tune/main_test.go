package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunOneCell sweeps a one-cell grid at a small query budget: the cell
// is reported, ranked and recommended.
func TestRunOneCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-queries", "60", "-pretrain", "30", "-taus", "0.75", "-betas", "0.8", "-graces", "100"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{"sweeping 1 configurations", "[ 1/1] τ=0.75 β=0.80 grace=100", "recommended: -tau 0.75 -beta 0.80 (grace 100)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout does not contain %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunBadInput: a malformed sweep list or flag exits 2 with the reason
// on stderr, before any cell runs.
func TestRunBadInput(t *testing.T) {
	cases := []struct {
		args   []string
		stderr string
	}{
		{[]string{"-taus", "0.6,x"}, `bad float "x"`},
		{[]string{"-betas", "NaN"}, `bad float "NaN"`},
		{[]string{"-graces", "100,1.5"}, `bad int "1.5"`},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %q", tc.args, stdout.String())
		}
	}
}
