package main

import (
	"strings"
	"testing"
)

// TestTuneOneCell sweeps a one-cell grid at a small query budget: the
// cell is reported, ranked and recommended.
func TestTuneOneCell(t *testing.T) {
	code, stdout, stderr := runLab(t, "tune", "-queries", "60", "-pretrain", "30",
		"-taus", "0.75", "-betas", "0.8", "-graces", "100")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"sweeping 1 configurations", "[ 1/1] τ=0.75 β=0.80 grace=100", "recommended: -tau 0.75 -beta 0.80 (grace 100)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout does not contain %q:\n%s", want, stdout)
		}
	}
}

// TestTuneBadInput: a malformed sweep list exits 2 with the reason on
// stderr, before any cell runs.
func TestTuneBadInput(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-taus", "0.6,x"}, `"x" is not a number in (0,1)`},
		{[]string{"-betas", "NaN"}, `"NaN" is not a number in (0,1)`},
		{[]string{"-graces", "100,1.5"}, `"1.5" is not an integer >= 0`},
		{[]string{"-taus", ""}, `"" is not a number in (0,1)`},
	} {
		code, stdout, stderr := runLab(t, append([]string{"tune"}, tc.args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr, tc.stderr)
		}
		if stdout != "" {
			t.Errorf("%v: wrote to stdout: %q", tc.args, stdout)
		}
	}
}
