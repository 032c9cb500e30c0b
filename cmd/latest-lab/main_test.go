package main

import (
	"bytes"
	"strings"
	"testing"
)

func runLab(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = lab(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestUsageErrors: every out-of-range value, and every flag the chosen
// subcommand or mode does not read, is refused before anything runs, with
// exit 2 and the flag's name.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"run", "-report", "0"}, "-report"},
		{[]string{"run", "-queries", "0", "-pretrain", "0"}, "-queries"},
		{[]string{"run", "-pretrain", "0"}, "-pretrain"},
		{[]string{"workload", "-queries", "0"}, "-queries"},
		{[]string{"workload", "-queries", "-3"}, "-queries"},
		{[]string{"workload", "-export", "0"}, "-export"},
		{[]string{"run", "-dataset", "Flickr"}, "-dataset"},
		{[]string{"workload", "-workload", "TwQW9"}, "-workload"},
		{[]string{"fig", "fig3", "-dataset", "eBird"}, "-dataset"},
		{[]string{"fig", "fig3", "-workload", "TwQW3"}, "-workload"},
		{[]string{"tune", "-window", "2000"}, "-window"},
		{[]string{"tune", "-rate", "1"}, "-rate"},
		{[]string{"workload", "-pretrain", "5"}, "-pretrain"},
		{[]string{"workload", "-alpha", "0.3"}, "-alpha"},
		{[]string{"workload", "-window", "2000"}, "-window"},
		{[]string{"workload", "-dataset", "eBird"}, "-dataset does not apply without -export"},
		{[]string{"workload", "-rate", "1"}, "-rate does not apply without -export"},
		{[]string{"workload", "-export", "5", "-workload", "TwQW1"}, "-workload does not apply with -export"},
		{[]string{"workload", "-export", "5", "-queries", "5"}, "-queries does not apply with -export"},
		{[]string{"workload", "-export", "5", "-emit"}, "-emit does not apply with -export"},
		{[]string{"workload", "-list", "-workload", "TwQW1"}, "-workload does not apply with -list"},
		{[]string{"run", "-addr", "127.0.0.1:1", "-pretrain", "5"}, "-pretrain does not apply with -addr"},
		{[]string{"run", "-addr", "127.0.0.1:1", "-alpha", "0.3"}, "-alpha does not apply with -addr"},
		{[]string{"run", "-addr", "127.0.0.1:1", "-tau", "0.5"}, "-tau does not apply with -addr"},
		{[]string{"run", "-addr", "127.0.0.1:1", "-beta", "0.5"}, "-beta does not apply with -addr"},
		{[]string{"run", "-input", "whatever.jsonl", "-dataset", "eBird"}, "-dataset does not apply with -input"},
		{[]string{"run", "-input", "whatever.jsonl", "-rate", "1"}, "-rate does not apply with -input"},
		{[]string{"run", "-world", "-1,-1,1,1"}, "-world does not apply without -input"},
		{[]string{"tune", "-taus", "7"}, "-taus"},
		{[]string{"tune", "-taus", "0.6,x"}, "-taus"},
		{[]string{"tune", "-betas", "NaN"}, "-betas"},
		{[]string{"tune", "-graces", "-5"}, "-graces"},
		{[]string{"tune", "-graces", "100,1.5"}, "-graces"},
		{[]string{"tune", "-churn-weight", "-1"}, "-churn-weight"},
		{[]string{"tune", "-churn-weight", "Inf"}, "-churn-weight"},
		{[]string{"run", "-rate", "NaN"}, "-rate"},
		{[]string{"run", "-tau", "1"}, "-tau"},
		{[]string{"run", "-beta", "0"}, "-beta"},
		{[]string{"run", "-alpha", "1.5"}, "-alpha"},
		{[]string{"fig", "fig3", "-alpha", "-1"}, "-alpha"},
		{[]string{"fig", "fig3", "-scale", "0"}, "-scale"},
		{[]string{"run", "-rate", "0"}, "-rate"},
		{[]string{"run", "-window", "0"}, "-window"},
		{[]string{"run", "-input", "whatever.jsonl", "-world", "1,2,3"}, "-world"},
		{[]string{"run", "-world", "0,0,0,1"}, "-world"},
		{[]string{"run", "stray"}, `unexpected argument "stray"`},
		{[]string{"run", "-no-such-flag"}, "no-such-flag"},
		{[]string{"bogus"}, "usage: latest-lab"},
		{nil, "usage: latest-lab"},
	} {
		code, stdout, stderr := runLab(t, tc.args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%q: stderr does not contain %q:\n%s", tc.args, tc.stderr, stderr)
		}
		if stdout != "" {
			t.Errorf("%q: wrote to stdout: %q", tc.args, stdout)
		}
	}
}
