package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestLoggerLevelsAndFormat(t *testing.T) {
	var buf strings.Builder
	mu := &sync.Mutex{}
	w := lockedWriter{mu: mu, b: &buf}
	l := NewLogger(w, LevelInfo).Named("shard-3")
	l.Debug("dropped", "k", 1)
	l.Info("estimator switch", "from", "RSH", "to", "H4096", "conf", 0.75)
	l.Warn("inline fallback", "reason", "worker backlog")
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if strings.Contains(out, "dropped") {
		t.Errorf("debug line emitted below min level: %q", out)
	}
	for _, want := range []string{
		"level=info", "component=shard-3", `msg="estimator switch"`,
		"from=RSH", "to=H4096", "conf=0.75",
		"level=warn", `reason="worker backlog"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Errorf("want 2 lines, got %d", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") {
			t.Errorf("line missing timestamp: %q", line)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("into the void", "k", "v") // must not panic
	l.Named("x").Error("still fine")
	if l.Enabled(LevelError) {
		t.Errorf("nil logger claims enabled")
	}
	if NewLogger(nil, LevelDebug) != nil {
		t.Errorf("nil writer should yield nil logger")
	}
}

func TestLoggerOddKV(t *testing.T) {
	var buf strings.Builder
	mu := &sync.Mutex{}
	l := NewLogger(lockedWriter{mu: mu, b: &buf}, LevelDebug)
	l.Debug("odd", "only-key")
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), "!odd-kv=only-key") {
		t.Errorf("odd kv not flagged: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		err  bool
	}{
		{in: "debug", want: LevelDebug},
		{in: "Info", want: LevelInfo},
		{in: "WARN", want: LevelWarn},
		{in: "error", want: LevelError},
		{in: "loud", err: true},
		{in: "", err: true},
	} {
		got, err := ParseLevel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, error %t", tc.in, got, err, tc.want, tc.err)
		}
	}
}
