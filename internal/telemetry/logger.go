package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int32

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel parses a level name, ignoring case: the inverse of String.
func ParseLevel(s string) (Level, error) {
	for l := LevelDebug; l <= LevelError; l++ {
		if strings.EqualFold(s, l.String()) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown log level %q", s)
}

// Logger is a minimal leveled structured logger emitting logfmt-style
// lines: `ts=<RFC3339> level=info component=shard-3 msg="switch" from=RSH
// to=H4096`. It exists so the shard prefill workers and the switch path
// have a voice without dragging a logging dependency into the module; a
// nil *Logger is valid and drops everything, so call sites never nil-check.
//
// Logging happens only on cold paths (switches, prefills, server
// lifecycle); the per-line fmt allocation is irrelevant there.
type Logger struct {
	mu        sync.Mutex
	w         io.Writer
	min       Level
	component string
}

// NewLogger builds a logger writing lines at or above min to w. A nil
// writer yields a nil logger (drop everything).
func NewLogger(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{w: w, min: min}
}

// Named returns a logger stamping every line with component=name. The
// child shares the parent's writer and level.
func (l *Logger) Named(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{w: l.w, min: l.min, component: name}
}

// Enabled reports whether lines at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Debug logs at LevelDebug. kv are alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lv Level, msg string, kv []any) {
	if !l.Enabled(lv) {
		return
	}
	var b strings.Builder
	b.Grow(64 + 16*len(kv))
	b.WriteString("ts=")
	b.WriteString(time.Now().UTC().Format(time.RFC3339))
	b.WriteString(" level=")
	b.WriteString(lv.String())
	if l.component != "" {
		b.WriteString(" component=")
		b.WriteString(l.component)
	}
	b.WriteString(" msg=")
	writeValue(&b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v", kv[i])
		b.WriteByte('=')
		writeValue(&b, fmt.Sprintf("%v", kv[i+1]))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" !odd-kv=")
		writeValue(&b, fmt.Sprintf("%v", kv[len(kv)-1]))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// writeValue quotes values containing spaces, quotes or equals signs.
func writeValue(b *strings.Builder, s string) {
	if strings.ContainsAny(s, " \"=\n") {
		fmt.Fprintf(b, "%q", s)
		return
	}
	b.WriteString(s)
}
