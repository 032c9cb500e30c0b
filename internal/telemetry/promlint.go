package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// promlint.go is a self-contained validator for the Prometheus text
// exposition format (version 0.0.4) — the contract every scraper depends
// on. It exists so a new metric family cannot silently break scrapes: the
// golden exposition test runs it over WriteProm's output, and the CI
// metrics-lint step runs it over a live /metrics scrape from a running
// latestd. It checks the subset of the spec this exporter can violate:
// line grammar, metric/label name charsets, HELP/TYPE placement, label
// escaping, float-parseable values, and histogram structure (le on every
// bucket, cumulative monotone counts, +Inf bucket equal to _count).

// LintError is one exposition violation with its line number.
type LintError struct {
	Line int
	Msg  string
}

func (e LintError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// LintProm validates a text exposition read from r, returning every
// violation found (nil when clean).
func LintProm(r io.Reader) []LintError {
	l := promLinter{
		types:   map[string]string{},
		helped:  map[string]bool{},
		sampled: map[string]bool{},
		hists:   map[string]*histCheck{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		l.line(n, sc.Text())
	}
	if err := sc.Err(); err != nil {
		l.errs = append(l.errs, LintError{n, "read: " + err.Error()})
	}
	l.finish(n)
	return l.errs
}

type histCheck struct {
	// per label-set (labels minus le): last cumulative count and le bound,
	// the +Inf count, and the _count value once seen.
	series map[string]*histSeries
}

type histSeries struct {
	lastLE   float64
	lastCum  uint64
	infCount uint64
	hasInf   bool
	count    uint64
	hasCount bool
	line     int
}

type promLinter struct {
	errs    []LintError
	types   map[string]string // family -> type
	helped  map[string]bool
	sampled map[string]bool // family has emitted samples
	hists   map[string]*histCheck
}

func (l *promLinter) errf(line int, format string, args ...any) {
	l.errs = append(l.errs, LintError{line, fmt.Sprintf(format, args...)})
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// family maps a sample name to its declared family: histogram samples
// attach to the family without the _bucket/_sum/_count suffix when that
// family was declared a histogram.
func (l *promLinter) family(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if l.types[base] == "histogram" || l.types[base] == "summary" {
				return base
			}
		}
	}
	return name
}

func (l *promLinter) line(n int, s string) {
	if strings.TrimSpace(s) == "" {
		return
	}
	if strings.HasPrefix(s, "# HELP ") {
		rest := s[len("# HELP "):]
		name, _, ok := strings.Cut(rest, " ")
		if !ok || name == "" {
			l.errf(n, "HELP without name and text: %q", s)
			return
		}
		if !validMetricName(name) {
			l.errf(n, "HELP for invalid metric name %q", name)
		}
		if l.helped[name] {
			l.errf(n, "duplicate HELP for %q", name)
		}
		if l.sampled[name] {
			l.errf(n, "HELP for %q after its samples", name)
		}
		l.helped[name] = true
		return
	}
	if strings.HasPrefix(s, "# TYPE ") {
		rest := s[len("# TYPE "):]
		name, typ, ok := strings.Cut(rest, " ")
		if !ok || !validMetricName(name) {
			l.errf(n, "malformed TYPE line: %q", s)
			return
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			l.errf(n, "unknown type %q for %q", typ, name)
		}
		if _, dup := l.types[name]; dup {
			l.errf(n, "duplicate TYPE for %q", name)
		}
		if l.sampled[name] {
			l.errf(n, "TYPE for %q after its samples", name)
		}
		l.types[name] = typ
		return
	}
	if strings.HasPrefix(s, "#") {
		// Free-form comment: legal, ignored.
		return
	}
	l.sample(n, s)
}

func (l *promLinter) sample(n int, s string) {
	// name[{labels}] value [timestamp]
	var name, labels, rest string
	if i := strings.IndexByte(s, '{'); i >= 0 {
		name = s[:i]
		j := strings.LastIndexByte(s, '}')
		if j < i {
			l.errf(n, "unterminated label block: %q", s)
			return
		}
		labels = s[i+1 : j]
		rest = strings.TrimSpace(s[j+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(s, " ")
		if !ok {
			l.errf(n, "sample without value: %q", s)
			return
		}
	}
	if !validMetricName(name) {
		l.errf(n, "invalid metric name %q", name)
		return
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		l.errf(n, "expected value [timestamp] after %q, got %q", name, rest)
		return
	}
	val, err := parsePromValue(fields[0])
	if err != nil {
		l.errf(n, "%s: unparseable value %q", name, fields[0])
		return
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			l.errf(n, "%s: unparseable timestamp %q", name, fields[1])
		}
	}
	labelMap, perr := parseLabels(labels)
	if perr != "" {
		l.errf(n, "%s: %s", name, perr)
		return
	}

	fam := l.family(name)
	l.sampled[fam] = true
	if _, ok := l.types[fam]; !ok {
		l.errf(n, "sample %q before any TYPE for family %q", name, fam)
	}

	if l.types[fam] == "histogram" {
		l.histSample(n, fam, name, labelMap, val)
	}
}

// parsePromValue accepts Prometheus float syntax including +Inf/-Inf/NaN.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf", "-Inf", "NaN":
		// strconv accepts these too, but be explicit about the spec forms.
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `k="v",k2="v2"`, validating names and escape
// sequences; returns a description of the first violation.
func parseLabels(s string) (map[string]string, string) {
	out := map[string]string{}
	if s == "" {
		return out, ""
	}
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, fmt.Sprintf("label pair without '=': %q", s[i:])
		}
		name := s[i : i+j]
		if !validLabelName(name) {
			return nil, fmt.Sprintf("invalid label name %q", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Sprintf("duplicate label %q", name)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Sprintf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Sprintf("label %q: dangling escape", name)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Sprintf("label %q: invalid escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Sprintf("label %q: unterminated value", name)
		}
		out[name] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Sprintf("expected ',' between labels, got %q", s[i:])
			}
			i++
		}
	}
	return out, ""
}

// histSample folds one histogram-family sample into the structural check.
func (l *promLinter) histSample(n int, fam, name string, labels map[string]string, val float64) {
	hc := l.hists[fam]
	if hc == nil {
		hc = &histCheck{series: map[string]*histSeries{}}
		l.hists[fam] = hc
	}
	// Series key: labels minus le, order-normalized.
	var parts []string
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	slices.Sort(parts)
	key := strings.Join(parts, ",")
	hs := hc.series[key]
	if hs == nil {
		hs = &histSeries{lastLE: -1, line: n}
		hc.series[key] = hs
	}

	switch {
	case strings.HasSuffix(name, "_bucket"):
		le, ok := labels["le"]
		if !ok {
			l.errf(n, "%s_bucket without le label", fam)
			return
		}
		if le == "+Inf" {
			hs.hasInf = true
			hs.infCount = uint64(val)
			return
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			l.errf(n, "%s_bucket: unparseable le %q", fam, le)
			return
		}
		if bound <= hs.lastLE {
			l.errf(n, "%s_bucket: le %q not increasing", fam, le)
		}
		if uint64(val) < hs.lastCum {
			l.errf(n, "%s_bucket{le=%q}: cumulative count decreased", fam, le)
		}
		hs.lastLE = bound
		hs.lastCum = uint64(val)
	case strings.HasSuffix(name, "_count"):
		hs.count = uint64(val)
		hs.hasCount = true
	}
}

// finish runs the end-of-stream histogram checks.
func (l *promLinter) finish(lastLine int) {
	for fam, hc := range l.hists {
		for key, hs := range hc.series {
			at := hs.line
			where := fam
			if key != "" {
				where += "{" + key + "}"
			}
			if !hs.hasInf {
				l.errf(at, "%s: histogram series missing le=\"+Inf\" bucket", where)
				continue
			}
			if !hs.hasCount {
				l.errf(at, "%s: histogram series missing _count", where)
				continue
			}
			if hs.infCount != hs.count {
				l.errf(at, "%s: +Inf bucket %d != _count %d", where, hs.infCount, hs.count)
			}
			if hs.lastCum > hs.infCount {
				l.errf(at, "%s: finite bucket count %d exceeds +Inf %d", where, hs.lastCum, hs.infCount)
			}
		}
	}
	_ = lastLine
}
