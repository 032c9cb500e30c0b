// latest-lab is the offline workbench: it regenerates the paper's tables
// and figures (fig), narrates a live run (run), grid-searches the switch's
// knobs (tune) and inspects workloads (workload). -dataset, -workload,
// -seed, -rate, -queries, -pretrain, -alpha and -window are defined once;
// each subcommand registers those it reads. A value out of range, or a flag
// the chosen mode does not read, is a usage error (exit 2) that names the
// flag. `latest-lab <subcommand> -h` lists a subcommand's flags with its
// defaults.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

const usage = `usage: latest-lab <subcommand> [flags]
  fig <id|all>  regenerate a table or figure (fig -list names them)
  run           drive an engine over a stream and narrate the adaptor
  tune          grid-search τ, β and the tree's grace period
  workload      summarize or emit a query workload, or -export a stream
`

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"fig": figCmd, "run": runCmd, "tune": tuneCmd, "workload": workloadCmd,
}

// latencyOf, when set, replaces measured estimate latency in the switch's
// training signal for run and fig. Tests set it so that two runs make the
// same switching decisions.
var latencyOf func(name string, q *stream.Query, measured time.Duration) time.Duration

func main() {
	os.Exit(lab(os.Args[1:], os.Stdout, os.Stderr))
}

// lab is main minus the process boundary, so tests can drive every
// subcommand in-process.
func lab(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	return subcommands[args[0]](args[1:], stdout, stderr)
}

// options holds every flag's value: the shared ones newFlagSet registers,
// then those of one or two subcommands each.
type options struct {
	dataset     string
	workload    string
	seed        int64
	rate        float64
	queries     int
	pretrain    int
	alpha       float64
	windowMS    int
	list        bool
	asJSON      bool
	emit        bool
	input       string
	addr        string
	scale       float64
	tau         float64
	beta        float64
	churnWeight float64
	report      int
	export      int
	world       geo.Rect
	taus        []float64
	betas       []float64
	graces      []int
}

// defaults are the shared flags' defaults for run, tune and workload. fig's
// are all zero, which takes each experiment's own.
func defaults() options {
	return options{
		dataset:  "Twitter",
		workload: "TwQW1",
		seed:     1,
		rate:     2,
		queries:  3000,
		pretrain: 600,
		alpha:    0.5,
		windowMS: 30_000,
	}
}

// newFlagSet registers over o, whose values are the defaults, the shared
// flags named in shared. Values given on the command line are checked as
// they are parsed; the defaults are not, so fig's zeros can mean "the
// experiment's".
func newFlagSet(sub string, o *options, stderr io.Writer, shared ...string) *flag.FlagSet {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Var(checked[string]{&o.dataset, oneOf(datagen.Names())}, "dataset", "dataset `name`: "+strings.Join(datagen.Names(), ", "))
	all.Var(checked[string]{&o.workload, oneOf(workload.Names())}, "workload", "workload preset `name` (TwQW1..6, EbRQW1..6, CiQW1..3, TwSwitch)")
	all.Int64Var(&o.seed, "seed", o.seed, "random seed")
	all.Var(checked[float64]{&o.rate, within(0, math.Inf(1), false)}, "rate", "stream `rate` in objects per virtual ms")
	all.Var(checked[int]{&o.queries, atLeast(1)}, "queries", "query count `n` (incremental phase for fig, run and tune)")
	all.Var(checked[int]{&o.pretrain, atLeast(1)}, "pretrain", "pre-training query count `n`")
	all.Var(checked[float64]{&o.alpha, within(0, 1, true)}, "alpha", "accuracy/latency weight `α`")
	all.Var(checked[int]{&o.windowMS, atLeast(1)}, "window", "time window T in virtual `ms`")
	fs := flag.NewFlagSet("latest-lab "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, name := range shared {
		f := all.Lookup(name)
		fs.Var(f.Value, name, f.Usage)
	}
	return fs
}

// parse parses args into fs and reports whether the command should go on.
func parse(fs *flag.FlagSet, args []string) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return false
	}
	return true
}

// refuse reports whether any of names was set on fs, and names the first:
// a flag the chosen mode does not read is a usage error, not ignored.
func refuse(fs *flag.FlagSet, mode string, names ...string) (refused bool) {
	fs.Visit(func(f *flag.Flag) {
		if !refused && slices.Contains(names, f.Name) {
			fmt.Fprintf(fs.Output(), "%s: -%s does not apply %s\n", fs.Name(), f.Name, mode)
			refused = true
		}
	})
	return refused
}

// checked is a flag value whose Set parses and checks the text, so a bad
// value fails fs.Parse with the flag's name.
type checked[T any] struct {
	v     *T
	parse func(string) (T, error)
}

func (c checked[T]) String() string {
	// "" for the zero value, which flag.PrintDefaults compares against, and
	// for a zero default, which fig reads as "the experiment's own".
	if c.v == nil || reflect.ValueOf(*c.v).IsZero() {
		return ""
	}
	return fmt.Sprint(*c.v)
}

func (c checked[T]) Set(s string) (err error) {
	*c.v, err = c.parse(s)
	return err
}

func oneOf(names []string) func(string) (string, error) {
	return func(s string) (string, error) {
		if !slices.Contains(names, s) {
			return "", fmt.Errorf("unknown %q (known: %s)", s, strings.Join(names, ", "))
		}
		return s, nil
	}
}

func atLeast(min int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < min {
			return 0, fmt.Errorf("%q is not an integer >= %d", s, min)
		}
		return n, nil
	}
}

// within accepts a number in the open interval (lo, hi), or the closed one
// [lo, hi] when closed is set.
func within(lo, hi float64, closed bool) func(string) (float64, error) {
	return func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (lo < v && v < hi || closed && (v == lo || v == hi)) {
			return v, nil
		}
		if closed {
			return 0, fmt.Errorf("%q is not a number in [%g,%g]", s, lo, hi)
		}
		return 0, fmt.Errorf("%q is not a number in (%g,%g)", s, lo, hi)
	}
}

// listOf parses a comma-separated list whose every element passes one.
func listOf[T any](one func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) (out []T, err error) {
		for _, part := range strings.Split(s, ",") {
			v, err := one(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
}
