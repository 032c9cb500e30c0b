// Command latest-metrics-lint validates a Prometheus text exposition
// (format 0.0.4) against the format contract scrapers depend on: line
// grammar, name charsets, HELP/TYPE placement, label escaping, and
// histogram structure (le on every bucket, cumulative monotone counts,
// +Inf equal to _count).
//
// It is the CI metrics-lint gate: point it at a live daemon with -url, at
// a captured scrape file, or pipe a scrape through stdin. Exit status is 0
// for a clean exposition, 1 with every violation on stderr otherwise.
//
//	latest-metrics-lint -url http://127.0.0.1:9090/metrics
//	latest-metrics-lint metrics.txt
//	curl -s $ADMIN/metrics | latest-metrics-lint
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/spatiotext/latest/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entrypoint: arguments and streams in, exit code out.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latest-metrics-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "scrape this /metrics URL instead of reading files or stdin")
	timeout := fs.Duration("timeout", 10*time.Second, "scrape timeout with -url")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "latest-metrics-lint: "+format+"\n", a...)
		return 1
	}

	type source struct {
		name string
		r    io.Reader
	}
	var sources []source
	switch {
	case *url != "":
		cl := &http.Client{Timeout: *timeout}
		resp, err := cl.Get(*url)
		if err != nil {
			return fatal("scrape %s: %v", *url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fatal("scrape %s: status %s", *url, resp.Status)
		}
		sources = append(sources, source{*url, resp.Body})
	case fs.NArg() > 0:
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return fatal("%v", err)
			}
			defer f.Close()
			sources = append(sources, source{path, f})
		}
	default:
		sources = append(sources, source{"<stdin>", stdin})
	}

	failed := false
	for _, src := range sources {
		errs := telemetry.LintProm(src.r)
		for _, e := range errs {
			fmt.Fprintf(stderr, "%s: %v\n", src.name, e)
		}
		if len(errs) > 0 {
			failed = true
		} else {
			fmt.Fprintf(stdout, "%s: exposition clean\n", src.name)
		}
	}
	if failed {
		return 1
	}
	return 0
}
