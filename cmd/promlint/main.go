// Command promlint validates a dominod or dominolb /metrics scrape
// (Prometheus text exposition 0.0.4 as obs.Snapshot.WriteText lays it
// out) read from files or standard input, using the checks the tests
// hold that output to and dominolb holds its backends to
// (internal/obs.Lint): HELP then TYPE before samples, contiguous
// families, counters suffixed _total and non-negative, and well-formed
// cumulative histograms.
//
//	curl -s localhost:8077/metrics | promlint
//	promlint scrape1.txt scrape2.txt
//
// Exit status 0 when every input is clean, 1 on any lint finding,
// 2 on I/O errors.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/domino5g/domino/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return lintOne("<stdin>", os.Stdin, stdout, stderr)
	}
	worst := 0
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "promlint:", err)
			return 2
		}
		code := lintOne(path, f, stdout, stderr)
		f.Close()
		if code > worst {
			worst = code
		}
	}
	return worst
}

func lintOne(name string, r io.Reader, stdout, stderr io.Writer) int {
	errs, stats := obs.Lint(r)
	for _, e := range errs {
		fmt.Fprintf(stdout, "%s: %v\n", name, e)
	}
	if len(errs) > 0 {
		fmt.Fprintf(stdout, "%s: %d problems (%d families, %d series)\n",
			name, len(errs), stats.Families, stats.Samples)
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok (%d families, %d series)\n", name, stats.Families, stats.Samples)
	return 0
}
