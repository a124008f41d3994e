// Command experiments regenerates the paper's tables and figures from
// the simulator substrate.
//
// Usage:
//
//	experiments                  # run everything on one worker
//	experiments -workers 0       # run everything across all cores
//	experiments -workers 4 fig10 table2
//	experiments -duration 120 -sessions 2 fig10
//	experiments -list
//
// Artifact text is deterministic in -seed and independent of the
// worker count; stdout is byte-identical at every -workers. Artifacts
// print when the whole run ends; per-artifact wall-clock times go to
// stderr. The flag defaults are experiments.Options' defaults; -duration
// and -sessions ≤ 0, -seed 0 and -workers below 0 exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/domino5g/domino/internal/experiments"
	"github.com/domino5g/domino/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := experiments.Options{}.Defaults()
	duration := fs.Int("duration", int(opts.Duration/sim.Second), "per-session call duration in seconds")
	fs.IntVar(&opts.Sessions, "sessions", opts.Sessions, "sessions per cell for aggregate statistics")
	fs.Uint64Var(&opts.Seed, "seed", opts.Seed, "simulation seed")
	fs.IntVar(&opts.Workers, "workers", opts.Workers, "worker-pool width (0 = all cores)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, c := range []struct {
		bad        bool
		flag, rule string
	}{
		{*duration <= 0, "duration", "positive"},
		{opts.Sessions <= 0, "sessions", "positive"},
		{opts.Seed == 0, "seed", "positive"},
		{opts.Workers < 0, "workers", "zero (all cores) or more"},
	} {
		if c.bad {
			fmt.Fprintf(stderr, "experiments: -%s must be %s, got %s\n", c.flag, c.rule, fs.Lookup(c.flag).Value)
			return 2
		}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	opts.Duration = sim.Time(*duration) * sim.Second
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	start := time.Now()
	// One run at every width, so artifacts that analyze the same preset
	// groups share them; the artifacts print when the run ends.
	results, err := experiments.RunParallel(ids, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, res := range results {
		fmt.Fprintf(stdout, "### %s\n    [%s]\n\n%s\n\n", res.Title, res.PaperRef, res.Text)
		fmt.Fprintf(stderr, "%-10s %8.3fs\n", res.ID, res.Elapsed.Seconds())
	}
	fmt.Fprintf(stderr, "%-10s %8.3fs  (%d artifacts, %d workers)\n",
		"wall", time.Since(start).Seconds(), len(ids), opts.Workers)
	return 0
}
