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
// stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/domino5g/domino/internal/experiments"
	"github.com/domino5g/domino/internal/sim"
)

func main() {
	duration := flag.Int("duration", 60, "per-session call duration in seconds")
	sessions := flag.Int("sessions", 1, "sessions per cell for aggregate statistics")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 1, "worker-pool width (0 = all cores)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	opts := experiments.Options{
		Duration: sim.Time(*duration) * sim.Second,
		Sessions: *sessions,
		Seed:     *seed,
		Workers:  w,
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	start := time.Now()
	// One run at every width, so artifacts that analyze the same preset
	// groups share them; the artifacts print when the run ends.
	results, err := experiments.RunParallel(ids, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	for _, res := range results {
		printResult(res)
	}
	fmt.Fprintf(os.Stderr, "%-10s %8.3fs  (%d artifacts, %d workers)\n",
		"wall", time.Since(start).Seconds(), len(ids), w)
}

func printResult(res experiments.Result) {
	fmt.Printf("### %s\n", res.Title)
	fmt.Printf("    [%s]\n\n", res.PaperRef)
	fmt.Println(res.Text)
	fmt.Println()
	fmt.Fprintf(os.Stderr, "%-10s %8.3fs\n", res.ID, res.Elapsed.Seconds())
}
