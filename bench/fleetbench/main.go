// Command fleetbench is the repository's benchmark. It builds
// cmd/dominod and cmd/dominolb, generates a seeded trace corpus, starts
// the real binaries as child processes, drives one workload against them
// from this single separate process with at most nproc senders, checks
// every answer against a reference, and prints the named metrics.
//
//	go run -C bench ./fleetbench --workload bulk-binary --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same workload runs with spans recorded, followed by
// an in-process replay of the corpus through each layer's public
// functions; the per-layer metrics and the cost ledger come from that
// run. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runLimit is the watchdog on one workload run, set-up included: the
// contract allows a run 180 s.
const runLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "one of bulk-binary, bulk-jsonl, fleet-live, query-mix; empty runs all four in turn")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	calib := flag.Bool("calibrate", false, "measure fleet-live's closed-loop chunk capacity and print the rates it implies, instead of running a workload")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var res any
	var err error
	switch {
	case *calib:
		res, err = calibrate(ctx, *seed)
	case *workload == "":
		res, err = runAll(ctx, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	default:
		res, _, err = run(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	stop()
	// Whatever happened, no child and no scratch directory outlives us.
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
