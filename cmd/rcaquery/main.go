// Command rcaquery runs longitudinal queries over a fleet RCA store's
// checkpoint file offline — the same query engine dominod serves on
// /query and /incidents/similar, pointed at a file instead of a live
// service. The checkpoint is binary (internal/rcastore's CRC-framed
// segments); rcaquery, like /query, is how to read it as text or JSON.
//
// Usage:
//
//	rcaquery -store fleet.spill [filters] [action]
//
// Filters (combine freely):
//
//	-cell NAME         exact cell match
//	-scenario NAME     exact scenario match
//	-cause NODE        cause class fired at least once
//	-fired a,b,c       every listed node fired
//	-session ID        exact session match
//	-from US -to US    start-time range, microseconds
//	-last DUR          only the trailing DUR of the store's timeline
//	-limit N           truncate record listings
//
// Actions (default lists matching records):
//
//	-top-chains N      rank causal chains by total collapsed runs
//	-cause-rates DUR   per-cell cause-class rates in DUR buckets
//	-similar ID        nearest prior incidents to a stored session
//	-similar-fired a,b nearest prior incidents to an explicit signature
//	-stats             store shape and retention counters
//
// Examples (the README cookbook):
//
//	rcaquery -store fleet.spill -last 1h -top-chains 5
//	rcaquery -store fleet.spill -cause ul_scheduling -cause-rates 10m
//	rcaquery -store fleet.spill -similar s0042 -k 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcaquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storePath := fs.String("store", "", "RCA-store checkpoint file (written by dominod -store-spill or Store.Spill)")
	cell := fs.String("cell", "", "filter: exact cell name")
	scenario := fs.String("scenario", "", "filter: exact scenario name")
	cause := fs.String("cause", "", "filter: cause class with at least one chain run")
	fired := fs.String("fired", "", "filter: comma-separated nodes that must all have fired")
	session := fs.String("session", "", "filter: exact session ID")
	from := fs.Int64("from", 0, "filter: minimum start time (µs)")
	to := fs.Int64("to", 0, "filter: exclusive maximum start time (µs)")
	last := fs.Duration("last", 0, "filter: trailing window measured back from the newest record")
	limit := fs.Int("limit", 0, "truncate record listings to N rows")
	topChains := fs.Int("top-chains", 0, "action: rank the top N causal chains")
	causeRates := fs.Duration("cause-rates", 0, "action: per-cell cause rates in buckets of this size")
	similar := fs.String("similar", "", "action: nearest prior incidents to this stored session")
	similarFired := fs.String("similar-fired", "", "action: nearest prior incidents to this comma-separated signature")
	k := fs.Int("k", 5, "result count for -similar/-similar-fired")
	showStats := fs.Bool("stats", false, "action: print store statistics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storePath == "" {
		fmt.Fprintln(stderr, "rcaquery: -store is required")
		fs.Usage()
		return 2
	}
	f, err := os.Open(*storePath)
	if err != nil {
		fmt.Fprintln(stderr, "rcaquery:", err)
		return 1
	}
	st, err := rcastore.Load(f, rcastore.Options{})
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "rcaquery:", err)
		return 1
	}

	q := rcastore.Query{
		From: sim.Time(*from), To: sim.Time(*to),
		Cell: *cell, Scenario: *scenario, Session: *session,
		Cause: *cause, Limit: *limit,
	}
	if *fired != "" {
		q.FiredAll = strings.Split(*fired, ",")
	}
	if *last > 0 {
		// Offline stores have no "now"; anchor the window at the newest
		// retained record so "-last 1h" means the store's final hour.
		end := st.Stats().MaxStart
		q.From = end - sim.Time(*last/time.Microsecond)
	}

	switch {
	case *showStats:
		s := st.Stats()
		fmt.Fprintf(stdout, "rows %d (inserted %d, evicted %d in %d blocks)\n", s.Rows, s.InsertedRows, s.EvictedRows, s.EvictedBlocks)
		fmt.Fprintf(stdout, "dictionaries: %d nodes, %d chains, %d causes, %d cells, %d scenarios\n",
			s.Nodes, s.Chains, s.Causes, s.Cells, s.Scenarios)
		fmt.Fprintf(stdout, "timeline: start %d..%d µs\n", int64(s.MinStart), int64(s.MaxStart))
	case *topChains > 0:
		tb := stats.NewTable("Runs", "Sessions", "Chain")
		for _, c := range st.TopChains(q, *topChains) {
			tb.AddRow(c.Runs, c.Sessions, c.Chain)
		}
		fmt.Fprint(stdout, tb.String())
	case *causeRates > 0:
		tb := stats.NewTable("Cell", "Bucket (µs)", "Cause", "Runs", "Sessions", "Runs/min")
		for _, b := range st.CauseRates(q, sim.Time(*causeRates/time.Microsecond)) {
			tb.AddRow(b.Cell, int64(b.Bucket), b.Cause, b.Runs, b.Sessions, b.RunsPerMin)
		}
		fmt.Fprint(stdout, tb.String())
	case *similar != "" || *similarFired != "":
		probe := strings.Split(*similarFired, ",")
		if *similar != "" {
			rec, ok := st.Fired(*similar)
			if !ok {
				fmt.Fprintf(stderr, "rcaquery: session %q has no stored report\n", *similar)
				return 1
			}
			probe = rec.Fired
			q.NotSession = *similar // the probe itself is not an answer
		}
		tb := stats.NewTable("Distance", "Session", "Cell", "Scenario", "Start (µs)", "Chain runs")
		for _, m := range st.Similar(probe, q, *k) {
			tb.AddRow(m.Distance, m.Session, m.Cell, m.Scenario, int64(m.Start), m.TotalChainRuns())
		}
		fmt.Fprint(stdout, tb.String())
	default:
		tb := stats.NewTable("Session", "Cell", "Scenario", "Start (µs)", "Dur (s)", "Fired", "Chain runs", "Top cause")
		for _, r := range st.Query(q) {
			top, runs := "-", 0
			for _, c := range r.Causes {
				if c.Runs > runs {
					top, runs = c.Cause, c.Runs
				}
			}
			tb.AddRow(r.Session, r.Cell, r.Scenario, int64(r.Start), r.Duration().Seconds(),
				len(r.Fired), r.TotalChainRuns(), top)
		}
		fmt.Fprint(stdout, tb.String())
	}
	return 0
}
