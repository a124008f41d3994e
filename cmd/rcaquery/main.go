// Command rcaquery answers a read over a fleet RCA store's checkpoint
// file offline, in the grammar of dominod's GET /query and
// /incidents/similar (rcastore.ParseRead): its stdout is the body a node
// holding that checkpoint answers the same GET with, so it pipes to jq.
//
// Usage (READ is a GET's path and query string, /query by default):
//
//	rcaquery -store fleet.spill [READ]
//	rcaquery -store fleet.spill '/query?last=1h&agg=top_chains&k=5' | jq .
//	rcaquery -store fleet.spill '/incidents/similar?session=s0042&k=3'
//	rcaquery -store fleet.spill -stats
//
// last= counts back from the store's newest start. A bad read exits 2,
// a session= probe the store does not hold 1, each with the node's 400
// or 404 message.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"

	"github.com/domino5g/domino/internal/rcastore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcaquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storePath := fs.String("store", "", "RCA-store checkpoint file (written by dominod -store-spill or Store.Spill)")
	showStats := fs.Bool("stats", false, "print store statistics instead of answering a read")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storePath == "" || fs.NArg() > 1 {
		fmt.Fprintln(stderr, "rcaquery: want -store FILE and at most one READ")
		fs.Usage()
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "rcaquery:", err)
		return code
	}
	f, err := os.Open(*storePath)
	if err != nil {
		return fail(1, err)
	}
	st, err := rcastore.Load(f, rcastore.Options{})
	f.Close()
	if err != nil {
		return fail(1, err)
	}
	s := st.Stats()
	if *showStats {
		fmt.Fprintf(stdout, "rows %d (inserted %d, evicted %d in %d blocks)\ndictionaries: %d nodes, %d chains, %d causes, %d cells, %d scenarios\ntimeline: start %d..%d µs\n",
			s.Rows, s.InsertedRows, s.EvictedRows, s.EvictedBlocks, s.Nodes, s.Chains, s.Causes, s.Cells, s.Scenarios, int64(s.MinStart), int64(s.MaxStart))
		return 0
	}
	u, err := url.Parse(cmp.Or(fs.Arg(0), "/query"))
	var rd rcastore.Read
	if err == nil {
		rd, err = rcastore.ParseRead(u.Path, u.RawQuery, s.MaxStart)
	}
	if err != nil {
		return fail(2, err)
	}
	if err := st.Resolve(&rd); err != nil {
		return fail(1, err)
	}
	if _, err := stdout.Write(st.Answer(nil, rd)); err != nil {
		return fail(1, err)
	}
	return 0
}
