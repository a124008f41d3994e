// Command domino analyzes a cross-layer trace — JSONL or the compact
// binary columnar format, sniffed from the file's first bytes — with
// the Domino causal-chain detector and reports detected events,
// matched chains, and root-cause statistics.
//
// Usage:
//
//	domino -trace call.jsonl [-graph chains.txt] [-codegen out.go] [-v]
//	domino -trace call.dmnt
//	tracegen -cell amarisoft | domino -trace -
//
// Without -graph the paper's default Fig. 9 graph (24 chains) is used.
// -codegen writes the generated Go detector for the graph and exits.
//
// The trace is streamed through the incremental analyzer
// (domino.NewTraceReader + domino.StreamRecords): only the sliding
// detection window is buffered, never the whole trace, so arbitrarily
// long captures analyze in O(window) memory. Traces written by current
// tooling are time-ordered and stream directly; a type-grouped legacy
// file is rejected with a late-record error — rewrite it with the
// current writer (read + write once) to make it streamable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/domino5g/domino"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("domino", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tracePath := fs.String("trace", "", "path to a trace set, JSONL or binary, or - for standard input (required unless -codegen)")
	graphPath := fs.String("graph", "", "path to a causal-chain DSL file (default: built-in Fig. 9 graph)")
	codegen := fs.String("codegen", "", "write the generated Go detector to this path and exit")
	verbose := fs.Bool("v", false, "print per-window chain matches")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "domino:", err)
		return 1
	}

	graph := domino.DefaultGraph()
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			return fail(err)
		}
		g, err := domino.ParseChains(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("parsing %s: %w", *graphPath, err))
		}
		graph = g
	}

	if *codegen != "" {
		src := domino.GenerateGo(graph, "detect")
		if err := os.WriteFile(*codegen, []byte(src), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote generated detector (%d chains) to %s\n", len(graph.EnumerateChains()), *codegen)
		return 0
	}

	if *tracePath == "" {
		fmt.Fprintln(stderr, "domino: -trace is required unless -codegen is given")
		fs.Usage()
		return 2
	}
	in := stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	analyzer, err := domino.NewAnalyzer(domino.DetectorConfig{}, graph)
	if err != nil {
		return fail(err)
	}
	report, err := domino.StreamRecords(in, domino.NewStreamAnalyzer(analyzer, domino.StreamConfig{}))
	if err != nil {
		return fail(fmt.Errorf("streaming trace: %w", err))
	}

	label := report.CellName
	if report.Scenario != "" {
		label += ", scenario " + report.Scenario
	}
	fmt.Fprintf(stdout, "trace: %s (%v, %d chains configured)\n\n", label, report.Duration, len(analyzer.Chains()))
	// The classes are the running graph's own, in its first-mention order.
	causes, consequences := analyzer.Graph().Causes(), analyzer.Graph().Consequences()
	fmt.Fprintln(stdout, "5G causes (events/min):")
	for _, c := range causes {
		fmt.Fprintf(stdout, "  %-18s %6.2f\n", c, report.EventsPerMinute(c))
	}
	fmt.Fprintln(stdout, "\nWebRTC consequences (events/min):")
	for _, c := range consequences {
		fmt.Fprintf(stdout, "  %-22s %6.2f\n", c, report.EventsPerMinute(c))
	}
	fmt.Fprintf(stdout, "\ndegradation events/min: %.2f\n",
		report.DegradationEventsPerMinute(consequences))

	fmt.Fprintln(stdout, "\ntop matched chains:")
	for _, cc := range report.TopChains(10) {
		fmt.Fprintf(stdout, "  %4d×  %s\n", cc.Events, cc.Chain.String())
	}

	probs := report.ConditionalProbabilities(causes, consequences)
	fmt.Fprintln(stdout, "\nP(cause | consequence):")
	for _, cons := range consequences {
		fmt.Fprintf(stdout, "  %s:\n", cons)
		for _, cause := range causes {
			if p := probs[cons][cause]; p > 0 {
				fmt.Fprintf(stdout, "    %-18s %5.1f%%\n", cause, p*100)
			}
		}
		if p := probs[cons]["unknown"]; p > 0 {
			fmt.Fprintf(stdout, "    %-18s %5.1f%%\n", "unknown", p*100)
		}
	}

	if *verbose {
		fmt.Fprintln(stdout, "\nper-window matches:")
		for _, w := range report.Windows {
			if len(w.ChainIDs) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  [%v, %v) chains=%v causes=%v\n", w.Vector.Start, w.Vector.End, w.ChainIDs, w.Causes)
		}
	}
	return 0
}
