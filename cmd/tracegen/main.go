// Command tracegen simulates a two-party WebRTC call over one of the
// paper's 5G cell presets — or over any registered or user-supplied
// scenario — and writes the resulting cross-layer trace as JSONL or as
// the compact binary columnar format for analysis with cmd/domino.
//
// Usage:
//
//	tracegen -cell amarisoft -duration 60 -seed 7 -o call.jsonl
//	tracegen -scenario midcall-snr-collapse -duration 40 -o collapse.jsonl
//	tracegen -format binary -o call.dmnt
//	tracegen -scenario-file examples/scenarios/custom-degraded-cell.json
//	tracegen -upload http://127.0.0.1:8077 -session call-7 -retries 5
//	tracegen -list-scenarios
//
// -cell selects a bare Table 1 preset; -scenario a registered scenario
// by name; -scenario-file a declarative scenario JSON. The three are
// mutually exclusive; with none given the amarisoft preset is used.
// -format picks the trace encoding: jsonl (default, human-greppable)
// or binary (compact columnar, the dominod fast path); cmd/domino and
// dominod sniff the format on read, so either feeds the same pipeline.
//
// -upload streams the generated trace to a running dominod instead of
// (or in addition to) writing a file, using the resumable ingest
// protocol: failed uploads retry with seeded, jittered exponential
// backoff (-retries, -backoff) and resume from the server's watermark
// rather than re-analyzing records it already accepted. -duration and
// -backoff ≤ 0 and -retries below 0 exit 2.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/domino5g/domino"
	"github.com/domino5g/domino/internal/ingest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cell := fs.String("cell", "", "cell preset (default amarisoft); see -list-scenarios for scenarios instead")
	scenarioName := fs.String("scenario", "", "registered scenario name (mutually exclusive with -cell)")
	scenarioFile := fs.String("scenario-file", "", "path to a scenario JSON file (mutually exclusive with -cell/-scenario)")
	listScenarios := fs.Bool("list-scenarios", false, "print the registered scenario catalog and exit")
	duration := fs.Int("duration", 60, "call duration in seconds (must be > 0)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	format := fs.String("format", "jsonl", "trace encoding: jsonl or binary")
	out := fs.String("o", "-", "output path ('-' for stdout)")
	upload := fs.String("upload", "", "dominod base URL to upload the trace to (e.g. http://127.0.0.1:8077)")
	session := fs.String("session", "", "session ID for -upload (default <scenario>-<seed>)")
	retries := fs.Int("retries", 5, "with -upload: retry a failed upload this many times")
	backoff := fs.Duration("backoff", 200*time.Millisecond, "with -upload: base retry delay (doubles per attempt, jittered)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	if *format != "jsonl" && *format != "binary" {
		return usageErr("-format must be jsonl or binary, got %q", *format)
	}
	if *listScenarios {
		for _, s := range domino.Scenarios() {
			fmt.Fprintf(stdout, "%-24s cell=%-12s %s\n", s.Name, s.Cell, s.Description)
		}
		return 0
	}
	if *retries < 0 {
		return usageErr("-retries must be >= 0, got %d", *retries)
	}
	if *backoff <= 0 {
		return usageErr("-backoff must be > 0, got %v", *backoff)
	}
	if *duration <= 0 {
		return usageErr("-duration must be > 0, got %d", *duration)
	}
	selected := 0
	for _, f := range []string{*cell, *scenarioName, *scenarioFile} {
		if f != "" {
			selected++
		}
	}
	if selected > 1 {
		return usageErr("-cell, -scenario, and -scenario-file are mutually exclusive")
	}

	// Resolve the workload: scenario file, registered scenario, or bare
	// cell preset (bare presets run through their registered scenario so
	// every trace is labeled).
	var sc domino.Scenario
	switch {
	case *scenarioFile != "":
		f, err := os.Open(*scenarioFile)
		if err != nil {
			return fail(err)
		}
		sc, err = domino.ParseScenario(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	case *scenarioName != "":
		s, err := domino.ScenarioByName(*scenarioName)
		if err != nil {
			return usageErr("%v", err)
		}
		sc = s
	default:
		name := *cell
		if name == "" {
			name = "amarisoft"
		}
		cfg, err := domino.PresetByName(name)
		if err != nil {
			return usageErr("%v", err)
		}
		sc = presetScenario(cfg)
	}

	sess, err := domino.NewScenarioSession(sc, *seed)
	if err != nil {
		return fail(err)
	}
	set := sess.Run(domino.Time(*duration) * domino.Second)

	write := domino.WriteTrace
	if *format == "binary" {
		write = domino.WriteTraceBinary
	}
	// Serialize once: what is uploaded and what is written are the same
	// bytes.
	var buf bytes.Buffer
	if err := write(&buf, set); err != nil {
		return fail(err)
	}
	if *upload != "" {
		// The ingest client owns retry and resume.
		contentType := ingest.ContentTypeJSONL
		if *format == "binary" {
			contentType = ingest.ContentTypeBinary
		}
		id := *session
		if id == "" {
			id = fmt.Sprintf("%s-%d", sc.Name, *seed)
		}
		client := ingest.New(ingest.Options{
			BaseURL: *upload,
			Retries: *retries,
			Backoff: *backoff,
			Seed:    int64(*seed),
		})
		stats, err := client.Upload(context.Background(), id, contentType, buf.Bytes())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "tracegen: uploaded session %s to %s (%d attempt(s), %d resumed, %d shed-retries)\n",
			id, *upload, stats.Attempts, stats.Resumed, stats.ShedRetries)
	}
	if *upload == "" || *out != "-" {
		w := io.Writer(stdout)
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return fail(err)
		}
	}
	c := set.Counts()
	fmt.Fprintf(stderr, "tracegen: %s (scenario %s), %ds: %d DCI, %d gNB, %d packets, %d stats records\n",
		set.CellName, sc.Name, *duration, c.DCI, c.GNBLog, c.Packets, c.WebRTC)
	return 0
}

// presetScenario maps a resolved cell preset to its registered
// dynamics-free scenario, so bare -cell traces carry the canonical
// scenario label; an unregistered cell gets an ad hoc wrapper.
func presetScenario(cfg domino.CellConfig) domino.Scenario {
	for _, s := range domino.Scenarios() {
		if len(s.Dynamics) != 0 {
			continue
		}
		if c, err := s.CellConfig(); err == nil && c.Name == cfg.Name {
			return s
		}
	}
	return domino.Scenario{Name: cfg.Name, Cell: cfg.Name}
}
