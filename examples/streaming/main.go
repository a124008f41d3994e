// Streaming: analyze a call while it is "happening". A simulated
// session is serialized to JSONL down one end of a pipe — standing in
// for a live collector — and a streaming analyzer consumes it from the
// other end record-by-record, printing each root-cause chain as it
// starts to match, long before the call ends. The final report
// is identical to what batch analysis of the full trace would produce.
package main

import (
	"fmt"
	"io"
	"log"

	"github.com/domino5g/domino"
)

func main() {
	// 1. Simulate a call on the congested T-Mobile FDD cell and treat
	// its trace as a live session feed.
	cell, err := domino.PresetByName("fdd")
	if err != nil {
		log.Fatal(err)
	}
	session, err := domino.NewSession(domino.DefaultSessionConfig(cell, 42))
	if err != nil {
		log.Fatal(err)
	}
	traceSet := session.Run(30 * domino.Second)

	pr, pw := io.Pipe()
	go func() {
		// The "collector" side: records leave in timestamp order, the
		// way a live exporter would emit them.
		pw.CloseWithError(domino.WriteTrace(pw, traceSet))
	}()

	// 2. The "operator" side: an incremental analyzer that surfaces
	// root causes live, as windows close.
	analyzer, err := domino.NewAnalyzer(domino.DetectorConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	sa := domino.NewStreamAnalyzer(analyzer, domino.StreamConfig{})
	sa.SetHooks(liveDiagnosis{})
	report, err := domino.StreamRecords(pr, sa)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The final report matches batch analysis of the same trace.
	stats := sa.Stats()
	fmt.Printf("\nstreamed %d records, %d windows; peak buffer %d samples (vs %d in the full trace)\n",
		stats.Records, stats.Windows, stats.MaxBuffered,
		func() int { c := traceSet.Counts(); return c.DCI + c.GNBLog + c.Packets + c.WebRTC }())
	fmt.Println("\n5G causes (events/min):")
	for _, cause := range domino.CauseClasses() {
		fmt.Printf("  %-18s %6.2f\n", cause, report.EventsPerMinute(cause))
	}
	fmt.Printf("\ndegradation events/min: %.2f\n",
		report.DegradationEventsPerMinute(domino.ConsequenceClasses()))
}

// liveDiagnosis hears the analyzer's live events; of those it prints
// one: a causal chain starting to match.
type liveDiagnosis struct{ domino.NopStreamHooks }

func (liveDiagnosis) ChainRunOpened(chain string, at int64) {
	fmt.Printf("  from %v, live diagnosis: %s\n", domino.Time(at), chain)
}
