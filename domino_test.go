package domino

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestPublicAPIPipeline exercises the documented end-to-end flow: pick
// a preset, simulate a call, analyze it, and round-trip the trace
// through the JSONL format.
func TestPublicAPIPipeline(t *testing.T) {
	cell, err := PresetByName("mosolabs")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(DefaultSessionConfig(cell, 21))
	if err != nil {
		t.Fatal(err)
	}
	set := sess.Run(15 * Second)

	analyzer, err := NewAnalyzer(DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if report.Duration != 15*Second {
		t.Fatalf("report duration %v", report.Duration)
	}
	if len(analyzer.Chains()) != 24 {
		t.Fatalf("default chains = %d, want 24", len(analyzer.Chains()))
	}

	// Trace round trip.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, set); err != nil {
		t.Fatal(err)
	}
	set2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if set2.CellName != set.CellName || set2.Duration != set.Duration {
		t.Fatal("trace header did not round trip")
	}
	c1, c2 := set.Counts(), set2.Counts()
	if c1 != c2 {
		t.Fatalf("record counts changed: %+v vs %+v", c1, c2)
	}
	// Re-analysis of the round-tripped trace must agree.
	report2, err := analyzer.Analyze(set2)
	if err != nil {
		t.Fatal(err)
	}
	if report2.TotalChainEvents() != report.TotalChainEvents() {
		t.Fatal("analysis diverged after trace round trip")
	}
}

// TestAnalyzeBatchConcurrent drives one shared Analyzer over several
// independent traces concurrently and checks the batch output is
// position-for-position identical to sequential Analyze calls. Run
// under -race (as CI does) this also proves the documented claim that
// an Analyzer is safe for concurrent use.
func TestAnalyzeBatchConcurrent(t *testing.T) {
	analyzer, err := NewAnalyzer(DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	presets := Presets()
	sets := make([]*TraceSet, len(presets))
	for i, cell := range presets {
		sess, err := NewSession(DefaultSessionConfig(cell, uint64(31+i)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = sess.Run(10 * Second)
	}
	batch, err := AnalyzeBatch(analyzer, len(sets), sets...)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(sets) {
		t.Fatalf("got %d reports, want %d", len(batch), len(sets))
	}
	for i, set := range sets {
		seq, err := analyzer.Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].CellName != set.CellName {
			t.Fatalf("report %d is for %q, want %q", i, batch[i].CellName, set.CellName)
		}
		if batch[i].TotalChainEvents() != seq.TotalChainEvents() {
			t.Fatalf("report %d: batch found %d chain events, sequential %d",
				i, batch[i].TotalChainEvents(), seq.TotalChainEvents())
		}
		for _, node := range append(CauseClasses(), ConsequenceClasses()...) {
			if batch[i].EventCount(node) != seq.EventCount(node) {
				t.Fatalf("report %d node %s: batch %d events, sequential %d",
					i, node, batch[i].EventCount(node), seq.EventCount(node))
			}
		}
	}
}

// windowCounter is a StreamHooks that counts evaluated windows.
type windowCounter struct {
	NopStreamHooks
	windows int
}

func (c *windowCounter) WindowEvaluated(start, end int64) { c.windows++ }

// TestPublicStreamingMatchesBatch exercises the streaming façade: a
// trace streamed record-by-record through NewStreamAnalyzer +
// StreamRecords must reproduce the batch Analyze report, and the hooks
// must hear every window.
func TestPublicStreamingMatchesBatch(t *testing.T) {
	cell, err := PresetByName("fdd")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(DefaultSessionConfig(cell, 23))
	if err != nil {
		t.Fatal(err)
	}
	set := sess.Run(10 * Second)

	analyzer, err := NewAnalyzer(DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, set); err != nil {
		t.Fatal(err)
	}
	var hooks windowCounter
	sa := NewStreamAnalyzer(analyzer, StreamConfig{})
	sa.SetHooks(&hooks)
	streamed, err := StreamRecords(&buf, sa)
	if err != nil {
		t.Fatal(err)
	}
	if hooks.windows != len(batch.Windows) || !reflect.DeepEqual(streamed.Windows, batch.Windows) {
		t.Fatalf("streamed %d windows (%d in the report), batch %d", hooks.windows, len(streamed.Windows), len(batch.Windows))
	}
	if streamed.TotalChainEvents() != batch.TotalChainEvents() {
		t.Fatalf("chain events: stream %d, batch %d", streamed.TotalChainEvents(), batch.TotalChainEvents())
	}
	for _, node := range append(CauseClasses(), ConsequenceClasses()...) {
		if streamed.EventCount(node) != batch.EventCount(node) {
			t.Fatalf("node %s: stream %d events, batch %d", node, streamed.EventCount(node), batch.EventCount(node))
		}
	}
	if stats := sa.Stats(); stats.MaxBuffered == 0 || stats.Records == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

func TestPublicChainParsing(t *testing.T) {
	g, err := ParseChainsString(DefaultChainsText)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.EnumerateChains()) != 24 {
		t.Fatal("default chain text must produce 24 chains")
	}
	g2, err := ParseChains(strings.NewReader("a --> b --> c"))
	if err != nil {
		t.Fatal(err)
	}
	src := GenerateGo(g2, "demo")
	if !strings.Contains(src, "package demo") || !strings.Contains(src, "BackwardTrace") {
		t.Fatal("GenerateGo output malformed")
	}
}

func TestPublicClassesAndPresets(t *testing.T) {
	if len(CauseClasses()) != 6 {
		t.Fatal("six cause classes")
	}
	if len(ConsequenceClasses()) != 3 {
		t.Fatal("three consequence classes")
	}
	if len(Presets()) != 4 {
		t.Fatal("four cell presets (Table 1)")
	}
	if DefaultDetectorConfig().Window != 5*Second {
		t.Fatal("default window must be the paper's 5 s")
	}
}
