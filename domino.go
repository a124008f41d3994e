// Package domino is the public API of the Domino reproduction: an
// automated, cross-layer root-cause analyzer for 5G video-conferencing
// quality degradation (Yi et al., IMC 2025), together with the
// simulation substrate used to reproduce the paper's evaluation.
//
// The analysis pipeline:
//
//	graph, _ := domino.ParseChains(strings.NewReader(domino.DefaultChainsText))
//	analyzer, _ := domino.NewAnalyzer(domino.DetectorConfig{}, graph)
//	report, _ := analyzer.Analyze(traceSet)
//	fmt.Println(report.EventsPerMinute("harq_retx"))
//
// Trace sets come either from the built-in 5G+WebRTC simulator (see
// NewSession / Presets) or from external telemetry converted to the
// JSONL trace format (ReadTrace).
//
// For live (in-call) diagnosis, the streaming subsystem analyzes a
// session while it is still running, holding only the sliding window:
//
//	sa := domino.NewStreamAnalyzer(analyzer, domino.StreamConfig{})
//	sa.SetHooks(liveHooks) // a StreamHooks: runs as they open and close
//	report, _ := domino.StreamRecords(jsonlStream, sa)
//
// cmd/dominod packages the same path as an always-on ingest service.
//
// Completed reports can be retained in an embedded columnar store for
// longitudinal, fleet-wide queries (time range, cell, cause class,
// fired-node signature) and aggregations (top causal chains, cause
// rates over time, nearest prior incident):
//
//	store := domino.NewRCAStore(domino.RCAStoreOptions{})
//	store.Insert(domino.RecordFromReport("s001", start, report))
//	top := store.TopChains(domino.RCAQuery{Cell: "tdd"}, 5)
//
// cmd/dominod serves the same queries over HTTP (/query,
// /incidents/similar) and cmd/rcaquery runs them offline against a
// spilled store file.
package domino

import (
	"io"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// Re-exported analysis types.
type (
	// Analyzer slides the detection window over a trace and matches
	// causal chains.
	Analyzer = core.Analyzer
	// DetectorConfig holds window geometry and Table 5 thresholds.
	DetectorConfig = core.DetectorConfig
	// Graph is the user-configurable causal DAG.
	Graph = core.Graph
	// Chain is one root-to-consequence path.
	Chain = core.Chain
	// Report is a full analysis result.
	Report = core.Report
	// TraceSet is a merged cross-layer trace.
	TraceSet = trace.Set
	// Session is a simulated two-party call over a 5G cell.
	Session = rtc.Session
	// SessionConfig parameterizes a simulated call.
	SessionConfig = rtc.SessionConfig
	// CellConfig describes a simulated 5G cell.
	CellConfig = ran.CellConfig
	// Time is a simulation timestamp in microseconds.
	Time = sim.Time

	// WindowResult is the detection output for one window position.
	WindowResult = core.WindowResult
	// EventRun is one collapsed per-node event run.
	EventRun = core.EventRun
	// ChainRun is one collapsed per-chain event run.
	ChainRun = core.ChainRun

	// Scenario is a declarative workload: a base cell preset plus a
	// schedule of timed, per-layer dynamics.
	Scenario = scenario.Scenario
	// ScenarioDynamic is one timed perturbation inside a scenario.
	ScenarioDynamic = scenario.Dynamic

	// TraceRecord is one streamed trace record (exactly one field set).
	TraceRecord = trace.Record
	// TraceHeader is the stream metadata record.
	TraceHeader = trace.Header
	// TraceReader decodes a JSONL or binary trace a block at a time, in
	// columns (ReadBlock) or as the block's records (Next, ReadBatch).
	TraceReader = trace.Reader
	// TraceRecordReader is the record half of a TraceReader: Next/Header
	// plus batched ReadBatch.
	TraceRecordReader = trace.RecordReader
	// StreamAnalyzer incrementally analyzes one session's record stream
	// with O(window) buffered state.
	StreamAnalyzer = stream.Analyzer
	// StreamConfig parameterizes a StreamAnalyzer (lateness slack, late
	// records, per-window results in the report).
	StreamConfig = stream.Config
	// StreamHooks hears a StreamAnalyzer's live events — each window
	// evaluated, each node and chain run as it opens and closes —
	// installed with StreamAnalyzer.SetHooks.
	StreamHooks = obs.Hooks
	// NopStreamHooks implements StreamHooks with no-ops; embed it to
	// implement only the events a caller observes.
	NopStreamHooks = obs.NopHooks
	// StreamStats counts a stream's progress.
	StreamStats = stream.Stats

	// RCAStore is an embedded columnar store of completed per-session
	// RCA reports, queryable across a fleet's history.
	RCAStore = rcastore.Store
	// RCAStoreOptions bounds an RCAStore's block geometry and retention.
	RCAStoreOptions = rcastore.Options
	// RCARecord is one stored session outcome (the columnar row form of
	// a Report).
	RCARecord = rcastore.Record
	// RCAQuery selects stored records by time range, cell, scenario,
	// session, cause class, and fired-node signature.
	RCAQuery = rcastore.Query
	// RCAChainAgg ranks one causal chain across matching sessions.
	RCAChainAgg = rcastore.ChainAgg
	// RCACauseBucket is one per-cell, per-time-bucket cause-class rate.
	RCACauseBucket = rcastore.CauseBucket
	// RCAMatch is one nearest-prior-incident result with its Hamming
	// distance from the probe signature.
	RCAMatch = rcastore.Match
)

// DefaultChainsText is the paper's Fig. 9 causal graph in DSL form (24
// chains).
const DefaultChainsText = core.DefaultChainsText

// Second re-exports the time unit for session durations.
const Second = sim.Second

// NewAnalyzer builds an analyzer; nil graph selects the default Fig. 9
// graph and a zero config field its Table 5 threshold. A value
// DetectorConfig refuses is an error naming the field. The returned
// Analyzer is immutable and safe for concurrent use.
func NewAnalyzer(cfg DetectorConfig, g *Graph) (*Analyzer, error) {
	return core.NewAnalyzer(cfg, g)
}

// AnalyzeBatch analyzes independent trace sets concurrently across the
// given number of workers (<= 0 selects GOMAXPROCS). Report i always
// corresponds to sets[i], so the output is identical to calling
// a.Analyze in a sequential loop — only faster on multi-core.
func AnalyzeBatch(a *Analyzer, workers int, sets ...*TraceSet) ([]*Report, error) {
	return a.AnalyzeBatch(workers, sets...)
}

// ParseChains parses causal-chain DSL text.
func ParseChains(r io.Reader) (*Graph, error) { return core.ParseChains(r) }

// ParseChainsString parses causal-chain DSL text from a string.
func ParseChainsString(s string) (*Graph, error) { return core.ParseChainsString(s) }

// DefaultGraph returns the paper's Fig. 9 causal graph.
func DefaultGraph() *Graph { return core.DefaultGraph() }

// GenerateGo emits a standalone Go detector for a graph (Fig. 11).
func GenerateGo(g *Graph, pkg string) string { return core.GenerateGo(g, pkg) }

// DefaultDetectorConfig returns the paper's Table 5 thresholds.
func DefaultDetectorConfig() DetectorConfig { return core.DefaultDetectorConfig() }

// CauseClasses returns the six 5G cause classes of Fig. 9/10.
func CauseClasses() []string { return core.CauseClasses() }

// ConsequenceClasses returns the three WebRTC consequence classes.
func ConsequenceClasses() []string { return core.ConsequenceClasses() }

// NewSession builds a simulated two-party call; Run it to obtain a
// trace set.
func NewSession(cfg SessionConfig) (*Session, error) { return rtc.NewSession(cfg) }

// DefaultSessionConfig returns a call on the given cell preset.
func DefaultSessionConfig(cell CellConfig, seed uint64) SessionConfig {
	return rtc.DefaultSessionConfig(cell, seed)
}

// Presets returns the paper's four cell configurations (Table 1).
func Presets() []CellConfig { return ran.Presets() }

// PresetByName looks a preset up case-insensitively by slug, alias,
// or full Table 1 name ("fdd", "tdd", "amarisoft", "mosolabs",
// "T-Mobile 15MHz FDD"); unknown names report the valid slugs.
func PresetByName(name string) (CellConfig, error) { return ran.PresetByName(name) }

// CellNames returns the cell preset slugs in Table 1 order.
func CellNames() []string { return ran.CellNames() }

// Scenarios returns the scenario catalog in its fixed order: the four
// Table 1 presets followed by the degradation scenarios, each
// provoking a different causal chain.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioNames returns the catalog's scenario names in catalog order.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName looks a catalog scenario up case-insensitively;
// unknown names report the valid ones.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// ParseScenario decodes and validates one scenario from JSON.
func ParseScenario(r io.Reader) (Scenario, error) { return scenario.Parse(r) }

// NewScenarioSession builds a simulated call for the scenario at the
// given seed, with every dynamic armed; Run it to obtain a trace
// labeled with the scenario name.
func NewScenarioSession(s Scenario, seed uint64) (*Session, error) { return s.Build(seed) }

// NewRCAStore returns an empty fleet RCA store; a zero Options selects
// the defaults (256-row blocks, unbounded retention).
func NewRCAStore(opts RCAStoreOptions) *RCAStore { return rcastore.New(opts) }

// LoadRCAStore rebuilds a store from a checkpoint stream (written by
// RCAStore.Spill or dominod -store-spill): one segment of CRC-framed,
// dictionary-coded frames, the same frames dominod's journal holds. A
// cut or corrupt stream is an error, never a shorter store. Loading and
// re-spilling an unevicted store is byte-identical.
func LoadRCAStore(r io.Reader, opts RCAStoreOptions) (*RCAStore, error) {
	return rcastore.Load(r, opts)
}

// RecordFromReport collapses a completed analysis report into the
// columnar record form: fired nodes, per-chain run counts, and
// cause-class rollups, stamped with the session ID and fleet-absolute
// start time.
func RecordFromReport(session string, start Time, rep *Report) RCARecord {
	return rcastore.FromReport(session, start, rep)
}

// ReadTrace loads a trace set in either encoding — JSONL or the
// compact binary columnar format — sniffing the binary magic from the
// stream's first bytes.
func ReadTrace(r io.Reader) (*TraceSet, error) { return trace.ReadAuto(r) }

// WriteTrace stores a trace set as JSONL, records merged in timestamp
// order so the file replays through the streaming analyzer like the
// live session did.
func WriteTrace(w io.Writer, set *TraceSet) error { return trace.WriteJSONL(w, set) }

// WriteTraceBinary stores a trace set in the compact binary columnar
// format: dictionary-interned names, per-series columns with
// delta-encoded timestamps and varint values in fixed-size blocks.
// Records are emitted in exactly WriteTrace's merged timestamp order,
// so decoding either encoding of the same set yields an identical
// record stream — JSONL stays the compatibility path and differential
// oracle.
func WriteTraceBinary(w io.Writer, set *TraceSet) error { return trace.WriteBinary(w, set) }

// NewTraceStreamReader returns an incremental JSONL trace decoder that
// never buffers the full set: records come out a block (at most 256
// lines) at a time.
func NewTraceStreamReader(r io.Reader) *TraceReader { return trace.NewStreamReader(r) }

// NewTraceReader sniffs the stream's format — binary magic versus
// JSONL — and returns an incremental decoder for it. Use it when the
// producer cannot declare a content type (files, stdin).
func NewTraceReader(r io.Reader) *TraceReader { return trace.NewAutoStreamReader(r) }

// NewStreamAnalyzer returns an incremental analyzer for one session's
// record stream, driving the given (shared, immutable) Analyzer. Push
// records in timestamp order (up to cfg.Lateness slack) and Close for
// the final report — identical, for the same records, to a batch
// Analyze over the equivalent trace set.
func NewStreamAnalyzer(a *Analyzer, cfg StreamConfig) *StreamAnalyzer {
	return stream.New(a, cfg)
}

// StreamRecords pipes a trace stream — JSONL or binary columnar, the
// format is sniffed — block by block into sa and returns the final
// report, the one pushing its records one by one would give. It is the
// streaming counterpart of ReadTrace + Analyze: the full trace is never
// held in memory, only the sliding detection window.
func StreamRecords(r io.Reader, sa *StreamAnalyzer) (*Report, error) {
	sr := trace.NewAutoStreamReader(r)
	sr.Recycle(1) // PushBlock copies a block into the window before the next is read
	for {
		blk, err := sr.ReadBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if _, err := sa.PushBlock(blk, 0); err != nil {
			return nil, err
		}
	}
	return sa.Close()
}
