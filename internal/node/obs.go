package node

// This file is the node's observability surface: the obs.Registry
// instruments behind /metrics (spec-valid Prometheus text exposition),
// the per-session pipeline flight recorder behind
// /debug/flightrec/{id}, the obs.Hooks implementation that feeds both
// from the stream/core seam, and the /healthz build-info
// payload. Everything on the ingest hot path — counters, histogram
// observations, flight-recorder writes — is allocation-free; scrape-
// time work (snapshotting, GaugeFunc scans) happens only when /metrics
// is read.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/rcastore"
)

// metrics bundles the node's registry and the instruments bumped on hot
// paths. Scrape-time instruments (GaugeFunc/CounterFunc closures over
// node state) are registered by New, which owns that state.
type metrics struct {
	reg *obs.Registry
	// names interns every causal-graph node name and chain signature so
	// flight-recorder slots stay pointer-free; frozen after newMetrics.
	names *obs.NameTable

	sessionsTotal   *obs.Counter
	sessionsDone    *obs.Counter
	sessionsFailed  *obs.Counter
	sessionsEvicted *obs.Counter
	recordsTotal    *obs.Counter
	windowsTotal    *obs.Counter
	lateDropped     *obs.Counter
	chainEvents     *obs.Counter
	// nodeEvents maps cause/consequence class nodes to their labeled
	// counter; read-only after newMetrics, so hook lookups are lock-free.
	nodeEvents map[string]*obs.Counter

	poolGets   *obs.Counter
	poolMisses *obs.Counter

	// ingestRecords and decodeSeconds are the per-wire-format ingest
	// instruments, keyed by the format label value ("jsonl" or
	// "binary"). Both series of each family are registered up front so
	// scrapes see the full universe at zero; read-only after
	// newMetrics, so hot-path lookups are lock-free.
	ingestRecords map[string]*obs.Counter
	decodeSeconds map[string]*obs.Histogram

	stepSeconds   *obs.Histogram
	insertSeconds *obs.Histogram

	// Resumable-ingest and load-shedding instruments. ingestRejected is
	// keyed by rejection code, one series per ingest.ShedCodes entry;
	// read-only after newMetrics, so hot-path lookups are lock-free.
	ingestResumed     *obs.Counter
	ingestDeduped     *obs.Counter
	ingestInterrupted *obs.Counter
	jsonlSlowLines    *obs.Counter
	ingestRejected    map[ingest.Code]*obs.Counter

	// journalErrors counts the journal failures the node sees; the
	// journal's own totals are its Stats, read at scrape time.
	journalErrors *obs.Counter
}

// ingestFormats is the label universe of the per-format ingest
// instruments: the two wire formats /ingest negotiates.
var ingestFormats = []string{formatJSONL, formatBinary}

// newMetrics registers every statically-known instrument. The metric
// names predate this registry (operators may already scrape them), so
// they are pinned by TestDominodSmoke and must not change.
func newMetrics(analyzer *core.Analyzer) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:   reg,
		names: obs.NewNameTable(),

		sessionsTotal:   reg.Counter("dominod_sessions_total", "Sessions registered since start."),
		sessionsDone:    reg.Counter("dominod_sessions_done_total", "Sessions completed successfully."),
		sessionsFailed:  reg.Counter("dominod_sessions_failed_total", "Sessions that failed during ingest."),
		sessionsEvicted: reg.Counter("dominod_sessions_evicted_total", "Finished sessions evicted from the registry."),
		recordsTotal:    reg.Counter("dominod_records_total", "Trace records accepted across all sessions."),
		windowsTotal:    reg.Counter("dominod_windows_total", "Detection windows evaluated."),
		lateDropped:     reg.Counter("dominod_late_dropped_total", "Records dropped for arriving after their window closed."),
		chainEvents:     reg.Counter("dominod_chain_events_total", "Collapsed causal-chain event runs."),
		nodeEvents:      map[string]*obs.Counter{},

		poolGets:   reg.Counter("dominod_analyzer_pool_gets_total", "Analyzer checkouts from the session pool."),
		poolMisses: reg.Counter("dominod_analyzer_pool_misses_total", "Analyzer checkouts that had to allocate a new analyzer."),

		ingestRecords: map[string]*obs.Counter{},
		decodeSeconds: map[string]*obs.Histogram{},

		stepSeconds:   reg.Histogram("dominod_ingest_step_seconds", "Wall time pushing one decoded chunk through the analyzer.", nil),
		insertSeconds: reg.Histogram("dominod_store_insert_seconds", "Wall time inserting one completed report into the RCA store.", nil),

		ingestResumed:     reg.Counter("dominod_ingest_resumed_total", "Uploads that resumed an interrupted session from its watermark."),
		ingestDeduped:     reg.Counter("dominod_ingest_deduped_records_total", "Replayed records skipped as already accepted during resumption."),
		ingestInterrupted: reg.Counter("dominod_ingest_interrupted_total", "Resumable uploads interrupted mid-stream and suspended for retry."),
		jsonlSlowLines:    reg.Counter("dominod_ingest_jsonl_slow_lines_total", "JSONL lines outside the fast decoder's subset, decoded through encoding/json."),
		ingestRejected:    map[ingest.Code]*obs.Counter{},

		journalErrors: reg.Counter("dominod_journal_errors_total", "Journal append or checkpoint failures."),
	}

	// One labeled series per load-shed reason, registered up front so
	// scrapes see the full universe at zero.
	for _, code := range ingest.ShedCodes() {
		m.ingestRejected[code] = reg.Counter("dominod_ingest_rejected_total",
			"Ingest requests shed before analysis, by reason.", obs.L("reason", string(code)))
	}

	// One labeled series per negotiated wire format, registered up
	// front so both formats scrape at zero before their first ingest.
	for _, f := range ingestFormats {
		m.ingestRecords[f] = reg.Counter("dominod_ingest_records_total",
			"Trace records accepted, by negotiated ingest wire format.", obs.L("format", f))
		m.decodeSeconds[f] = reg.Histogram("dominod_ingest_decode_seconds",
			"Wall time decoding one ingest chunk, by negotiated wire format.", nil, obs.L("format", f))
	}

	// One labeled series per cause/consequence class node, registered up
	// front so scrapes see the full universe at zero and hook-time
	// lookups never mutate the map.
	for _, n := range core.CauseClasses() {
		m.nodeEvents[n] = reg.Counter("dominod_node_events_total",
			"Collapsed node event runs by causal-graph node.", obs.L("node", n), obs.L("class", "cause"))
	}
	for _, n := range core.ConsequenceClasses() {
		m.nodeEvents[n] = reg.Counter("dominod_node_events_total",
			"Collapsed node event runs by causal-graph node.", obs.L("node", n), obs.L("class", "consequence"))
	}

	// Intern the flight-recorder name universe: every graph node and
	// every chain signature the analyzer can emit.
	for _, n := range analyzer.Graph().Nodes() {
		m.names.Intern(n)
	}
	for _, c := range analyzer.Chains() {
		m.names.Intern(c.String())
	}

	version, goVersion := buildInfo()
	reg.Gauge("domino_build_info",
		"Build metadata; always 1. Version and Go toolchain ride in the labels.",
		obs.L("version", version), obs.L("go_version", goVersion)).Set(1)
	return m
}

// buildInfo reports the main module version and Go toolchain from the
// binary's embedded build information.
func buildInfo() (version, goVersion string) {
	version, goVersion = "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return version, goVersion
}

// pipelineHooks is the per-session obs.Hooks implementation installed
// on the pooled stream analyzer: every pipeline stage event bumps the
// shared registry counters and (when enabled) lands in the session's
// flight recorder. All methods run under the session lock (single
// writer) and allocate nothing.
type pipelineHooks struct {
	obs.NopHooks
	m   *metrics
	rec *obs.FlightRecorder // nil when -flightrec 0
}

func (h *pipelineHooks) record(ev obs.Event) {
	if h.rec != nil {
		ev.Wall = time.Now().UnixNano()
		h.rec.Record(ev)
	}
}

// WindowEvaluated implements obs.Hooks.
func (h *pipelineHooks) WindowEvaluated(start, end int64) {
	h.m.windowsTotal.Inc()
	h.record(obs.Event{Kind: obs.EvWindowEvaluated, Sim: end})
}

// NodeFired implements obs.Hooks.
func (h *pipelineHooks) NodeFired(node string, at int64) {
	h.record(obs.Event{Kind: obs.EvNodeFired, Sim: at, NameID: h.m.names.ID(node)})
}

// NodeRunClosed implements obs.Hooks.
func (h *pipelineHooks) NodeRunClosed(node string, start, end int64, windows int) {
	if c := h.m.nodeEvents[node]; c != nil {
		c.Inc()
	}
	h.record(obs.Event{Kind: obs.EvNodeRunClosed, Sim: end, NameID: h.m.names.ID(node), N: int64(windows)})
}

// ChainRunOpened implements obs.Hooks.
func (h *pipelineHooks) ChainRunOpened(chain string, at int64) {
	h.record(obs.Event{Kind: obs.EvChainRunOpened, Sim: at, NameID: h.m.names.ID(chain)})
}

// ChainRunClosed implements obs.Hooks.
func (h *pipelineHooks) ChainRunClosed(chain string, start, end int64, windows int) {
	h.m.chainEvents.Inc()
	h.record(obs.Event{Kind: obs.EvChainRunClosed, Sim: end, NameID: h.m.names.ID(chain), N: int64(windows)})
}

// registerGauges wires the scrape-time instruments that read live
// server state: session-table occupancy, admission-limiter slots, the
// RCA store's and journal's Stats, the boot recovery, and the
// analyzer-pool hit ratio.
func (n *Node) registerGauges() {
	reg := n.m.reg
	reg.GaugeFunc("dominod_sessions_active", "Sessions currently ingesting.", func() float64 {
		live, _ := n.sessions.Len()
		return float64(live)
	})
	reg.GaugeFunc("dominod_sessions_registered", "Sessions in the session table, active and retained finished ones.", func() float64 {
		_, total := n.sessions.Len()
		return float64(total)
	})
	reg.GaugeFunc("dominod_stream_slots", "Configured concurrent ingest capacity.",
		func() float64 { return float64(n.limiter.Cap()) })
	reg.GaugeFunc("dominod_stream_slots_in_use", "Ingest slots currently held.",
		func() float64 { return float64(n.limiter.InUse()) })
	reg.GaugeFunc("dominod_rcastore_rows", "Rows retained in the RCA store.",
		func() float64 { return float64(n.store.Stats().Rows) })
	reg.GaugeFunc("dominod_rcastore_chains", "Distinct chain signatures the RCA store has seen.",
		func() float64 { return float64(n.store.Stats().Chains) })
	reg.CounterFunc("dominod_rcastore_rows_inserted_total", "Rows ever inserted into the RCA store.",
		func() float64 { return float64(n.store.Stats().InsertedRows) })
	reg.CounterFunc("dominod_rcastore_rows_evicted_total", "Rows evicted from the RCA store by retention.",
		func() float64 { return float64(n.store.Stats().EvictedRows) })
	reg.CounterFunc("dominod_rcastore_queries_total", "RCA-store query evaluations.",
		func() float64 { return float64(n.store.Stats().Queries) })
	reg.CounterFunc("dominod_rcastore_spills_total", "RCA-store spill writes.",
		func() float64 { return float64(n.store.Stats().Spills) })
	reg.CounterFunc("dominod_journal_appends_total", "Reports appended to the RCA-store write-ahead journal.",
		func() float64 { return float64(n.journal.Stats().Appends) })
	reg.CounterFunc("dominod_journal_syncs_total", "Journal fsync batches flushed to stable storage.",
		func() float64 { return float64(n.journal.Stats().Syncs) })
	var recovery rcastore.RecoveryStats
	if n.opts.Recovery != nil {
		recovery = *n.opts.Recovery
	}
	reg.CounterFunc("dominod_journal_replayed_total", "Journal records replayed into the store at recovery.",
		func() float64 { return float64(recovery.Replayed) })
	reg.CounterFunc("dominod_journal_deduped_total", "Journal records skipped at recovery as already checkpointed.",
		func() float64 { return float64(recovery.Deduped) })
	reg.CounterFunc("dominod_journal_checkpoints_total", "Atomic store checkpoints written.",
		func() float64 { return float64(n.journal.Stats().Checkpoints) })
	reg.GaugeFunc("dominod_draining", "1 while the node is draining for shutdown, else 0.", func() float64 {
		if n.draining.Load() {
			return 1
		}
		return 0
	})
	if n.opts.NodeID != "" {
		reg.Gauge("dominod_node_info",
			"Node identity; the value is always 1, the node ID rides in the label.",
			obs.L("node", n.opts.NodeID)).Set(1)
	}
	reg.GaugeFunc("dominod_analyzer_pool_hit_ratio", "Fraction of analyzer checkouts served from the pool.", func() float64 {
		gets := n.m.poolGets.Value()
		if gets == 0 {
			return 0
		}
		return 1 - float64(n.m.poolMisses.Value())/float64(gets)
	})
}

// handleMetrics serves the registry as Prometheus text exposition
// (format 0.0.4, with # HELP/# TYPE metadata). The output always
// passes internal/obs.Lint — pinned by TestMetricsExposition and CI's
// curl smoke.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = n.m.reg.Snapshot().WriteText(w)
}

// handleHealthz serves readiness plus the build identity surfaced in
// domino_build_info. While the node drains for shutdown it reports
// "draining" with a 503 so load balancers stop routing new sessions
// here before the listener closes.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, goVersion := buildInfo()
	status, code := "ok", http.StatusOK
	if n.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	ingest.WriteJSON(w, code, map[string]string{
		"status":     status,
		"node":       n.opts.NodeID,
		"version":    version,
		"go_version": goVersion,
	})
}

// handleFlightRec dumps a session's flight recorder as JSONL, oldest
// event first. ?wall=0 omits the wall-clock column, leaving only the
// deterministic fields — the replay-diff view.
func (n *Node) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	sess := n.lookup(r.PathValue("id"))
	if sess == nil {
		ingest.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	if sess.rec == nil {
		ingest.WriteError(w, http.StatusNotFound, "flight recorder disabled (-flightrec 0)")
		return
	}
	withWall := r.URL.Query().Get("wall") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = sess.rec.WriteJSONL(w, withWall)
}
