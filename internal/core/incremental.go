package core

import (
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// This file is the incremental half of the detection engine: the same
// window evaluation and event-run collapsing the batch Analyze performs,
// factored so a streaming caller can drive it one window at a time with
// O(window) trace state. Analyze itself is a thin loop over these
// pieces, which is what guarantees the streaming and batch paths cannot
// diverge.

// WindowEvaluator incrementally maintains the indexed per-source series
// window evaluation reads. Records are Observed in (merged) timestamp
// order, old samples are evicted once the window has slid past them,
// and Eval computes the same 36-dim feature vector the batch path
// computes for that window position.
type WindowEvaluator struct {
	ix *indexedTrace
}

// NewWindowEvaluator returns an empty evaluator for one session.
// hasGNBLog gates RLC-retx visibility exactly like trace.Set.HasGNBLog.
func (a *Analyzer) NewWindowEvaluator(hasGNBLog bool) *WindowEvaluator {
	return &WindowEvaluator{ix: newIndex(a.cfg, hasGNBLog)}
}

// Reset empties the evaluator in place for a new session, keeping the
// allocated series capacity — the recycling path for pooled fleet
// ingest (see stream.Analyzer.Reset and internal/node).
func (e *WindowEvaluator) Reset(hasGNBLog bool) { e.ix.reset(hasGNBLog) }

// Observe appends one record's samples to the index. Records should
// arrive in non-decreasing primary-timestamp order across all sources
// (the order WriteJSONL emits); a record behind the series tail is
// insertion-sorted back into place, at O(displacement) cost, so a
// caller admitting bounded out-of-orderness (stream.Config.Lateness)
// still evaluates windows on correctly ordered series. Header records
// are ignored.
func (e *WindowEvaluator) Observe(rec trace.Record) {
	ix := e.ix
	switch {
	case rec.DCI != nil:
		ix.addDCI(rec.DCI, false)
	case rec.GNB != nil:
		ix.addGNB(rec.GNB, false)
	case rec.Packet != nil:
		ix.addPacket(rec.Packet, false)
	case rec.Stats != nil:
		ix.fillStats([]trace.WebRTCStatsRecord{*rec.Stats}, false)
	case rec.RRC != nil:
		ix.rrcAt = append(ix.rrcAt, rec.RRC.At)
		ix.groups[grpRRC].sortTail(len(ix.rrcAt) - 1)
	}
}

// ObserveBlock appends rows [lo[s], hi[s]) of every series s of a
// columnar block — a run of consecutive block records — with the same
// effect as Observing each record the rows stand for. ordered promises
// that the run, in the block's merged order, never steps back in time
// and starts no earlier than every sample Observed so far
// (stream.Analyzer.PushBlock knows this from its watermark walk); the
// series are then extended in bulk. Without it each sample is
// insertion-sorted back into place exactly as Observe does.
func (e *WindowEvaluator) ObserveBlock(b *trace.Block, lo, hi *[trace.NumSeries]int, ordered bool) {
	e.ix.observeBlock(b, lo, hi, ordered)
}

// EvictBefore drops samples older than cut (the start of the earliest
// window still to be evaluated).
func (e *WindowEvaluator) EvictBefore(cut sim.Time) { e.ix.evictBefore(cut) }

// Eval computes the feature vector for the window [start, start+W)
// from the rolling aggregates, at O(samples-in-step) amortized cost.
// Every sample in the window must have been Observed and not evicted,
// and starts must be non-decreasing across calls — the access pattern
// of both analysis drivers.
func (e *WindowEvaluator) Eval(start sim.Time) FeatureVector {
	return e.ix.evalWindow(start)
}

// Buffered returns the number of samples currently held — O(window)
// when the caller evicts as it advances, versus O(trace) for batch.
func (e *WindowEvaluator) Buffered() int { return e.ix.buffered() }

// Incremental carries the per-session detection state that spans
// windows: the report under construction and the open node/chain runs.
// Step feeds it one window's feature vector at a time, in order;
// Finish closes the remaining runs. It is the exact state machine of
// the batch Analyze loop, exposed for streaming callers.
//
// The causal DAG is pre-resolved once per Analyzer into index form
// (integer node IDs, per-node feature bitmasks, per-chain node-ID
// lists), so a Step touches no strings and no maps: node activation is
// one mask test per node against the window's feature bits. Graph
// nodes and chains are tracked alike, in one array reused across steps:
// entry i < len(nodes) is node i, the rest are the chains in ID order.
// A node and a chain differ only in their label, the report map a
// closed run lands in and the hook it is announced on (see land and
// announce).
type Incremental struct {
	a           *Analyzer
	rep         *Report
	keepWindows bool
	hooks       obs.Hooks

	// Per-session scratch, sized to the compiled graph and reused
	// across steps (and across sessions via Reset).
	on        []bool // per node/chain: active/matched in current window
	runs      []run  // per node/chain: its open run, if any
	causeMark []bool // per distinct cause: linked in current window
}

// run is a node's or a chain's run of consecutive windows, open while
// it keeps firing.
type run struct {
	start, end sim.Time
	windows    int
	open       bool
}

// NewIncremental starts an incremental analysis for one session.
func (a *Analyzer) NewIncremental(cellName string) *Incremental {
	n := len(a.comp.nodes) + len(a.chains)
	return &Incremental{
		a:           a,
		rep:         a.newReport(cellName),
		keepWindows: true,
		on:          make([]bool, n),
		runs:        make([]run, n),
		causeMark:   make([]bool, len(a.comp.causes)),
	}
}

// Reset rewinds the Incremental to a fresh session (a new report, no
// open runs), reusing the compiled-graph scratch — the recycling path
// for pooled fleet ingest.
func (inc *Incremental) Reset(cellName string) {
	inc.rep = inc.a.newReport(cellName)
	inc.keepWindows = true
	inc.hooks = nil
	clear(inc.runs)
}

func (a *Analyzer) newReport(cellName string) *Report {
	return &Report{
		CellName:    cellName,
		NodeEvents:  make(map[string][]EventRun),
		ChainEvents: make(map[int][]ChainRun),
		chains:      a.chains,
	}
}

// SetKeepWindows controls whether per-window results are retained in
// the report (default true, matching batch analysis). Long-running
// live sessions turn this off to keep report growth bounded by event
// runs instead of window count.
func (inc *Incremental) SetKeepWindows(keep bool) { inc.keepWindows = keep }

// SetScenario labels the report under construction with the name of
// the scenario that generated the session's trace.
func (inc *Incremental) SetScenario(name string) { inc.rep.Scenario = name }

// SetHooks installs observability hooks fired on node/chain run
// transitions (nil disables them, the default). Hook calls receive the
// precompiled node names and chain signatures, so an allocation-free
// Hooks implementation keeps Step allocation-free.
func (inc *Incremental) SetHooks(h obs.Hooks) { inc.hooks = h }

// Step consumes the feature vector of the next window position. What
// it decides leaves the engine two ways only: the report (a
// WindowResult when windows are kept, each run as it closes) and the
// hooks (every run as it opens and closes, nodes first, then chains).
func (inc *Incremental) Step(v FeatureVector) {
	cg := &inc.a.comp
	nodes := len(cg.nodes)
	for nid, mask := range cg.nodeMask {
		inc.on[nid] = v.Bits&mask != 0
	}
	for ci, path := range cg.chainNodes {
		m := true
		for _, nid := range path {
			if !inc.on[nid] {
				m = false
				break
			}
		}
		inc.on[nodes+ci] = m
	}
	for i, on := range inc.on {
		r := &inc.runs[i]
		switch {
		case on && r.open:
			r.end = v.End
			r.windows++
		case on:
			*r = run{start: v.Start, end: v.End, windows: 1, open: true}
			inc.announce(i, r, false)
		case r.open:
			inc.closeRun(i)
		}
	}
	if inc.keepWindows {
		inc.rep.Windows = append(inc.rep.Windows, inc.windowResult(v))
	}
}

// windowResult is the backward trace of the window Step just stepped:
// the chains that matched, the active consequences, and the distinct
// causes the matched chains lead back to.
func (inc *Incremental) windowResult(v FeatureVector) WindowResult {
	cg := &inc.a.comp
	wr := WindowResult{Vector: v}
	anyCause := false
	for ci, m := range inc.on[len(cg.nodes):] {
		if m {
			wr.ChainIDs = append(wr.ChainIDs, ci+1)
			if !inc.causeMark[cg.chainCauseID[ci]] {
				inc.causeMark[cg.chainCauseID[ci]] = true
				anyCause = true
			}
		}
	}
	for _, nid := range cg.consequences {
		if inc.on[nid] {
			wr.Consequences = append(wr.Consequences, cg.nodes[nid])
		}
	}
	if anyCause {
		for i, name := range cg.causes {
			if inc.causeMark[i] {
				inc.causeMark[i] = false
				wr.Causes = append(wr.Causes, name)
			}
		}
	}
	return wr
}

// closeRun ends entry i's open run: the report gets it and the hook hears
// of it.
func (inc *Incremental) closeRun(i int) {
	r := &inc.runs[i]
	r.open = false
	inc.land(inc.rep, i, r)
	inc.announce(i, r, true)
}

// land appends entry i's run r to rep: a node's to NodeEvents under
// its name, a chain's to ChainEvents under its ID.
func (inc *Incremental) land(rep *Report, i int, r *run) {
	cg := &inc.a.comp
	if i < len(cg.nodes) {
		name := cg.nodes[i]
		rep.NodeEvents[name] = append(rep.NodeEvents[name], EventRun{Node: name, Start: r.start, End: r.end, Windows: r.windows})
		return
	}
	ci := i - len(cg.nodes)
	rep.ChainEvents[ci+1] = append(rep.ChainEvents[ci+1], ChainRun{Chain: inc.a.chains[ci], Start: r.start, End: r.end, Windows: r.windows})
}

// announce tells the hooks, if any, that entry i's run r opened or,
// with closed, closed.
func (inc *Incremental) announce(i int, r *run, closed bool) {
	h, cg := inc.hooks, &inc.a.comp
	switch {
	case h == nil:
	case i < len(cg.nodes) && closed:
		h.NodeRunClosed(cg.nodes[i], int64(r.start), int64(r.end), r.windows)
	case i < len(cg.nodes):
		h.NodeFired(cg.nodes[i], int64(r.start))
	case closed:
		h.ChainRunClosed(cg.chainSigs[i-len(cg.nodes)], int64(r.start), int64(r.end), r.windows)
	default:
		h.ChainRunOpened(cg.chainSigs[i-len(cg.nodes)], int64(r.start))
	}
}

// Finish closes every run still open, in graph-node order and then
// chain-ID order, stamps the session duration, and returns the final
// report. The Incremental must not be used afterwards (Reset rewinds it
// for a new session).
func (inc *Incremental) Finish(duration sim.Time) *Report {
	inc.rep.Duration = duration
	for i := range inc.runs {
		if inc.runs[i].open {
			inc.closeRun(i)
		}
	}
	return inc.rep
}

// Snapshot returns a point-in-time copy of the report with runs still
// open treated as closed now, for live inspection of an unfinished
// session. The Incremental remains usable.
func (inc *Incremental) Snapshot(asOf sim.Time) *Report {
	rep := inc.rep
	cp := &Report{
		CellName:    rep.CellName,
		Scenario:    rep.Scenario,
		Duration:    asOf,
		Windows:     rep.Windows[:len(rep.Windows):len(rep.Windows)],
		NodeEvents:  make(map[string][]EventRun, len(rep.NodeEvents)),
		ChainEvents: make(map[int][]ChainRun, len(rep.ChainEvents)),
		chains:      rep.chains,
	}
	for n, runs := range rep.NodeEvents {
		cp.NodeEvents[n] = append([]EventRun(nil), runs...)
	}
	for id, runs := range rep.ChainEvents {
		cp.ChainEvents[id] = append([]ChainRun(nil), runs...)
	}
	for i := range inc.runs {
		if inc.runs[i].open {
			inc.land(cp, i, &inc.runs[i])
		}
	}
	return cp
}
