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
// one mask test per node against the window's feature bits, and run
// bookkeeping lives in flat per-node/per-chain arrays reused across
// steps.
type Incremental struct {
	a           *Analyzer
	rep         *Report
	keepWindows bool
	hooks       obs.Hooks

	// Per-session scratch, sized to the compiled graph and reused
	// across steps (and across sessions via Reset).
	active       []bool // per node: active in current window
	causeMark    []bool // per distinct cause: linked in current window
	matched      []bool // per chain: fully matched in current window
	openNode     []EventRun
	openNodeSet  []bool
	openChain    []ChainRun
	openChainSet []bool
}

// NewIncremental starts an incremental analysis for one session.
func (a *Analyzer) NewIncremental(cellName string) *Incremental {
	cg := &a.comp
	inc := &Incremental{
		a:            a,
		keepWindows:  true,
		active:       make([]bool, len(cg.nodes)),
		causeMark:    make([]bool, len(cg.causes)),
		matched:      make([]bool, len(cg.chainNodes)),
		openNode:     make([]EventRun, len(cg.nodes)),
		openNodeSet:  make([]bool, len(cg.nodes)),
		openChain:    make([]ChainRun, len(cg.chainNodes)),
		openChainSet: make([]bool, len(cg.chainNodes)),
	}
	inc.rep = a.newReport(cellName)
	return inc
}

// Reset rewinds the Incremental to a fresh session (a new report, no
// open runs), reusing the compiled-graph scratch — the recycling path
// for pooled fleet ingest.
func (inc *Incremental) Reset(cellName string) {
	inc.rep = inc.a.newReport(cellName)
	inc.keepWindows = true
	inc.hooks = nil
	for i := range inc.openNodeSet {
		inc.openNodeSet[i] = false
	}
	for i := range inc.openChainSet {
		inc.openChainSet[i] = false
	}
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
// hooks (every run as it opens and closes).
func (inc *Incremental) Step(v FeatureVector) {
	cg := &inc.a.comp
	for nid, name := range cg.nodes {
		inc.active[nid] = v.Bits&cg.nodeMask[nid] != 0
		if inc.active[nid] {
			if inc.openNodeSet[nid] {
				inc.openNode[nid].End = v.End
				inc.openNode[nid].Windows++
			} else {
				inc.openNodeSet[nid] = true
				inc.openNode[nid] = EventRun{Node: name, Start: v.Start, End: v.End, Windows: 1}
				if inc.hooks != nil {
					inc.hooks.NodeFired(name, int64(v.Start))
				}
			}
		} else if inc.openNodeSet[nid] {
			inc.closeNode(nid)
		}
	}
	for ci, nodes := range cg.chainNodes {
		m := true
		for _, nid := range nodes {
			if !inc.active[nid] {
				m = false
				break
			}
		}
		inc.matched[ci] = m
		if m {
			if inc.openChainSet[ci] {
				inc.openChain[ci].End = v.End
				inc.openChain[ci].Windows++
			} else {
				inc.openChainSet[ci] = true
				inc.openChain[ci] = ChainRun{Chain: inc.a.chains[ci], Start: v.Start, End: v.End, Windows: 1}
				if inc.hooks != nil {
					inc.hooks.ChainRunOpened(cg.chainSigs[ci], int64(v.Start))
				}
			}
		} else if inc.openChainSet[ci] {
			inc.closeChain(ci)
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
	for ci, m := range inc.matched {
		if m {
			wr.ChainIDs = append(wr.ChainIDs, ci+1)
			if !inc.causeMark[cg.chainCauseID[ci]] {
				inc.causeMark[cg.chainCauseID[ci]] = true
				anyCause = true
			}
		}
	}
	for _, nid := range cg.consequences {
		if inc.active[nid] {
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

// closeNode ends node nid's open run: the report gets it and the hook
// hears of it.
func (inc *Incremental) closeNode(nid int) {
	run, name := inc.openNode[nid], inc.a.comp.nodes[nid]
	inc.rep.NodeEvents[name] = append(inc.rep.NodeEvents[name], run)
	inc.openNodeSet[nid] = false
	if inc.hooks != nil {
		inc.hooks.NodeRunClosed(name, int64(run.Start), int64(run.End), run.Windows)
	}
}

// closeChain is closeNode for chain ci's open run.
func (inc *Incremental) closeChain(ci int) {
	run := inc.openChain[ci]
	inc.rep.ChainEvents[ci+1] = append(inc.rep.ChainEvents[ci+1], run)
	inc.openChainSet[ci] = false
	if inc.hooks != nil {
		inc.hooks.ChainRunClosed(inc.a.comp.chainSigs[ci], int64(run.Start), int64(run.End), run.Windows)
	}
}

// Finish closes every run still open, in graph-node order and then
// chain-ID order, stamps the session duration, and returns the final
// report. The Incremental must not be used afterwards (Reset rewinds it
// for a new session).
func (inc *Incremental) Finish(duration sim.Time) *Report {
	inc.rep.Duration = duration
	for nid, open := range inc.openNodeSet {
		if open {
			inc.closeNode(nid)
		}
	}
	for ci, open := range inc.openChainSet {
		if open {
			inc.closeChain(ci)
		}
	}
	return inc.rep
}

// Snapshot returns a point-in-time copy of the report with runs still
// open treated as closed now, for live inspection of an unfinished
// session. The Incremental remains usable.
func (inc *Incremental) Snapshot(asOf sim.Time) *Report {
	cg := &inc.a.comp
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
	for nid, name := range cg.nodes {
		if inc.openNodeSet[nid] {
			cp.NodeEvents[name] = append(cp.NodeEvents[name], inc.openNode[nid])
		}
	}
	for ci := range cg.chainNodes {
		if inc.openChainSet[ci] {
			cp.ChainEvents[ci+1] = append(cp.ChainEvents[ci+1], inc.openChain[ci])
		}
	}
	return cp
}
