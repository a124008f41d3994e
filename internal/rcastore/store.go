// Package rcastore is the fleet RCA memory: an embedded, append-only
// columnar store for completed analysis reports. Where dominod's
// per-session registry answers "what is wrong with this call right
// now", the store answers longitudinal questions across thousands of
// finished calls — "top causal chains fleet-wide in the last hour",
// "cells whose grant-starvation rate is trending up", "which prior
// incident looks like this one".
//
// Each completed core.Report collapses into one Record: identity
// columns (session, cell, scenario), a fleet-timeline position
// (start/end), the set of causal-graph nodes that fired at least once
// (packed as a dictionary-indexed bitset, the same uint64-word trick
// core.FeatureBits plays for the 36 detector features), per-chain
// collapsed run counts and per-cause-class rollups. Records live in
// fixed-size column blocks with block-level time/cell/scenario pruning
// indexes and, once a block is
// full, its rows moved into (cell, start) order, so a read finds the rows
// inside a time range with binary searches instead of testing each; memory is
// bounded by evicting whole blocks oldest-first, and one stored-row codec
// (segment.go: CRC-framed, dictionary-coded frames) carries history
// across restarts byte-identically, as a checkpoint (Store.Spill /
// Load) and as a write-ahead journal (Journal / Recover). The JSON view
// of a row is Record, which is what the query surface serves.
//
// The query layer (query.go) matches typed predicates — time range,
// cell, scenario, cause class, fired-node mask, session — and
// aggregates matches into top-chain rankings, per-cell cause-class
// rates over time buckets, and nearest-prior-incident lookups by
// fired-node Hamming similarity.
package rcastore

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// Options bound the store.
type Options struct {
	// BlockRows is the number of records per column block (default
	// 256). Larger blocks amortize per-block index overhead; smaller
	// blocks evict at finer granularity.
	BlockRows int
	// MaxBlocks caps retained blocks; once exceeded, whole blocks are
	// evicted oldest-first (insertion order). 0 retains everything.
	MaxBlocks int
}

func (o Options) defaults() Options {
	if o.BlockRows <= 0 {
		o.BlockRows = 256
	}
	return o
}

// ChainRuns is one chain's collapsed run count within a record.
type ChainRuns struct {
	// Chain is the chain signature in DSL form ("cause --> ... -->
	// consequence"), the stable cross-session chain identity.
	Chain string `json:"chain"`
	Runs  int    `json:"runs"`
}

// CauseRuns is one cause class's collapsed chain-run rollup within a
// record.
type CauseRuns struct {
	Cause string `json:"cause"`
	Runs  int    `json:"runs"`
}

// Record is one completed session's row: what fired, which chains
// matched how often, and where the session sits on the fleet timeline.
// Start/End are absolute fleet times (wall-clock microseconds in
// dominod, synthetic timelines in experiments) — not the session's
// internal 0-based trace clock.
type Record struct {
	Session  string   `json:"session"`
	Cell     string   `json:"cell"`
	Scenario string   `json:"scenario,omitempty"`
	Start    sim.Time `json:"start_us"`
	End      sim.Time `json:"end_us"`
	// Fired lists causal-graph nodes with at least one collapsed event
	// run, sorted by name.
	Fired []string `json:"fired,omitempty"`
	// Chains holds collapsed run counts per matched chain, sorted by
	// chain signature.
	Chains []ChainRuns `json:"chains,omitempty"`
	// Causes holds chain-run rollups per root cause class, sorted by
	// cause.
	Causes []CauseRuns `json:"causes,omitempty"`
}

// Duration returns the record's fleet-timeline span.
func (r Record) Duration() sim.Time { return r.End - r.Start }

// FromReport collapses a completed analysis report into a store record.
// start places the session on the fleet timeline; the record ends at
// start + report duration. Fired nodes, chain signatures, and cause
// rollups come sorted, so records built from equal reports are equal.
func FromReport(session string, start sim.Time, rep *core.Report) Record {
	rec := Record{
		Session:  session,
		Cell:     rep.CellName,
		Scenario: rep.Scenario,
		Start:    start,
		End:      start + rep.Duration,
	}
	for node, runs := range rep.NodeEvents {
		if len(runs) > 0 {
			rec.Fired = append(rec.Fired, node)
		}
	}
	sort.Strings(rec.Fired)
	chainAgg := map[string]int{}
	causeAgg := map[string]int{}
	for _, runs := range rep.ChainEvents {
		if len(runs) == 0 {
			continue
		}
		chainAgg[runs[0].Chain.String()] += len(runs)
		causeAgg[runs[0].Chain.Cause()] += len(runs)
	}
	for sig, n := range chainAgg {
		rec.Chains = append(rec.Chains, ChainRuns{Chain: sig, Runs: n})
	}
	sort.Slice(rec.Chains, func(i, j int) bool { return rec.Chains[i].Chain < rec.Chains[j].Chain })
	for cause, n := range causeAgg {
		rec.Causes = append(rec.Causes, CauseRuns{Cause: cause, Runs: n})
	}
	sort.Slice(rec.Causes, func(i, j int) bool { return rec.Causes[i].Cause < rec.Causes[j].Cause })
	return rec
}

// dict interns strings: names get dense IDs in first-seen order, the
// IDs index the columnar arrays. Dictionaries only grow — IDs stay
// valid for the life of the store (and across spill/reload, which
// serializes them in order). Interning, under the write lock, also keeps
// each name's JSON spelling (as jsonenc writes it) and byName, the IDs in
// name order, so an answer under the read lock only indexes them.
type dict struct {
	names  []string
	index  map[string]int
	spell  [][]byte
	byName []uint32
}

func newDict() *dict { return &dict{index: map[string]int{}} }

func (d *dict) id(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	i := len(d.names)
	d.names = append(d.names, name)
	d.index[name] = i
	d.spell = append(d.spell, trace.AppendJSONString(make([]byte, 0, len(name)+2), name))
	at, _ := slices.BinarySearchFunc(d.byName, name, func(id uint32, name string) int { return strings.Compare(d.names[id], name) })
	d.byName = slices.Insert(d.byName, at, uint32(i))
	return i
}

// block is one fixed-capacity run of records in columnar layout: plain
// parallel arrays per fixed-width column, offset+values arrays for the
// variable-width ones (chain runs, cause rollups), and a flat
// bitset matrix for fired nodes (stride words per row). Blocks carry
// min/max-start bounds and cell/scenario presence bitmaps so queries
// skip whole blocks without touching rows, and a full block holds its
// rows in (cell, start) order so queries skip rows inside it (sealed).
type block struct {
	n        int
	sessions []string
	cellIDs  []uint32
	scenIDs  []uint32
	starts   []sim.Time
	ends     []sim.Time

	// fired is an n×stride matrix of bitset words; row i spans
	// fired[i*stride : (i+1)*stride], bit j of the row = node dict ID j
	// fired. stride grows (with a repack) when the node universe
	// outgrows the current word count.
	stride int
	fired  []uint64

	chainOff, chainIDs, chainRuns []uint32
	causeOff, causeIDs, causeRuns []uint32

	minStart, maxStart sim.Time
	cellMask, scenMask []uint64

	// seq counts the rows the store took before the block opened and row i
	// was the block's order[i]th, so seq + order[i] is its insertion
	// position. cells, set by seal, gives each cell present the end of its
	// stretch of rows (it begins where the previous one ends). Derived
	// state, never stored: Spill writes the rows in insertion order.
	seq   int
	order []uint32
	cells []cellEnd
}

// cellEnd closes one cell's stretch of a sealed block's rows.
type cellEnd struct {
	cell uint32
	end  int
}

// seal moves the rows of a block that will take no more into (cell id,
// start, insertion) order, every column once; order keeps where each
// row came from.
func (b *block) seal() {
	slices.SortFunc(b.order, func(i, j uint32) int {
		if c := cmp.Compare(b.cellIDs[i], b.cellIDs[j]); c != 0 {
			return c
		}
		if c := cmp.Compare(b.starts[i], b.starts[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	b.sessions, b.cellIDs, b.scenIDs = gather(b.sessions, b.order, 1), gather(b.cellIDs, b.order, 1), gather(b.scenIDs, b.order, 1)
	b.starts, b.ends, b.fired = gather(b.starts, b.order, 1), gather(b.ends, b.order, 1), gather(b.fired, b.order, b.stride)
	b.chainOff, b.chainIDs, b.chainRuns = gatherRuns(b.order, b.chainOff, b.chainIDs, b.chainRuns)
	b.causeOff, b.causeIDs, b.causeRuns = gatherRuns(b.order, b.causeOff, b.causeIDs, b.causeRuns)
	for i, cell := range b.cellIDs {
		if k := len(b.cells) - 1; k < 0 || b.cells[k].cell != cell {
			b.cells = append(b.cells, cellEnd{cell: cell})
		}
		b.cells[len(b.cells)-1].end = i + 1
	}
}

// gather returns the rows of a column of w elements a row in order.
func gather[T any](col []T, order []uint32, w int) []T {
	out := make([]T, 0, len(col))
	for _, i := range order {
		out = append(out, col[int(i)*w:int(i+1)*w]...)
	}
	return out
}

// gatherRuns returns the rows of a variable-width column in order: the
// offsets and the two value arrays they index.
func gatherRuns(order, off, ids, vals []uint32) ([]uint32, []uint32, []uint32) {
	toff := append(make([]uint32, 0, len(off)), 0)
	tids, tvals := make([]uint32, 0, len(ids)), make([]uint32, 0, len(vals))
	for _, i := range order {
		tids = append(tids, ids[off[i]:off[i+1]]...)
		tvals = append(tvals, vals[off[i]:off[i+1]]...)
		toff = append(toff, uint32(len(tids)))
	}
	return toff, tids, tvals
}

func newBlock(rows, stride, seq int) *block {
	b := &block{stride: stride, seq: seq}
	b.order = make([]uint32, 0, rows)
	b.sessions = make([]string, 0, rows)
	b.cellIDs = make([]uint32, 0, rows)
	b.scenIDs = make([]uint32, 0, rows)
	b.starts = make([]sim.Time, 0, rows)
	b.ends = make([]sim.Time, 0, rows)
	b.fired = make([]uint64, 0, rows*stride)
	b.chainOff = append(make([]uint32, 0, rows+1), 0)
	b.causeOff = append(make([]uint32, 0, rows+1), 0)
	return b
}

// row returns record i's fired-bitset words.
func (b *block) row(i int) []uint64 { return b.fired[i*b.stride : (i+1)*b.stride] }

// firedHas reports whether a row's bitset, which may predate id, holds it.
func firedHas(row []uint64, id uint32) bool {
	return int(id/64) < len(row) && row[id/64]>>(id%64)&1 != 0
}

// repack widens the bitset matrix to a new stride, zero-extending every
// existing row. Rare: it runs only when a record fires a node beyond
// the universe seen when the block was opened.
func (b *block) repack(stride int) {
	if stride <= b.stride {
		return
	}
	wide := make([]uint64, 0, cap(b.fired)/max(b.stride, 1)*stride)
	for i := 0; i < b.n; i++ {
		wide = append(wide, b.row(i)...)
		for k := b.stride; k < stride; k++ {
			wide = append(wide, 0)
		}
	}
	b.fired, b.stride = wide, stride
}

func setMaskBit(mask *[]uint64, id int) {
	for id/64 >= len(*mask) {
		*mask = append(*mask, 0)
	}
	(*mask)[id/64] |= 1 << uint(id%64)
}

func maskHas(mask []uint64, id int) bool {
	return id/64 < len(mask) && mask[id/64]&(1<<uint(id%64)) != 0
}

// Store is the embedded fleet RCA store. All methods are safe for
// concurrent use; inserts take the write lock, queries the read lock.
type Store struct {
	mu   sync.RWMutex
	opts Options

	tables
	scratch row // Insert's interned row, reused under mu

	blocks []*block

	// latest maps a session to the row its most recent Insert wrote (i is
	// an entry of the block's order), so Fired is a lookup, not a scan.
	// Evicting a block deletes the entries that still point into it; a
	// session re-inserted since points at a newer block and stays.
	latest map[string]rowAt

	insertedRows  int
	evictedRows   int
	evictedBlocks int

	// gen moves, under the write lock, with each row appended (evicting or
	// not) and each dict frame Load interns; memo holds answers at one gen.
	gen  uint64
	memo memo

	// queries, spills and answerHits (reads the memo answered) run
	// concurrently under the read lock, so they are atomics.
	queries, spills, answerHits atomic.Int64
}

// rowAt locates one stored row.
type rowAt struct {
	b *block
	i int
}

// New returns an empty store.
func New(opts Options) *Store {
	return &Store{
		opts:   opts.defaults(),
		latest: map[string]rowAt{},
		tables: newTables(),
		memo:   memo{answers: map[string][]byte{}},
	}
}

// Insert appends one record. Records may arrive in any time order —
// blocks fill in arrival order, and block time bounds plus each full
// block's own (cell, start) order drive query pruning — but retention is
// arrival-ordered:
// when MaxBlocks is exceeded the oldest-inserted block is dropped
// whole. Insert normalizes nothing beyond what it stores; use
// FromReport for canonically sorted records.
func (s *Store) Insert(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intern(&rec, &s.scratch)
	s.appendRowLocked(&s.scratch)
}

// insertRow appends a row the decoder has already resolved to this
// store's dictionary IDs.
func (s *Store) insertRow(r *row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendRowLocked(r)
}

func (s *Store) appendRowLocked(r *row) {
	s.gen++
	// The node universe is interned by now, so the needed stride is
	// known before the row is appended.
	stride := max((len(s.nodes.names)+63)/64, 1)
	b := s.openBlockLocked(stride)
	if stride > b.stride {
		b.repack(stride)
	}

	b.order = append(b.order, uint32(b.n))
	b.sessions = append(b.sessions, r.session)
	b.cellIDs = append(b.cellIDs, r.cell)
	b.scenIDs = append(b.scenIDs, r.scen)
	b.starts = append(b.starts, r.start)
	b.ends = append(b.ends, r.end)
	rowStart := len(b.fired)
	for k := 0; k < b.stride; k++ {
		b.fired = append(b.fired, 0)
	}
	bits := b.fired[rowStart:]
	for _, id := range r.fired {
		bits[id/64] |= 1 << (id % 64)
	}
	b.chainIDs = append(b.chainIDs, r.chainIDs...)
	b.chainRuns = append(b.chainRuns, r.chainRuns...)
	b.chainOff = append(b.chainOff, uint32(len(b.chainIDs)))
	b.causeIDs = append(b.causeIDs, r.causeIDs...)
	b.causeRuns = append(b.causeRuns, r.causeRuns...)
	b.causeOff = append(b.causeOff, uint32(len(b.causeIDs)))

	if b.n == 0 || r.start < b.minStart {
		b.minStart = r.start
	}
	if b.n == 0 || r.start > b.maxStart {
		b.maxStart = r.start
	}
	setMaskBit(&b.cellMask, int(r.cell))
	setMaskBit(&b.scenMask, int(r.scen))
	s.latest[r.session] = rowAt{b, b.n}
	b.n++
	if b.n == s.opts.BlockRows {
		b.seal()
	}
	s.insertedRows++

	s.evictLocked()
}

func (s *Store) openBlockLocked(stride int) *block {
	if n := len(s.blocks); n > 0 && s.blocks[n-1].n < s.opts.BlockRows {
		return s.blocks[n-1]
	}
	b := newBlock(s.opts.BlockRows, stride, s.insertedRows)
	s.blocks = append(s.blocks, b)
	return b
}

func (s *Store) evictLocked() {
	if s.opts.MaxBlocks <= 0 {
		return
	}
	for len(s.blocks) > s.opts.MaxBlocks {
		old := s.blocks[0]
		for _, session := range old.sessions {
			if s.latest[session].b == old {
				delete(s.latest, session)
			}
		}
		s.evictedRows += old.n
		s.evictedBlocks++
		s.blocks = s.blocks[1:]
	}
}

// Stats summarizes the store's shape and retention state.
type Stats struct {
	// Rows and Blocks count retained data; InsertedRows counts every
	// Insert since New, so InsertedRows-Rows is the evicted history.
	Rows, Blocks               int
	InsertedRows               int
	EvictedRows, EvictedBlocks int
	// Queries counts read calls (Query, TopChains, CauseRates, Similar,
	// Fired, Resolve, Answer), AnswerHits the Answers the memo served and
	// Spills the Spills that wrote a whole segment, since New or Load.
	Queries, AnswerHits, Spills int
	// Nodes..Causes are dictionary cardinalities (these count every
	// name ever seen, eviction does not shrink them).
	Nodes, Cells, Scenarios, Chains, Causes int
	// MinStart/MaxStart bound the retained records' start times; both
	// zero when the store is empty.
	MinStart, MaxStart sim.Time
}

// Stats returns current store statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Blocks:        len(s.blocks),
		InsertedRows:  s.insertedRows,
		EvictedRows:   s.evictedRows,
		EvictedBlocks: s.evictedBlocks,
		Queries:       int(s.queries.Load()),
		AnswerHits:    int(s.answerHits.Load()),
		Spills:        int(s.spills.Load()),
		Nodes:         len(s.nodes.names),
		Cells:         len(s.cells.names),
		Scenarios:     len(s.scens.names),
		Chains:        len(s.chains.names),
		Causes:        len(s.causes.names),
	}
	first := true
	for _, b := range s.blocks {
		st.Rows += b.n
		if b.n == 0 {
			continue
		}
		if first || b.minStart < st.MinStart {
			st.MinStart = b.minStart
		}
		if first || b.maxStart > st.MaxStart {
			st.MaxStart = b.maxStart
		}
		first = false
	}
	return st
}

// Len returns the number of retained records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, b := range s.blocks {
		n += b.n
	}
	return n
}

// view points r at record i's columns: fired node IDs ascending (so
// the form is independent of block stride), the sparse columns aliased,
// not copied.
func (b *block) view(i int, r *row) {
	r.session, r.cell, r.scen = b.sessions[i], b.cellIDs[i], b.scenIDs[i]
	r.start, r.end = b.starts[i], b.ends[i]
	r.fired = r.fired[:0]
	for w, word := range b.row(i) {
		for ; word != 0; word &= word - 1 {
			r.fired = append(r.fired, uint32(w*64+bits.TrailingZeros64(word)))
		}
	}
	r.chainIDs, r.chainRuns = b.chainIDs[b.chainOff[i]:b.chainOff[i+1]], b.chainRuns[b.chainOff[i]:b.chainOff[i+1]]
	r.causeIDs, r.causeRuns = b.causeIDs[b.causeOff[i]:b.causeOff[i+1]], b.causeRuns[b.causeOff[i]:b.causeOff[i+1]]
}

// materialize rebuilds the Record stored at block b, row i. The
// caller must hold at least the read lock.
func (s *Store) materializeLocked(b *block, i int) Record {
	rec := Record{
		Session:  b.sessions[i],
		Cell:     s.cells.names[b.cellIDs[i]],
		Scenario: s.scens.names[b.scenIDs[i]],
		Start:    b.starts[i],
		End:      b.ends[i],
	}
	rec.Fired = s.firedLocked(b.row(i))
	for k := b.chainOff[i]; k < b.chainOff[i+1]; k++ {
		rec.Chains = append(rec.Chains, ChainRuns{Chain: s.chains.names[b.chainIDs[k]], Runs: int(b.chainRuns[k])})
	}
	for k := b.causeOff[i]; k < b.causeOff[i+1]; k++ {
		rec.Causes = append(rec.Causes, CauseRuns{Cause: s.causes.names[b.causeIDs[k]], Runs: int(b.causeRuns[k])})
	}
	return rec
}

// firedLocked returns the node names a row's bitset holds, in name
// order, or nil when it holds none.
func (s *Store) firedLocked(row []uint64) []string {
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	fired := make([]string, 0, n)
	for _, id := range s.nodes.byName {
		if firedHas(row, id) {
			fired = append(fired, s.nodes.names[id])
		}
	}
	return fired
}

// String renders store stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("rows=%d blocks=%d evicted=%d nodes=%d chains=%d causes=%d",
		s.Rows, s.Blocks, s.EvictedRows, s.Nodes, s.Chains, s.Causes)
}
