package obs

import (
	"io"
	"strconv"
	"sync/atomic"
)

// This file is the pipeline flight recorder: a fixed-capacity,
// lock-free ring buffer of per-session stage events. Each event
// carries both a wall-clock stamp (when it really happened on this
// node) and the deterministic sim.Time the pipeline was processing, so
// a dump of a misbehaving session can be diffed against a replay of
// the same trace: the sim-time-ordered event sequence is reproducible,
// the wall column shows where real time was spent. internal/node keeps
// one recorder per session and serves dumps at
// GET /debug/flightrec/{session}.
//
// Every slot is a handful of atomic words guarded by a per-slot
// sequence (a seqlock): Record publishes the words between an odd and
// an even sequence store, readers re-check the sequence around their
// loads and skip slots caught mid-overwrite. No field is a pointer or
// a string — names travel as NameTable IDs — so the ring is safe under
// the race detector, never blocks the writer, and Record allocates
// nothing.

// EventKind identifies a pipeline stage event.
type EventKind uint8

// Pipeline stage events, in rough pipeline order.
const (
	// EvIngestChunk: one ingest chunk decoded and pushed; N = records,
	// Sim = stream watermark after the chunk.
	EvIngestChunk EventKind = iota + 1
	// EvWindowEvaluated: one detection window evaluated; Sim = window
	// end.
	EvWindowEvaluated
	// EvNodeFired: a causal-graph node's event run opened; Name = node,
	// Sim = run start.
	EvNodeFired
	// EvNodeRunClosed: a node's event run closed; Name = node, Sim =
	// run end, N = windows in the run.
	EvNodeRunClosed
	// EvChainRunOpened: a causal chain matched, opening a run; Name =
	// chain signature, Sim = run start.
	EvChainRunOpened
	// EvChainRunClosed: a chain run closed; Name = chain signature,
	// Sim = run end, N = windows in the run.
	EvChainRunClosed
	// EvReportStored: the session's final report was persisted to the
	// RCA store; Sim = session duration.
	EvReportStored
	// EvSessionEvicted: the session was evicted from the registry
	// (wall-clock only; Sim = 0).
	EvSessionEvicted
)

var eventKindNames = [...]string{
	EvIngestChunk:     "ingest_chunk",
	EvWindowEvaluated: "window_evaluated",
	EvNodeFired:       "node_fired",
	EvNodeRunClosed:   "node_run_closed",
	EvChainRunOpened:  "chain_run_opened",
	EvChainRunClosed:  "chain_run_closed",
	EvReportStored:    "report_stored",
	EvSessionEvicted:  "session_evicted",
}

// String returns the event kind's JSONL name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// NameTable maps the fixed universe of event names (causal-graph
// nodes, chain signatures) to dense IDs so flight-recorder slots stay
// pointer-free. Intern the universe at setup; ID and Name are
// read-only afterwards and safe for concurrent use. ID 0 is reserved
// for "no name".
type NameTable struct {
	ids   map[string]uint32
	names []string
}

// NewNameTable returns a table with only the empty name (ID 0).
func NewNameTable() *NameTable {
	return &NameTable{ids: map[string]uint32{"": 0}, names: []string{""}}
}

// Intern assigns (or returns) the ID for a name. Not safe concurrently
// with ID/Name — call during setup, before recording starts.
func (t *NameTable) Intern(name string) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// ID returns a name's ID, or 0 if it was never interned.
func (t *NameTable) ID(name string) uint32 { return t.ids[name] }

// Name returns the name for an ID ("" for 0 or unknown IDs).
func (t *NameTable) Name(id uint32) string {
	if int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}

// Len returns the number of interned names, including the empty name.
func (t *NameTable) Len() int { return len(t.names) }

// Event is one recorded stage event. Wall is wall-clock nanoseconds
// (non-deterministic, excluded from replay comparison); Sim is the
// deterministic pipeline position in sim.Time microseconds; NameID
// resolves through the recorder's NameTable; N is kind-specific (see
// the EventKind docs).
type Event struct {
	Kind   EventKind
	Wall   int64
	Sim    int64
	NameID uint32
	N      int64
}

// slot is one ring entry: a seqlock word plus the event packed into
// atomic words (kind and name ID share one). seq is odd while a write
// is in flight and (index+1)<<1 once generation `index` is published.
type slot struct {
	seq  atomic.Uint64
	kn   atomic.Uint64 // kind | nameID<<8
	wall atomic.Int64
	sim  atomic.Int64
	n    atomic.Int64
}

// FlightRecorder is a lock-free ring of the most recent events.
// Record is single-writer (one goroutine owns a session's ingest) and
// allocation-free; dumps may run concurrently from other goroutines
// and skip slots they catch mid-write instead of blocking the
// pipeline.
type FlightRecorder struct {
	mask  uint64
	w     atomic.Uint64 // total events ever recorded
	slots []slot
	names *NameTable
}

// NewFlightRecorder returns a recorder retaining the last `capacity`
// events (rounded up to a power of two, minimum 16). names resolves
// event name IDs in dumps; nil is allowed when no events carry names.
func NewFlightRecorder(capacity int, names *NameTable) *FlightRecorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slots: make([]slot, n), names: names}
}

// Cap returns the ring capacity in events.
func (r *FlightRecorder) Cap() int { return len(r.slots) }

// Names returns the recorder's name table (may be nil).
func (r *FlightRecorder) Names() *NameTable { return r.names }

// Total returns the number of events ever recorded; Total() - Cap(),
// when positive, is how many were overwritten.
func (r *FlightRecorder) Total() int64 { return int64(r.w.Load()) }

// Record appends one event, overwriting the oldest once the ring is
// full. It never blocks and never allocates.
func (r *FlightRecorder) Record(ev Event) {
	i := r.w.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.seq.Store(i<<1 | 1)
	s.kn.Store(uint64(ev.Kind) | uint64(ev.NameID)<<8)
	s.wall.Store(ev.Wall)
	s.sim.Store(ev.Sim)
	s.n.Store(ev.N)
	s.seq.Store((i + 1) << 1)
}

// Reset empties the recorder in place (the session-recycling path).
// Not safe concurrently with Record on the same recorder.
func (r *FlightRecorder) Reset() {
	for i := range r.slots {
		r.slots[i].seq.Store(0)
	}
	r.w.Store(0)
}

// load copies slot contents for generation i if it is cleanly
// published, skipping slots a concurrent Record has caught mid-write.
func (r *FlightRecorder) load(i uint64) (Event, bool) {
	s := &r.slots[i&r.mask]
	want := (i + 1) << 1
	if s.seq.Load() != want {
		return Event{}, false
	}
	kn := s.kn.Load()
	ev := Event{
		Kind:   EventKind(kn & 0xff),
		NameID: uint32(kn >> 8),
		Wall:   s.wall.Load(),
		Sim:    s.sim.Load(),
		N:      s.n.Load(),
	}
	if s.seq.Load() != want {
		return Event{}, false
	}
	return ev, true
}

// retained returns the [start, end) generation range currently held.
func (r *FlightRecorder) retained() (start, end uint64) {
	end = r.w.Load()
	if end > uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	return start, end
}

// Events returns the retained events, oldest first. Slots caught
// mid-overwrite by a concurrent Record are skipped, so a dump taken
// during ingest is a consistent (possibly slightly thinned) view.
func (r *FlightRecorder) Events() []Event {
	start, end := r.retained()
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		if ev, ok := r.load(i); ok {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL dumps the retained events as one JSON object per line,
// oldest first. With withWall false the wall_ns field is omitted — the
// remaining fields (seq, kind, sim_us, name, n) are deterministic for
// a fixed-seed session, which is what the replay-determinism tests
// compare.
func (r *FlightRecorder) WriteJSONL(w io.Writer, withWall bool) error {
	start, end := r.retained()
	var line []byte
	for i := start; i < end; i++ {
		ev, ok := r.load(i)
		if !ok {
			continue
		}
		line = line[:0]
		line = append(line, `{"seq":`...)
		line = strconv.AppendUint(line, i, 10)
		line = append(line, `,"kind":"`...)
		line = append(line, ev.Kind.String()...)
		line = append(line, '"')
		if withWall {
			line = append(line, `,"wall_ns":`...)
			line = strconv.AppendInt(line, ev.Wall, 10)
		}
		line = append(line, `,"sim_us":`...)
		line = strconv.AppendInt(line, ev.Sim, 10)
		if ev.NameID != 0 {
			name := ""
			if r.names != nil {
				name = r.names.Name(ev.NameID)
			}
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, name)
		}
		if ev.N != 0 {
			line = append(line, `,"n":`...)
			line = strconv.AppendInt(line, ev.N, 10)
		}
		line = append(line, '}', '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
