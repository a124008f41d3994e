package obs

import "strconv"

// This file is the pipeline flight recorder: a fixed-capacity ring
// buffer of per-session stage events. Each event carries both a
// wall-clock stamp (when it really happened on this node) and the
// deterministic sim.Time the pipeline was processing, so a dump of a
// misbehaving session can be diffed against a replay of the same trace:
// the sim-time-ordered event sequence is reproducible, the wall column
// shows where real time was spent. internal/node keeps one recorder per
// session and serves dumps at GET /debug/flightrec/{session}.
//
// A recorder belongs to one session and is guarded by that session's
// lock, which the recording pipeline already holds: Record takes no
// lock of its own, and a dump taken under the session lock holds every
// retained event, none skipped. No Event field is a pointer or a
// string — names travel as NameTable IDs — so Record allocates
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
	// RCA store; Sim = session duration, N = chain events.
	EvReportStored
)

var eventKindNames = [...]string{
	EvIngestChunk:     "ingest_chunk",
	EvWindowEvaluated: "window_evaluated",
	EvNodeFired:       "node_fired",
	EvNodeRunClosed:   "node_run_closed",
	EvChainRunOpened:  "chain_run_opened",
	EvChainRunClosed:  "chain_run_closed",
	EvReportStored:    "report_stored",
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

// FlightRecorder is a ring of a session's most recent events. It is
// session state, not safe for concurrent use: its owner records and
// dumps under the lock that guards the rest of the session
// (internal/node's session mutex), so Record is one store and one
// increment and never allocates.
type FlightRecorder struct {
	events []Event // len a power of two; event i sits at i & (len-1)
	n      uint64  // events ever recorded
	names  *NameTable
}

// NewFlightRecorder returns a recorder retaining the last `capacity`
// events (rounded up to a power of two, minimum 16). names resolves
// event name IDs in dumps; nil is allowed when no events carry names.
func NewFlightRecorder(capacity int, names *NameTable) *FlightRecorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{events: make([]Event, n), names: names}
}

// Record appends one event, overwriting the oldest once the ring is
// full.
func (r *FlightRecorder) Record(ev Event) {
	r.events[r.n&uint64(len(r.events)-1)] = ev
	r.n++
}

// AppendJSONL appends the retained events to dst as one JSON object per
// line, oldest first, and returns the extended slice. seq is the
// event's index among all the session's events, so a dump's seq values
// run consecutively from its first line. With withWall false the
// wall_ns field is omitted — the remaining fields (seq, kind, sim_us,
// name, n) are deterministic for a fixed-seed session, which is what
// the replay-determinism tests compare.
func (r *FlightRecorder) AppendJSONL(dst []byte, withWall bool) []byte {
	start := uint64(0)
	if r.n > uint64(len(r.events)) {
		start = r.n - uint64(len(r.events))
	}
	for i := start; i < r.n; i++ {
		ev := r.events[i&uint64(len(r.events)-1)]
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendUint(dst, i, 10)
		dst = append(dst, `,"kind":"`...)
		dst = append(dst, ev.Kind.String()...)
		dst = append(dst, '"')
		if withWall {
			dst = append(dst, `,"wall_ns":`...)
			dst = strconv.AppendInt(dst, ev.Wall, 10)
		}
		dst = append(dst, `,"sim_us":`...)
		dst = strconv.AppendInt(dst, ev.Sim, 10)
		if ev.NameID != 0 {
			name := ""
			if r.names != nil {
				name = r.names.Name(ev.NameID)
			}
			dst = append(dst, `,"name":`...)
			dst = strconv.AppendQuote(dst, name)
		}
		if ev.N != 0 {
			dst = append(dst, `,"n":`...)
			dst = strconv.AppendInt(dst, ev.N, 10)
		}
		dst = append(dst, '}', '\n')
	}
	return dst
}
