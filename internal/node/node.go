// Package node is the dominod analysis node as a library: the session
// table, the ingest handler that decodes a body block by block and steps
// each block through its session's analyzer, the other HTTP handlers,
// the /metrics registry and flight recorder, and drain/checkpoint
// shutdown. Concurrency comes from requests and nothing else: a request
// is net/http's goroutine, and ingest starts none of its own.
// cmd/dominod wires flags, store recovery and signals around it; tests
// and the balancer's fleet tests run it in-process.
//
// A Node ingests many concurrent session trace streams over HTTP —
// JSONL or the compact binary columnar format, negotiated per request
// by Content-Type — and serves per-session root-cause reports and
// aggregate cause-class counters while the calls are still in
// progress, using the streaming analyzer's O(window) per-session
// state.
//
// Endpoints (Routes):
//
//	POST /ingest?session=ID        chunked trace body; analyzed as it arrives.
//	                               Content-Type selects the decoder:
//	                               application/x-domino-trace for the binary
//	                               columnar format; application/jsonl,
//	                               application/x-ndjson, or application/json
//	                               for JSONL; empty or
//	                               application/octet-stream sniffs the first
//	                               bytes; anything else is a 415.
//	                               The resumable contract — seq/eos headers,
//	                               watermark, typed rejection codes — is
//	                               defined once, in internal/ingest; this
//	                               package only carries out its decisions.
//	GET  /sessions                 all sessions with live summary stats
//	GET  /sessions/{id}/watermark  accepted-record count, the resume point
//	GET  /report/{id}              full report (live snapshot while active)
//	GET  /query                    longitudinal RCA-store queries (see below)
//	GET  /incidents/similar        nearest prior incidents by fired-node signature
//	GET  /metrics                  Prometheus text exposition (0.0.4, HELP/TYPE)
//	GET  /debug/flightrec/{id}     pipeline flight recording, JSONL (?wall=0
//	                               for the deterministic replay-diff view)
//	GET  /healthz                  readiness probe + build identity; reports
//	                               "draining" (503) once Drain was called
//
// Session bodies are analyzed block by block as they upload, so a
// live collector can keep one chunked POST open for the whole call and
// poll /report/{id} for diagnosis in flight. Admission is bounded by
// Options.MaxStreams (a parallel.Limiter): saturation past an
// AdmitWait queue-wait sheds load with 429 + Retry-After instead of
// blocking forever, request bodies are capped at MaxBody (413), and
// clients stalled longer than StreamIdle between chunks are
// disconnected.
//
// Every completed session's report is also collapsed into the embedded
// fleet RCA store (internal/rcastore), so diagnosis survives session
// eviction and the node answers longitudinal queries:
//
//	GET /query?last=1h&agg=top_chains&k=5          top causal chains fleet-wide
//	GET /query?cell=tdd&cause=ul_scheduling        matching session records
//	GET /query?agg=cause_rates&bucket=10m          per-cell cause rates over time
//	GET /incidents/similar?session=s0042&k=3       prior incidents most like s0042
//
// /query accepts from/to (microsecond timestamps) or last (a duration
// back from now), cell, scenario, cause, fired (comma-separated node
// list, all required), session, and limit; agg selects top_chains
// (with k) or cause_rates (with bucket) instead of raw records.
// /incidents/similar probes by an existing session's signature
// (session=) or an explicit fired= node list.
//
// With Options.Journal every completed report is also appended to a
// crash-consistent write-ahead journal and folded into an atomic-rename
// checkpoint every CheckpointEvery reports and at Shutdown.
package node

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// Options configures a Node.
type Options struct {
	// MaxStreams bounds concurrently ingesting session streams.
	MaxStreams int
	// MaxSessions bounds retained sessions; past it the oldest finished
	// ones are evicted. 0 retains everything.
	MaxSessions int
	// Lateness is the accepted record out-of-orderness.
	Lateness sim.Time
	// DropLate counts and drops too-late records instead of failing the
	// stream.
	DropLate bool
	// StoreBlocks bounds the fleet RCA store (256-report blocks,
	// evicted oldest-first); 0 retains everything.
	StoreBlocks int
	// Store, when non-nil, seeds the node with preloaded history (a
	// reloaded spill). Otherwise an empty store is created.
	Store *rcastore.Store
	// FlightRec is the per-session flight-recorder capacity in events;
	// 0 (the zero value) disables flight recording.
	FlightRec int
	// Now overrides the fleet clock (wall-clock microseconds) stamped
	// onto persisted reports; nil selects time.Now. Tests inject a
	// deterministic clock here.
	Now func() sim.Time
	// Log receives the node's structured log; nil discards it.
	Log *slog.Logger

	// MaxBody caps /ingest request bodies in bytes; over-limit uploads
	// get 413 and release their admission slot. 0 is unlimited.
	MaxBody int64
	// AdmitWait bounds the queue-wait for an ingest slot; saturation
	// past it sheds with 429 + Retry-After. 0 blocks (legacy behavior).
	AdmitWait time.Duration
	// StreamIdle is the per-chunk read deadline on ingest bodies; a
	// client stalled longer than this is disconnected instead of
	// holding its slot. 0 disables.
	StreamIdle time.Duration
	// Journal, when non-nil, receives every record inserted into the
	// store; with CheckpointPath it makes the store crash-consistent.
	Journal *rcastore.Journal
	// CheckpointPath is where Journal checkpoints the store (atomic
	// rename); required when Journal is set.
	CheckpointPath string
	// CheckpointEvery checkpoints after this many journal appends;
	// 0 checkpoints only at shutdown.
	CheckpointEvery int
	// Recovery, when non-nil, carries the boot recovery stats so New
	// can surface them on /metrics.
	Recovery *rcastore.RecoveryStats
	// NodeID names this node on /healthz and in the
	// dominod_node_info{node=...} metric, so a fleet tier merging many
	// nodes' expositions can attribute samples. Empty omits both.
	NodeID string
}

// Node multiplexes concurrent session streams over one shared
// analyzer and keeps aggregate counters across them. What bounds it is
// the admission limiter: at most MaxStreams ingest requests run at once,
// each decoding and stepping its own body on its own goroutine. Sessions
// live in an ingest.Table, whose lock a request takes once or twice;
// per-session analyzer state (window evaluator series, incremental
// scratch) is recycled through the bounded analyzerPool free-list once a
// session finishes. Create with New, serve Routes, stop with Shutdown.
type Node struct {
	limiter *parallel.Limiter
	opts    Options
	log     *slog.Logger

	// m holds the observability surface: the /metrics registry, its
	// hot-path instruments, and the flight-recorder name table.
	m *metrics

	// store is the longitudinal fleet memory: every completed session's
	// report is collapsed into it, so diagnosis outlives both the
	// pooled analyzer state and registry eviction.
	store *rcastore.Store
	now   func() sim.Time

	// journal (nil when durability is off) write-ahead-logs every store
	// insert; journaled counts appends since the last checkpoint and
	// ckptMu single-flights the async checkpoints they trigger.
	journal   *rcastore.Journal
	journaled atomic.Int64
	ckptMu    sync.Mutex

	// draining flips at Drain: /healthz reports it and new sessions are
	// rejected while in-flight uploads finish.
	draining atomic.Bool

	// sessions is the session table, bounded by MaxSessions. Lock order
	// is session.mu → the table's lock, never the reverse.
	sessions *ingest.Table[*session]

	saPool   analyzerPool // recycled *stream.Analyzer
	ringPool sync.Pool    // recycled *trace.BlockRing, one per upload in flight
}

// analyzerPool is a bounded free-list of detached stream analyzers.
// Unlike sync.Pool, its contents survive GC cycles: an analyzer's
// value is the window-evaluator and incremental scratch it has grown
// to fleet working-set size, and letting the collector's victim-cache
// sweep reclaim that scratch forces the next session to re-grow it
// all — megabytes of avoidable allocation per evicted analyzer. The
// list is capped at the concurrent-stream limit, so retained memory is
// bounded by the same knob that bounds live ingest state; overflow is
// dropped to the GC.
type analyzerPool struct {
	mu     sync.Mutex
	free   []*stream.Analyzer
	newFn  func() *stream.Analyzer
	onMiss func()
}

// Get pops a recycled analyzer or builds a fresh one.
func (p *analyzerPool) Get() *stream.Analyzer {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sa := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return sa
	}
	p.mu.Unlock()
	p.onMiss()
	return p.newFn()
}

// Put returns a Reset analyzer to the free-list, dropping it when the
// list is at capacity.
func (p *analyzerPool) Put(sa *stream.Analyzer) {
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, sa)
	}
	p.mu.Unlock()
}

type session struct {
	id string

	// upload serializes uploads: the one POST that may drive the
	// session's analyzer is the one whose token sits in this one-slot
	// channel (put there by register or acquireIngest, taken out by
	// release), so a resumed session cannot race its own abandoned
	// predecessor request.
	upload chan struct{}

	mu sync.Mutex
	sa *stream.Analyzer // non-nil while ingesting; recycled after
	// proto is the session as the ingest protocol sees it: its state
	// and the resumable-ingest watermark — decoded records (header
	// included, as record 0) pushed through the analyzer so far. A
	// retrying client replays from there.
	proto ingest.Session
	err   string
	final *core.Report

	// Captured when the analyzer is detached at completion, so
	// /sessions and /report keep serving finished sessions without
	// pinning the (pooled) analyzer state.
	stats  stream.Stats
	hdr    trace.Header
	hasHdr bool

	// rec is the session's pipeline flight recorder (nil with
	// FlightRec 0). It outlives the pooled analyzer so
	// /debug/flightrec/{id} serves finished sessions too.
	rec *obs.FlightRecorder
}

// protocol reads the session's protocol state under its lock.
func (sess *session) protocol() ingest.Session {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.proto
}

// release gives the session's upload slot back.
func (sess *session) release() { <-sess.upload }

// New builds a Node around a compiled analyzer.
func New(analyzer *core.Analyzer, opts Options) *Node {
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n := &Node{
		limiter: parallel.NewLimiter(opts.MaxStreams),
		opts:    opts,
		log:     opts.Log,
		m:       newMetrics(analyzer),
		store:   opts.Store,
		journal: opts.Journal,
		now:     opts.Now,
	}
	n.sessions = ingest.NewTable("s%04d", opts.MaxSessions, func(sess *session) {
		n.m.sessionsEvicted.Inc() // a finished session past MaxSessions
		if sess.rec != nil {
			sess.rec.Record(obs.Event{Kind: obs.EvSessionEvicted, Wall: time.Now().UnixNano()})
		}
	})
	if n.store == nil {
		n.store = rcastore.New(rcastore.Options{MaxBlocks: opts.StoreBlocks})
	}
	if n.now == nil {
		n.now = func() sim.Time { return sim.Time(time.Now().UnixMicro()) }
	}
	poolCap := opts.MaxStreams
	if poolCap < 1 {
		poolCap = 1
	}
	n.saPool = analyzerPool{
		free: make([]*stream.Analyzer, 0, poolCap),
		// One session's streaming analyzer. Pipeline counters and
		// flight-recorder events ride on obs.Hooks installed per session
		// at registration (see register), not on the analyzer itself —
		// the pooled analyzer clears its hooks on Reset. Per-window
		// results are not retained: the node serves event-run statistics,
		// so a session's report stays bounded by its event runs however
		// long the call lasts.
		newFn: func() *stream.Analyzer {
			return stream.New(analyzer, stream.Config{Lateness: opts.Lateness, DropLate: opts.DropLate, DropWindows: true})
		},
		onMiss: func() { n.m.poolMisses.Inc() },
	}
	n.ringPool.New = func() any { return trace.NewBlockRing(1) }
	n.registerGauges()
	return n
}

// Routes returns the node's HTTP surface.
func (n *Node) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", n.handleIngest)
	mux.HandleFunc("GET /sessions", n.handleSessions)
	mux.HandleFunc("GET /sessions/{id}/watermark", n.handleWatermark)
	mux.HandleFunc("GET /report/{id}", n.handleReport)
	mux.HandleFunc("GET /query", n.handleQuery)
	mux.HandleFunc("GET /incidents/similar", n.handleSimilar)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("GET /debug/flightrec/{id}", n.handleFlightRec)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	return mux
}

// Store is the node's fleet RCA store.
func (n *Node) Store() *rcastore.Store { return n.store }

// Drain flips the node to draining: /healthz answers 503 "draining" so
// routers fail over first, and new ingest requests are rejected while
// in-flight uploads finish.
func (n *Node) Drain() { n.draining.Store(true) }

// Shutdown stops the node gracefully: it drains, lets srv's in-flight
// uploads run until ctx ends (then cuts them), and — when journaling —
// writes the final checkpoint and closes the journal.
func (n *Node) Shutdown(ctx context.Context, srv *http.Server) error {
	n.Drain()
	if err := srv.Shutdown(ctx); err != nil {
		n.log.Warn("drain deadline exceeded, cutting in-flight sessions", "err", err)
	}
	if n.journal == nil {
		return nil
	}
	if err := n.journal.Checkpoint(n.store, n.opts.CheckpointPath); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if err := n.journal.Close(); err != nil {
		return fmt.Errorf("closing journal: %w", err)
	}
	n.log.Info("RCA store checkpointed", "path", n.opts.CheckpointPath, "stats", n.store.Stats().String())
	return nil
}

// register creates a fresh session under id (minted when empty) in the
// session table, replacing a failed predecessor. It reports false when id
// names a session the protocol does not let a fresh upload replace.
func (n *Node) register(id string) (*session, string, bool) {
	// The analyzer and the flight recorder are taken before the table
	// lock: a pool miss builds an analyzer and a recorder is a ring to
	// zero, which is no time to hold it.
	sa := n.saPool.Get()
	n.m.poolGets.Inc()
	var rec *obs.FlightRecorder
	if n.opts.FlightRec > 0 {
		rec = obs.NewFlightRecorder(n.opts.FlightRec, n.m.names)
	}
	sess, id, fresh := n.sessions.Admit(id, func(id string) *session {
		sess := &session{id: id, sa: sa, rec: rec, upload: make(chan struct{}, 1)}
		// Born holding its upload slot: the registering request owns the
		// session from the instant it is visible, so a racing resume
		// attempt can never drive the same analyzer.
		sess.upload <- struct{}{}
		sess.proto.State = ingest.StateActive
		sa.SetHooks(&pipelineHooks{m: n.m, rec: rec})
		return sess
	})
	if !fresh {
		n.saPool.Put(sa)
		return nil, id, false
	}
	n.m.sessionsTotal.Inc()
	return sess, id, true
}

// ingestHandoverWait bounds how long a resumable retry waits for the
// interrupted upload's handler — which may not yet have observed its
// dead connection — to release the session before the retry is shed
// with a retryable 503.
const ingestHandoverWait = 2 * time.Second

// acquireIngest takes the session's upload slot. A retry can race the
// handler it is replacing: the client saw the connection reset, but the
// server side of that upload is still draining toward its own read
// error and holds the slot. Waiting here keeps that handover invisible
// to well-behaved clients; a session still owned after
// ingestHandoverWait is genuinely busy, and a client that gave up (ctx)
// stops waiting with the same answer.
func acquireIngest(ctx context.Context, sess *session) bool {
	wait := time.NewTimer(ingestHandoverWait)
	defer wait.Stop()
	select {
	case sess.upload <- struct{}{}:
		return true
	case <-wait.C:
	case <-ctx.Done():
	}
	return false
}

// admit resolves an ingest request onto a session and returns the
// protocol's decision for it. On Proceed the session's upload slot is
// held by the caller; on Replay sess is the completed session; on
// Reject nothing is held. The decisions are ingest.Session.Admit's —
// this function only arranges the locks and the handover around them.
func (n *Node) admit(ctx context.Context, id string, req ingest.Request) (*session, string, ingest.Decision) {
	if req.Resumable && id != "" {
		if sess := n.lookup(id); sess != nil {
			switch sess.protocol().State {
			case ingest.StateDone:
				return sess, id, ingest.Decision{Action: ingest.Replay}
			case ingest.StateActive:
				if !acquireIngest(ctx, sess) {
					return sess, id, ingest.Decision{Action: ingest.Reject, Code: ingest.CodeBusy}
				}
				// Decide under the slot: the previous upload may have
				// advanced, finished or failed the session before
				// releasing it.
				d := sess.protocol().Admit(req)
				if d.Action == ingest.Proceed && d.Resume {
					return sess, id, d
				}
				sess.release()
				if d.Action != ingest.Proceed {
					return sess, id, d
				}
				// Failed while we raced; re-register below.
			}
		}
	}
	// No live session to continue: a fresh one has accepted nothing, so
	// a nonzero starting offset is a gap before the stream begins.
	if d := (ingest.Session{}).Admit(req); d.Action != ingest.Proceed {
		return nil, id, d
	}
	sess, id, ok := n.register(id)
	if !ok {
		return nil, id, ingest.Decision{Action: ingest.Reject, Code: ingest.CodeConflict}
	}
	return sess, id, ingest.Decision{Action: ingest.Proceed}
}

func (n *Node) lookup(id string) *session { return n.sessions.Get(id) }
