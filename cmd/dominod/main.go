// Command dominod is the live, operator-side Domino analysis service:
// the always-on deployment mode the paper frames for its detector. It
// ingests many concurrent session trace streams over HTTP — JSONL or
// the compact binary columnar format, negotiated per request by
// Content-Type — and serves per-session root-cause reports and
// aggregate cause-class counters while the calls are still in
// progress, using the streaming analyzer's O(window) per-session
// state.
//
// Usage:
//
//	dominod [-addr :8077] [-graph chains.txt] [-max-streams 64]
//	        [-lateness 0s] [-drop-late] [-flightrec 1024]
//	        [-max-body N] [-admit-wait 2s] [-stream-idle 5m] [-drain 10s]
//	        [-store-spill FILE] [-store-journal FILE] [-store-sync 1]
//	        [-checkpoint-every 1024] [-fixed-clock 0]
//	        [-debug-addr :6060] [-log-format text|json] [-v]
//	dominod -stdin < call.jsonl
//
// Endpoints:
//
//	POST /ingest?session=ID        chunked trace body; analyzed as it arrives.
//	                               Content-Type selects the decoder:
//	                               application/x-domino-trace for the binary
//	                               columnar format; application/jsonl,
//	                               application/x-ndjson, or application/json
//	                               for JSONL; empty or
//	                               application/octet-stream sniffs the first
//	                               bytes; anything else is a 415.
//	                               An X-Domino-Seq header opts into the
//	                               resumable contract (see internal/ingest):
//	                               the body starts at that record index,
//	                               X-Domino-Eos: 1 marks the final chunk,
//	                               and mid-stream failures suspend the
//	                               session for retry instead of failing it.
//	GET  /sessions                 all sessions with live summary stats
//	GET  /sessions/{id}/watermark  accepted-record count, the resume point
//	GET  /report/{id}              full report (live snapshot while active)
//	GET  /query                    longitudinal RCA-store queries (see below)
//	GET  /incidents/similar        nearest prior incidents by fired-node signature
//	GET  /metrics                  Prometheus text exposition (0.0.4, HELP/TYPE)
//	GET  /debug/flightrec/{id}     pipeline flight recording, JSONL (?wall=0
//	                               for the deterministic replay-diff view)
//	GET  /healthz                  readiness probe + build identity; reports
//	                               "draining" (503) during SIGTERM drain
//
// -debug-addr serves net/http/pprof on a separate listener. Logging
// goes through log/slog (-log-format json for structured output, -v
// for per-session debug events).
//
// Session bodies are analyzed record-by-record as they upload, so a
// live collector can keep one chunked POST open for the whole call and
// poll /report/{id} for diagnosis in flight. Admission is bounded by
// -max-streams (a parallel.Limiter): saturation past an -admit-wait
// queue-wait sheds load with 429 + Retry-After instead of blocking
// forever, request bodies are capped at -max-body (413), and clients
// stalled longer than -stream-idle between chunks are disconnected.
// With -stdin the service analyzes a single session from standard
// input and prints the final report, mirroring cmd/domino but via the
// streaming path.
//
// Durability: with -store-spill (or an explicit -store-journal) every
// completed report is also appended to a crash-consistent write-ahead
// journal, fsync-batched per -store-sync and folded into an
// atomic-rename checkpoint every -checkpoint-every reports and at
// shutdown. After a crash the store recovers byte-identical to a
// graceful shutdown: checkpoint load, journal tail replay (a torn
// final record is discarded), session-level dedup across the
// checkpoint crash window. SIGTERM drains in-flight sessions up to
// -drain before the final checkpoint, with /healthz reporting
// "draining" so routers fail over first.
//
// Every completed session's report is also collapsed into the embedded
// fleet RCA store (internal/rcastore), so diagnosis survives session
// eviction and the service answers longitudinal queries:
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
// (session=) or an explicit fired= node list. Store retention is
// bounded by -store-blocks; -store-spill FILE reloads history at boot
// and spills it back on shutdown.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/domino5g/domino"
	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dominod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8077", "listen address")
	graphPath := fs.String("graph", "", "path to a causal-chain DSL file (default: built-in Fig. 9 graph)")
	maxStreams := fs.Int("max-streams", 64, "maximum concurrently ingesting session streams")
	maxSessions := fs.Int("max-sessions", 1024, "retained sessions before the oldest finished ones are evicted")
	lateness := fs.Duration("lateness", 0, "accepted record out-of-orderness (e.g. 100ms)")
	dropLate := fs.Bool("drop-late", false, "count and drop too-late records instead of failing the stream")
	storeBlocks := fs.Int("store-blocks", 4096, "retained RCA-store blocks of 256 reports each (0 = unbounded)")
	storeSpill := fs.String("store-spill", "", "RCA-store spill file: loaded at startup if present, written at shutdown")
	stdin := fs.Bool("stdin", false, "analyze one session from standard input and exit")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (disabled when empty)")
	flightRec := fs.Int("flightrec", 1024, "per-session flight-recorder capacity in events (0 disables)")
	maxBody := fs.Int64("max-body", 256<<20, "maximum /ingest request body bytes (0 = unlimited)")
	admitWait := fs.Duration("admit-wait", 2*time.Second, "bounded wait for an ingest slot before shedding with 429 (0 = block)")
	streamIdle := fs.Duration("stream-idle", 5*time.Minute, "per-chunk read deadline on ingest bodies; slow clients are cut, not held (0 disables)")
	drainWait := fs.Duration("drain", 10*time.Second, "SIGTERM drain deadline for in-flight sessions before the final checkpoint")
	storeJournal := fs.String("store-journal", "", "RCA-store write-ahead journal path (default <store-spill>.wal when -store-spill is set; \"off\" disables)")
	storeSync := fs.Int("store-sync", 1, "journal appends per fsync (group commit; 1 = every report durable on ack)")
	checkpointEvery := fs.Int("checkpoint-every", 1024, "journal appends between automatic checkpoints (0 = checkpoint only at shutdown)")
	fixedClock := fs.Int64("fixed-clock", 0, "fix the fleet clock to this microsecond timestamp for deterministic runs (0 = wall clock)")
	nodeID := fs.String("node-id", "", "node identity surfaced on /healthz and as dominod_node_info{node=...} so merged fleet expositions attribute samples (default: hostname)")
	verbose := fs.Bool("v", false, "log per-session lifecycle events (debug level)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})
	case "json":
		handler = slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level})
	default:
		fmt.Fprintf(stderr, "dominod: bad -log-format %q (want text or json)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	graph := domino.DefaultGraph()
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fmt.Fprintln(stderr, "dominod:", err)
			return 1
		}
		g, err := domino.ParseChains(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "dominod: parsing %s: %v\n", *graphPath, err)
			return 1
		}
		graph = g
	}
	analyzer, err := domino.NewAnalyzer(domino.DetectorConfig{}, graph)
	if err != nil {
		fmt.Fprintln(stderr, "dominod:", err)
		return 1
	}

	opts := serverOptions{
		MaxStreams:  *maxStreams,
		MaxSessions: *maxSessions,
		Lateness:    sim.Time(*lateness / time.Microsecond),
		DropLate:    *dropLate,
		StoreBlocks: *storeBlocks,
		FlightRec:   *flightRec,
		MaxBody:     *maxBody,
		AdmitWait:   *admitWait,
		StreamIdle:  *streamIdle,
		Log:         logger,
		NodeID:      *nodeID,
	}
	if opts.NodeID == "" {
		if host, err := os.Hostname(); err == nil {
			opts.NodeID = host
		}
	}
	if *fixedClock != 0 {
		at := sim.Time(*fixedClock)
		opts.Now = func() sim.Time { return at }
	}
	journalPath := *storeJournal
	if journalPath == "" && *storeSpill != "" {
		journalPath = *storeSpill + ".wal"
	}
	if journalPath == "off" {
		journalPath = ""
	}
	switch {
	case !*stdin && journalPath != "":
		// Durable mode: crash-recover checkpoint + journal tail, then
		// keep journaling. The spill file doubles as the checkpoint.
		ckptPath := *storeSpill
		if ckptPath == "" {
			ckptPath = journalPath + ".ckpt"
		}
		st, j, rstats, err := rcastore.Recover(ckptPath, journalPath,
			rcastore.Options{MaxBlocks: *storeBlocks},
			rcastore.JournalOptions{SyncEvery: *storeSync})
		if err != nil {
			fmt.Fprintln(stderr, "dominod: recovering RCA store:", err)
			return 1
		}
		opts.Store = st
		opts.Journal = j
		opts.CheckpointPath = ckptPath
		opts.CheckpointEvery = *checkpointEvery
		opts.Recovery = &rstats
		logger.Info("RCA store recovered",
			"checkpoint", ckptPath, "journal", journalPath,
			"checkpoint_rows", rstats.CheckpointRows, "replayed", rstats.Replayed,
			"deduped", rstats.Deduped, "torn_tail", rstats.TornTail)
	case *storeSpill != "":
		if f, err := os.Open(*storeSpill); err == nil {
			st, err := rcastore.Load(f, rcastore.Options{MaxBlocks: *storeBlocks})
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "dominod: loading RCA store spill %s: %v\n", *storeSpill, err)
				return 1
			}
			opts.Store = st
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(stderr, "dominod:", err)
			return 1
		}
	}
	srv := newServer(analyzer, opts)

	if *stdin {
		return srv.runStdin(os.Stdin, stdout, stderr)
	}

	// ReadTimeout deliberately stays 0: ingest bodies are long-lived
	// chunked streams that legitimately outlive any whole-request
	// budget. Slow clients are bounded per-chunk by -stream-idle read
	// deadlines instead; header parsing and idle keep-alives get hard
	// timeouts here.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				srv.log.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		defer dbg.Close()
		srv.log.Info("pprof enabled", "addr", *debugAddr)
	}
	srv.log.Info("listening", "addr", *addr, "node", opts.NodeID, "stream_slots", *maxStreams, "chains", len(analyzer.Chains()))
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "dominod:", err)
		return 1
	case <-ctx.Done():
		// Drain: /healthz flips to "draining" and new sessions are
		// rejected while in-flight uploads run to the deadline; only
		// then is the final state checkpointed.
		srv.draining.Store(true)
		srv.log.Info("draining", "deadline", *drainWait)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			srv.log.Warn("drain deadline exceeded, cutting in-flight sessions", "err", err)
		}
		srv.exec.Close()
		switch {
		case srv.journal != nil:
			if err := srv.journal.Checkpoint(srv.store, srv.opts.CheckpointPath); err != nil {
				fmt.Fprintln(stderr, "dominod: final checkpoint:", err)
				return 1
			}
			if err := srv.journal.Close(); err != nil {
				fmt.Fprintln(stderr, "dominod: closing journal:", err)
				return 1
			}
			srv.log.Info("RCA store checkpointed", "path", srv.opts.CheckpointPath, "stats", srv.store.Stats().String())
		case *storeSpill != "":
			if err := spillStore(srv.store, *storeSpill); err != nil {
				fmt.Fprintln(stderr, "dominod: spilling RCA store:", err)
				return 1
			}
			srv.log.Info("RCA store spilled", "path", *storeSpill, "stats", srv.store.Stats().String())
		}
		srv.log.Info("shut down")
		return 0
	}
}

// spillStore writes the store atomically: spill to a temp file in the
// target directory, then rename over the destination.
func spillStore(st *rcastore.Store, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := st.Spill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

type serverOptions struct {
	MaxStreams  int
	MaxSessions int
	Lateness    sim.Time
	DropLate    bool
	// StoreBlocks bounds the fleet RCA store (256-report blocks,
	// evicted oldest-first); 0 retains everything.
	StoreBlocks int
	// Store, when non-nil, seeds the server with preloaded history (a
	// reloaded spill). Otherwise an empty store is created.
	Store *rcastore.Store
	// FlightRec is the per-session flight-recorder capacity in events;
	// 0 (the zero value) disables flight recording.
	FlightRec int
	// Now overrides the fleet clock (wall-clock microseconds) stamped
	// onto persisted reports; nil selects time.Now. Tests inject a
	// deterministic clock here.
	Now func() sim.Time
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
	// Recovery, when non-nil, carries the boot recovery stats so
	// newServer can surface them on /metrics.
	Recovery *rcastore.RecoveryStats
	// NodeID names this node on /healthz and in the
	// dominod_node_info{node=...} metric, so a fleet tier merging many
	// nodes' expositions can attribute samples. Empty omits both.
	NodeID string
}

// server multiplexes concurrent session streams over one shared
// analyzer and keeps aggregate counters across them. The session
// registry is sharded by session-ID hash so fleet-scale concurrent
// ingest never serializes on one registry lock, and per-session
// analyzer state (window evaluator series, incremental scratch) is
// recycled through the bounded analyzerPool free-list once a session
// finishes.
type server struct {
	analyzer *core.Analyzer
	limiter  *parallel.Limiter
	opts     serverOptions
	log      *slog.Logger

	// exec is the shared work-stealing pool the ingest path pipelines
	// analyzer steps onto: while a handler goroutine decodes chunk N+1
	// from the wire, a pool worker pushes chunk N through the session's
	// analyzer. It lives for the server's lifetime (Close drains it at
	// shutdown); a closed pool degrades Submit to a synchronous call,
	// so late uploads still complete.
	exec *parallel.Executor

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

	// draining flips at SIGTERM: /healthz reports it and new sessions
	// are rejected while in-flight uploads finish.
	draining atomic.Bool

	causeClass, consequenceClass map[string]bool

	shards  [registryShards]regShard
	count   atomic.Int64 // live sessions across all shards
	nextID  atomic.Int64 // anonymous-session ID allocator
	nextSeq atomic.Int64 // global registration order
	saPool  analyzerPool // recycled *stream.Analyzer
	recPool sync.Pool    // recycled *[]trace.Record ingest chunks
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

// registryShards is the session-registry fan-out; a power of two so
// the hash mixes cheaply.
const registryShards = 16

// ingestChunk is how many decoded records are pushed per session-lock
// acquisition (and the capacity of pooled record buffers).
const ingestChunk = 256

type regShard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

type session struct {
	id  string
	seq int64 // global registration order

	// finished mirrors state != "active" for lock-free reads: the
	// eviction scan checks it without taking sess.mu, so registration
	// at the retention cap never contends with a session mid-chunk.
	finished atomic.Bool

	// ingesting serializes uploads: at most one POST drives a session's
	// analyzer at a time, so a resumed session cannot race its own
	// abandoned predecessor request.
	ingesting atomic.Bool

	mu    sync.Mutex
	sa    *stream.Analyzer // non-nil while ingesting; recycled after
	state string           // "active", "done", "failed"
	err   string
	final *core.Report

	// accepted is the resumable-ingest watermark: decoded records
	// (header included, as record 0) pushed through the analyzer so
	// far. A retrying client replays from here; the handler dedups the
	// already-accepted prefix of its body.
	accepted int

	// Captured when the analyzer is detached at completion, so
	// /sessions and /report keep serving finished sessions without
	// pinning the (pooled) analyzer state.
	stats  stream.Stats
	hdr    trace.Header
	hasHdr bool

	// rec is the session's pipeline flight recorder (nil with
	// -flightrec 0). It outlives the pooled analyzer so
	// /debug/flightrec/{id} serves finished sessions too.
	rec *obs.FlightRecorder
}

func newServer(analyzer *core.Analyzer, opts serverOptions) *server {
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &server{
		analyzer:         analyzer,
		limiter:          parallel.NewLimiter(opts.MaxStreams),
		exec:             parallel.NewExecutor(0, nil),
		opts:             opts,
		log:              opts.Log,
		m:                newMetrics(analyzer),
		store:            opts.Store,
		now:              opts.Now,
		causeClass:       map[string]bool{},
		consequenceClass: map[string]bool{},
	}
	if s.store == nil {
		s.store = rcastore.New(rcastore.Options{MaxBlocks: opts.StoreBlocks})
	}
	s.store.SetHooks(&storeHooks{m: s.m})
	if opts.Journal != nil {
		s.journal = opts.Journal
		s.journal.SetHooks(&journalHooks{m: s.m})
	}
	if opts.Recovery != nil {
		// Recovery ran before this registry existed; surface its stats.
		s.m.journalReplayed.Add(int64(opts.Recovery.Replayed))
		s.m.journalDeduped.Add(int64(opts.Recovery.Deduped))
	}
	if s.now == nil {
		s.now = func() sim.Time { return sim.Time(time.Now().UnixMicro()) }
	}
	for i := range s.shards {
		s.shards[i].sessions = map[string]*session{}
	}
	poolCap := opts.MaxStreams
	if poolCap < 1 {
		poolCap = 1
	}
	s.saPool = analyzerPool{
		free:   make([]*stream.Analyzer, 0, poolCap),
		newFn:  s.newStream,
		onMiss: func() { s.m.poolMisses.Inc() },
	}
	s.recPool.New = func() any {
		buf := make([]trace.Record, 0, ingestChunk)
		return &buf
	}
	for _, c := range domino.CauseClasses() {
		s.causeClass[c] = true
	}
	for _, c := range domino.ConsequenceClasses() {
		s.consequenceClass[c] = true
	}
	s.registerGauges()
	return s
}

func (s *server) shard(id string) *regShard {
	// FNV-1a over the session ID.
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &s.shards[h&(registryShards-1)]
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /sessions", s.handleSessions)
	mux.HandleFunc("GET /sessions/{id}/watermark", s.handleWatermark)
	mux.HandleFunc("GET /report/{id}", s.handleReport)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /incidents/similar", s.handleSimilar)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flightrec/{id}", s.handleFlightRec)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// newStream builds one session's streaming analyzer. Pipeline counters
// and flight-recorder events ride on obs.Hooks installed per session
// at registration (see register), not on the analyzer itself — the
// pooled analyzer clears its hooks on Reset. Per-window results are
// not retained: the service serves event-run statistics, so a
// session's report stays bounded by its event runs however long the
// call lasts.
func (s *server) newStream() *stream.Analyzer {
	return stream.New(s.analyzer, stream.Config{
		Lateness:    s.opts.Lateness,
		DropLate:    s.opts.DropLate,
		DropWindows: true,
	})
}

func (s *server) register(id string) (*session, string, bool) {
	if id == "" {
		id = fmt.Sprintf("s%04d", s.nextID.Add(1))
	}
	sh := s.shard(id)
	sh.mu.Lock()
	if old, exists := sh.sessions[id]; exists {
		// A failed ingest must not squat on its ID: collectors retry
		// the same call ID, and only an active or completed session is
		// worth protecting from replacement.
		old.mu.Lock()
		failed := old.state == "failed"
		old.mu.Unlock()
		if !failed {
			sh.mu.Unlock()
			return nil, id, false
		}
		delete(sh.sessions, id)
		s.count.Add(-1)
	}
	sess := &session{id: id, seq: s.nextSeq.Add(1), state: "active", sa: s.saPool.Get()}
	// Born ingesting: the registering request holds the upload flag
	// from the instant the session is visible, so a racing resume
	// attempt can never drive the same analyzer.
	sess.ingesting.Store(true)
	s.m.poolGets.Inc()
	if s.opts.FlightRec > 0 {
		sess.rec = obs.NewFlightRecorder(s.opts.FlightRec, s.m.names)
	}
	sess.sa.SetHooks(&pipelineHooks{m: s.m, rec: sess.rec})
	sh.sessions[id] = sess
	sh.mu.Unlock()
	s.count.Add(1)
	s.evict()
	s.m.sessionsTotal.Inc()
	return sess, id, true
}

// ingestStatusReplay is registerOrResume's "session already completed"
// disposition: serve the stored report again (idempotent retry of a
// client that lost the final response).
const ingestStatusReplay = -1

// retryAfterOverload is the Retry-After value (seconds) sent with 429
// load-shed responses.
const retryAfterOverload = "1"

// ingestHandoverWait bounds how long a resumable retry waits for the
// interrupted upload's handler — which may not yet have observed its
// dead connection — to release the session before the retry is shed
// with a retryable 503.
const ingestHandoverWait = 2 * time.Second

// acquireIngest takes the session's upload-serialization flag. A
// retry can race the handler it is replacing: the client saw the
// connection reset, but the server side of that upload is still
// draining toward its own read error and holds the flag. Waiting here
// keeps that handover invisible to well-behaved clients; a session
// still owned after ingestHandoverWait is genuinely busy.
func acquireIngest(sess *session) bool {
	deadline := time.Now().Add(ingestHandoverWait)
	for !sess.ingesting.CompareAndSwap(false, true) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// registerOrResume resolves an ingest request onto a session. It
// returns the session, its (possibly allocated) ID, whether this
// request resumes an existing active session, and a disposition:
// http.StatusOK to proceed (the session's ingesting flag is then held
// by the caller), ingestStatusReplay when the session already
// completed, StatusServiceUnavailable when another upload still owns
// it after the handover wait (transient — the client retries),
// StatusConflict when a non-resumable request reuses an existing ID,
// or StatusPreconditionFailed when seq starts past the session's
// watermark (the client must probe and replay).
func (s *server) registerOrResume(id string, resumable bool, seq int) (*session, string, bool, int) {
	if resumable && id != "" {
		if sess := s.lookup(id); sess != nil {
			sess.mu.Lock()
			state := sess.state
			sess.mu.Unlock()
			switch state {
			case "done":
				return sess, id, false, ingestStatusReplay
			case "active":
				if !acquireIngest(sess) {
					return sess, id, false, http.StatusServiceUnavailable
				}
				// Re-read under the flag: the previous upload may have
				// finished the session before releasing it.
				sess.mu.Lock()
				state, acc := sess.state, sess.accepted
				sess.mu.Unlock()
				switch {
				case state == "done":
					sess.ingesting.Store(false)
					return sess, id, false, ingestStatusReplay
				case state == "active" && seq > acc:
					sess.ingesting.Store(false)
					return sess, id, false, http.StatusPreconditionFailed
				case state == "active":
					return sess, id, true, http.StatusOK
				}
				// Failed while we raced; release and re-register below.
				sess.ingesting.Store(false)
			}
		}
	}
	if seq > 0 {
		// A fresh session has accepted nothing; a nonzero starting
		// offset is a gap before the stream begins.
		return nil, id, false, http.StatusPreconditionFailed
	}
	sess, id, ok := s.register(id)
	if !ok {
		return nil, id, false, http.StatusConflict
	}
	return sess, id, false, http.StatusOK
}

// evict bounds retention: once MaxSessions is reached, the globally
// oldest finished (done or failed) sessions are dropped. Active
// sessions are never evicted; their count is already bounded by the
// admission limiter plus waiting uploads. Shards are scanned without
// any global lock — the bound is enforced within one session of exact.
func (s *server) evict() {
	max := s.opts.MaxSessions
	if max <= 0 {
		return
	}
	for s.count.Load() > int64(max) {
		var oldest *session
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			for _, sess := range sh.sessions {
				if sess.finished.Load() && (oldest == nil || sess.seq < oldest.seq) {
					oldest = sess
				}
			}
			sh.mu.Unlock()
		}
		if oldest == nil {
			return
		}
		sh := s.shard(oldest.id)
		sh.mu.Lock()
		if sh.sessions[oldest.id] == oldest {
			delete(sh.sessions, oldest.id)
			s.count.Add(-1)
			s.m.sessionsEvicted.Inc()
			if oldest.rec != nil {
				oldest.rec.Record(obs.Event{Kind: obs.EvSessionEvicted, Wall: time.Now().UnixNano()})
			}
		}
		sh.mu.Unlock()
	}
}

func (s *server) lookup(id string) *session {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[id]
}

// The negotiated ingest wire formats. formatBinary is the compact
// columnar trace encoding (internal/trace.WriteBinary); formatJSONL is
// the line-delimited compatibility path.
const (
	formatJSONL  = "jsonl"
	formatBinary = "binary"

	// contentTypeBinary is the media type that selects the binary
	// columnar decoder on /ingest.
	contentTypeBinary = "application/x-domino-trace"
)

// jsonlContentTypes are the media types that select the JSONL decoder.
var jsonlContentTypes = map[string]bool{
	"application/jsonl":    true,
	"application/x-ndjson": true,
	"application/json":     true,
}

// supportedContentTypes is the 415 error's list of accepted media
// types.
const supportedContentTypes = contentTypeBinary +
	", application/jsonl, application/x-ndjson, application/json, application/octet-stream"

// negotiateFormat maps an ingest request's Content-Type onto a decode
// format: formatBinary, formatJSONL, or "" when the first body bytes
// should be sniffed instead (no Content-Type, or the generic
// octet-stream). Any other media type is an error the handler turns
// into a 415.
func negotiateFormat(r *http.Request) (string, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "", nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return "", fmt.Errorf("unparseable Content-Type %q (supported: %s)", ct, supportedContentTypes)
	}
	switch {
	case mt == contentTypeBinary:
		return formatBinary, nil
	case jsonlContentTypes[mt]:
		return formatJSONL, nil
	case mt == "application/octet-stream":
		return "", nil
	}
	return "", fmt.Errorf("unsupported Content-Type %q (supported: %s)", mt, supportedContentTypes)
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.m.ingestRejected["draining"].Inc()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "draining: this node is shutting down, retry elsewhere")
		return
	}
	format, err := negotiateFormat(r)
	if err != nil {
		// Rejected before registration: an unsupported media type must
		// not squat on its session ID or burn an admission slot.
		httpError(w, http.StatusUnsupportedMediaType, err.Error())
		return
	}
	// The resumable contract rides on two headers: X-Domino-Seq (the
	// record index this body starts at; presence opts the session in)
	// and X-Domino-Eos (this request carries the end of the session).
	// Without them the request is the legacy one-shot contract — body
	// EOF ends the session, any mid-stream error fails it.
	seq, resumable := 0, false
	if v := r.Header.Get(ingest.HeaderSeq); v != "" {
		seq, err = strconv.Atoi(v)
		if err != nil || seq < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q: want a record index", ingest.HeaderSeq, v))
			return
		}
		resumable = true
	}
	eos := !resumable || r.Header.Get(ingest.HeaderEos) == "1"

	// Admission before registration: a shed upload leaves no session
	// behind, and a registered session is never parked waiting on a
	// slot it may hold forever.
	if err := s.limiter.AcquireTimeout(r.Context(), s.opts.AdmitWait); err != nil {
		if errors.Is(err, parallel.ErrAcquireTimeout) {
			s.m.ingestRejected["overload"].Inc()
			w.Header().Set("Retry-After", retryAfterOverload)
			httpError(w, http.StatusTooManyRequests,
				fmt.Sprintf("ingest capacity saturated (%d streams); retry after backoff", s.limiter.Cap()))
			return
		}
		httpError(w, http.StatusServiceUnavailable, "ingest capacity saturated and client gave up")
		return
	}
	defer s.limiter.Release()

	sess, id, resumed, status := s.registerOrResume(r.URL.Query().Get("session"), resumable, seq)
	switch status {
	case http.StatusOK:
	case ingestStatusReplay:
		// Idempotent retry of a session that already completed: the
		// client lost the final response, not the session. Serve the
		// report again instead of failing the retry.
		writeJSON(w, http.StatusOK, s.reportPayload(sess))
		return
	case http.StatusConflict:
		httpError(w, http.StatusConflict, fmt.Sprintf("session %q already exists", id))
		return
	case http.StatusServiceUnavailable:
		s.m.ingestRejected["busy"].Inc()
		w.Header().Set("Retry-After", retryAfterOverload)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("session %q is still owned by an interrupted upload; retry after backoff", id))
		return
	case http.StatusPreconditionFailed:
		s.m.ingestRejected["seq_gap"].Inc()
		httpError(w, http.StatusPreconditionFailed,
			fmt.Sprintf("sequence gap: body starts at record %d but session %q has accepted fewer; probe the watermark", seq, id))
		return
	}
	defer sess.ingesting.Store(false)
	skip := 0
	sess.mu.Lock()
	skip = sess.accepted - seq
	sess.mu.Unlock()
	if resumed {
		s.m.ingestResumed.Inc()
	}

	// Body caps and slow-client deadlines: MaxBytesReader enforces
	// -max-body (the tracker tells an over-limit abort apart from any
	// other read error, however the decoder wrapped it), and every
	// chunk read below carries a -stream-idle deadline so a stalled
	// client is disconnected instead of squatting on its admission
	// slot.
	var bodySrc io.Reader = r.Body
	if s.opts.MaxBody > 0 {
		bodySrc = http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	}
	lt := &limitTracker{r: bodySrc}
	rc := http.NewResponseController(w)

	// Build the negotiated decoder; with no (or a generic) Content-Type
	// the first body bytes decide, so -stdin replays and bare curl
	// octet-stream uploads still hit the right path.
	// Binary readers recycle their block storage at depth 1: with the
	// depth-one pipeline below, a batch is fully pushed (and its values
	// copied into the analyzer's index) before the generation it lives
	// in is decoded into again, so steady-state binary ingest allocates
	// no per-record garbage.
	var rr trace.RecordReader
	switch format {
	case formatBinary:
		br := trace.NewBinaryStreamReader(lt)
		br.Recycle(1)
		rr = br
	case formatJSONL:
		rr = trace.NewStreamReader(lt)
	default:
		rr = trace.NewAutoStreamReader(lt)
		if br, isBin := rr.(*trace.BinaryStreamReader); isBin {
			br.Recycle(1)
			format = formatBinary
		} else {
			format = formatJSONL
		}
	}
	s.log.Debug("ingest started", "session", id, "format", format, "seq", seq, "eos", eos, "resumed", resumed)

	// Records decode into a chunk and push in batches — one
	// session-lock acquisition (and one pass of window evaluations) per
	// chunk instead of per record, while /report snapshots interleave
	// between chunks. The two phases pipeline at depth one on the
	// work-stealing pool: the analyzer step for chunk N runs on a pool
	// worker while this goroutine decodes chunk N+1 from the wire. Two
	// buffers alternate so the chunk being decoded never aliases the
	// chunk being pushed; each phase is timed into its latency
	// histogram (decode covers the wire read, step the analyzer pushes,
	// window evaluations included).
	decodeSeconds := s.m.decodeSeconds[format]
	ingestRecords := s.m.ingestRecords[format]
	var bufs [2]*[]trace.Record
	for i := range bufs {
		bufs[i] = s.recPool.Get().(*[]trace.Record)
		defer func(b *[]trace.Record) {
			*b = (*b)[:0]
			s.recPool.Put(b)
		}(bufs[i])
	}
	var pending chan error
	waitPending := func() error {
		if pending == nil {
			return nil
		}
		err := <-pending
		pending = nil
		return err
	}
	cur := 0
	var readErr error
	for readErr == nil {
		if s.opts.StreamIdle > 0 {
			_ = rc.SetReadDeadline(time.Now().Add(s.opts.StreamIdle))
		}
		decodeStart := time.Now()
		var batch []trace.Record
		batch, readErr = rr.ReadBatch((*bufs[cur])[:0])
		decodeSeconds.Observe(time.Since(decodeStart).Seconds())
		if skip > 0 && len(batch) > 0 {
			// A resuming client replayed records the session already
			// analyzed: dedup the prefix instead of double-counting.
			n := skip
			if n > len(batch) {
				n = len(batch)
			}
			batch = batch[n:]
			skip -= n
			s.m.ingestDeduped.Add(int64(n))
		}
		if len(batch) == 0 {
			continue
		}
		if err := waitPending(); err != nil {
			s.fail(sess, err.Error())
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ch := make(chan error, 1)
		pending = ch
		s.exec.Submit(func(any) { ch <- s.pushChunk(sess, batch, ingestRecords) })
		cur ^= 1
	}
	// Clear the read deadline before responding: the connection may be
	// kept alive, and a stale deadline would poison its next request.
	if s.opts.StreamIdle > 0 {
		_ = rc.SetReadDeadline(time.Time{})
	}
	if err := waitPending(); err != nil {
		s.fail(sess, err.Error())
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if readErr != io.EOF {
		s.abortIngest(w, sess, resumable, lt.hit, readErr)
		return
	}
	if !eos {
		// Clean chunk boundary on a resumable session: acknowledge the
		// watermark and keep the session live for the next chunk.
		sess.mu.Lock()
		acc := sess.accepted
		sess.mu.Unlock()
		writeJSON(w, http.StatusAccepted, ingest.Watermark{Session: id, Accepted: acc, State: "active"})
		return
	}

	sess.mu.Lock()
	stats := sess.sa.Stats()
	rep, err := sess.sa.Close()
	if err != nil {
		s.detachLocked(sess, "failed", err.Error())
		sess.mu.Unlock()
		s.m.sessionsFailed.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess.final = rep
	s.detachLocked(sess, "done", "")
	sess.mu.Unlock()
	s.m.sessionsDone.Inc()
	s.m.lateDropped.Add(int64(stats.LateDropped))
	// Persist the completed diagnosis into the fleet store, stamped so
	// the session ends now and started a report-duration ago.
	end := s.now()
	insertStart := time.Now()
	storeRec := rcastore.FromReport(id, end-rep.Duration, rep)
	s.store.Insert(storeRec)
	s.m.insertSeconds.Observe(time.Since(insertStart).Seconds())
	if s.journal != nil {
		// Write-ahead-journal the completed diagnosis: when this node
		// dies before its next checkpoint, recovery replays the report
		// instead of losing it. An append error is logged and counted
		// but does not fail the session — the analysis succeeded and
		// the in-memory store has it.
		if err := s.journal.Append(storeRec); err != nil {
			s.m.journalErrors.Inc()
			s.log.Error("journal append failed", "session", id, "err", err)
		} else {
			s.maybeCheckpoint()
		}
	}
	if sess.rec != nil {
		sess.rec.Record(obs.Event{
			Kind: obs.EvReportStored,
			Wall: time.Now().UnixNano(),
			Sim:  int64(rep.Duration),
			N:    int64(rep.TotalChainEvents()),
		})
	}
	s.log.Debug("session done",
		"session", id, "cell", rep.CellName, "scenario", rep.Scenario,
		"records", stats.Records, "windows", stats.Windows,
		"late_dropped", stats.LateDropped, "chain_events", rep.TotalChainEvents())
	writeJSON(w, http.StatusOK, s.reportPayload(sess))
}

// pushChunk pushes one decoded chunk through the session's analyzer
// under the session lock. It is the pipelined "step" phase of ingest,
// submitted to the work-stealing pool so it overlaps with the
// handler's decode of the next chunk; depth-one pipelining (the
// handler waits for chunk N before submitting chunk N+1) keeps at most
// one step per session in flight, so session locks never queue and
// chunk order is preserved. records is the per-format accepted-records
// counter for the session's negotiated wire format.
func (s *server) pushChunk(sess *session, recs []trace.Record, records *obs.Counter) error {
	timed := 0
	stepStart := time.Now()
	sess.mu.Lock()
	var pushErr error
	pushed := 0
	for _, rec := range recs {
		if pushErr = sess.sa.Push(rec); pushErr != nil {
			break
		}
		pushed++
		if _, hasTime := rec.Time(); hasTime {
			timed++
		}
	}
	// Advance the resume watermark by decoded records actually pushed:
	// a retrying client replays from here and the handler dedups the
	// prefix, so the analyzer sees every record exactly once.
	sess.accepted += pushed
	if sess.rec != nil {
		sess.rec.Record(obs.Event{
			Kind: obs.EvIngestChunk,
			Wall: time.Now().UnixNano(),
			Sim:  int64(sess.sa.Watermark()),
			N:    int64(len(recs)),
		})
	}
	sess.mu.Unlock()
	s.m.stepSeconds.Observe(time.Since(stepStart).Seconds())
	s.m.recordsTotal.Add(int64(timed))
	records.Add(int64(timed))
	return pushErr
}

// abortIngest disposes of a mid-stream read failure. An over-limit
// body is a permanent 413 (retrying the same payload cannot succeed);
// any other read error on a resumable session suspends it — the
// session stays active with its watermark intact so the client can
// resume — while the legacy one-shot contract fails the session.
func (s *server) abortIngest(w http.ResponseWriter, sess *session, resumable, overLimit bool, readErr error) {
	switch {
	case overLimit:
		s.m.ingestRejected["body_too_large"].Inc()
		s.fail(sess, fmt.Sprintf("request body exceeds the %d-byte ingest cap", s.opts.MaxBody))
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte ingest cap (-max-body)", s.opts.MaxBody))
	case resumable:
		sess.mu.Lock()
		acc := sess.accepted
		sess.mu.Unlock()
		s.m.ingestInterrupted.Inc()
		s.log.Warn("ingest interrupted, session suspended",
			"session", sess.id, "accepted", acc, "err", readErr)
		w.Header().Set("Retry-After", retryAfterOverload)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("stream interrupted after %d records (%v); resume from the watermark", acc, readErr))
	default:
		s.fail(sess, readErr.Error())
		httpError(w, http.StatusBadRequest, readErr.Error())
	}
}

// maybeCheckpoint triggers an async store checkpoint every
// CheckpointEvery journal appends. Checkpoints single-flight: if one
// is still running, the trigger is dropped — the journal keeps
// growing and the next multiple tries again.
func (s *server) maybeCheckpoint() {
	every := s.opts.CheckpointEvery
	if every <= 0 {
		return
	}
	if n := s.journaled.Add(1); n%int64(every) != 0 {
		return
	}
	go func() {
		if !s.ckptMu.TryLock() {
			return
		}
		defer s.ckptMu.Unlock()
		if err := s.journal.Checkpoint(s.store, s.opts.CheckpointPath); err != nil {
			s.m.journalErrors.Inc()
			s.log.Error("checkpoint failed", "path", s.opts.CheckpointPath, "err", err)
			return
		}
		s.log.Debug("store checkpointed", "path", s.opts.CheckpointPath, "rows", s.store.Len())
	}()
}

// limitTracker marks when the wrapped body hit http.MaxBytesReader's
// cap. Decoders wrap read errors in format-specific context, so the
// handler cannot reliably errors.As the decode error itself; watching
// the raw reader is exact.
type limitTracker struct {
	r   io.Reader
	hit bool
}

func (lt *limitTracker) Read(p []byte) (int, error) {
	n, err := lt.r.Read(p)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			lt.hit = true
		}
	}
	return n, err
}

// handleWatermark serves a session's resume point: how many records
// (header included) the server has accepted. A retrying client probes
// this and replays its stream from that index.
func (s *server) handleWatermark(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.mu.Lock()
	acc, state := sess.accepted, sess.state
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, ingest.Watermark{Session: sess.id, Accepted: acc, State: state})
}

// detachLocked finalizes a session's state, captures the summary and
// report the read endpoints keep serving, and recycles the analyzer
// into the pool. A failed session keeps the partial analysis computed
// up to the failure point. sess.mu must be held.
func (s *server) detachLocked(sess *session, state, errMsg string) {
	sess.state = state
	sess.err = errMsg
	sess.finished.Store(true)
	if sa := sess.sa; sa != nil {
		sess.stats = sa.Stats()
		if hdr, ok := sa.Header(); ok {
			sess.hdr, sess.hasHdr = hdr, true
		}
		if sess.final == nil {
			sess.final = sa.Snapshot()
		}
		sess.sa = nil
		sa.Reset()
		s.saPool.Put(sa)
	}
}

func (s *server) fail(sess *session, msg string) {
	sess.mu.Lock()
	if sess.state == "active" {
		s.detachLocked(sess, "failed", msg)
		s.m.sessionsFailed.Inc()
	}
	sess.mu.Unlock()
	s.log.Warn("session failed", "session", sess.id, "err", msg)
}

// sessionInfo is the summary view served by /sessions and embedded in
// every report payload.
type sessionInfo struct {
	Session           string  `json:"session"`
	Cell              string  `json:"cell"`
	Scenario          string  `json:"scenario,omitempty"`
	State             string  `json:"state"`
	Error             string  `json:"error,omitempty"`
	Records           int     `json:"records"`
	Windows           int     `json:"windows"`
	LateDropped       int     `json:"late_dropped,omitempty"`
	WatermarkUs       int64   `json:"watermark_us"`
	DurationUs        int64   `json:"duration_us"`
	ChainEvents       int     `json:"chain_events"`
	DegradationPerMin float64 `json:"degradation_events_per_min"`
}

type nodeStat struct {
	Events    int     `json:"events"`
	PerMinute float64 `json:"per_min"`
}

type chainStat struct {
	Chain  string `json:"chain"`
	Events int    `json:"events"`
}

// reportPayload is the full per-session report served by /report/{id}.
type reportPayload struct {
	sessionInfo
	Causes       map[string]nodeStat `json:"causes"`
	Consequences map[string]nodeStat `json:"consequences"`
	TopChains    []chainStat         `json:"top_chains"`
}

// snapshot returns the session's current report (final when done, live
// snapshot while active) plus its summary info. Callers hold no locks.
func (s *server) snapshot(sess *session) (*core.Report, sessionInfo) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	stats := sess.stats
	hdr, hasHdr := sess.hdr, sess.hasHdr
	if sess.sa != nil {
		stats = sess.sa.Stats()
		hdr, hasHdr = sess.sa.Header()
	}
	info := sessionInfo{
		Session:     sess.id,
		State:       sess.state,
		Error:       sess.err,
		Records:     stats.Records,
		Windows:     stats.Windows,
		LateDropped: stats.LateDropped,
		WatermarkUs: int64(stats.Watermark),
	}
	if hasHdr {
		info.Cell = hdr.CellName
		info.Scenario = hdr.Scenario
		info.DurationUs = int64(hdr.Duration)
	}
	rep := sess.final
	if rep == nil && sess.sa != nil {
		rep = sess.sa.Snapshot()
	}
	if rep != nil {
		info.ChainEvents = rep.TotalChainEvents()
		info.DegradationPerMin = rep.DegradationEventsPerMinute(domino.ConsequenceClasses())
	}
	return rep, info
}

func (s *server) reportPayload(sess *session) reportPayload {
	rep, info := s.snapshot(sess)
	p := reportPayload{
		sessionInfo:  info,
		Causes:       map[string]nodeStat{},
		Consequences: map[string]nodeStat{},
	}
	if rep == nil {
		return p
	}
	for _, c := range domino.CauseClasses() {
		p.Causes[c] = nodeStat{Events: rep.EventCount(c), PerMinute: rep.EventsPerMinute(c)}
	}
	for _, c := range domino.ConsequenceClasses() {
		p.Consequences[c] = nodeStat{Events: rep.EventCount(c), PerMinute: rep.EventsPerMinute(c)}
	}
	for _, cc := range rep.TopChains(10) {
		p.TopChains = append(p.TopChains, chainStat{Chain: cc.Chain.String(), Events: cc.Events})
	}
	return p
}

func (s *server) handleSessions(w http.ResponseWriter, r *http.Request) {
	var all []*session
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			all = append(all, sess)
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	infos := make([]sessionInfo, 0, len(all))
	for _, sess := range all {
		_, info := s.snapshot(sess)
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, s.reportPayload(sess))
}

// parseQuery maps /query and /incidents/similar URL parameters onto a
// store query. from/to are absolute microsecond timestamps; last is a
// duration back from the fleet clock.
func (s *server) parseQuery(r *http.Request) (rcastore.Query, error) {
	q := rcastore.Query{
		Cell:     r.URL.Query().Get("cell"),
		Scenario: r.URL.Query().Get("scenario"),
		Session:  r.URL.Query().Get("session"),
		Cause:    r.URL.Query().Get("cause"),
	}
	if v := r.URL.Query().Get("fired"); v != "" {
		q.FiredAll = strings.Split(v, ",")
	}
	for name, dst := range map[string]*sim.Time{"from": &q.From, "to": &q.To} {
		if v := r.URL.Query().Get(name); v != "" {
			us, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return q, fmt.Errorf("bad %s %q: want microseconds since epoch", name, v)
			}
			*dst = sim.Time(us)
		}
	}
	if v := r.URL.Query().Get("last"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return q, fmt.Errorf("bad last %q: want a positive duration like 1h", v)
		}
		q.From = s.now() - sim.Time(d/time.Microsecond)
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q", v)
		}
		q.Limit = n
	}
	return q, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// handleQuery serves longitudinal reads over the fleet RCA store:
// matching records by default, or an aggregation when agg=top_chains
// (ranked by total chain runs, top k) or agg=cause_rates (per-cell
// cause-class rates over bucket-sized time buckets).
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := s.parseQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	switch agg := r.URL.Query().Get("agg"); agg {
	case "":
		writeJSON(w, http.StatusOK, map[string]any{"records": s.store.Query(q)})
	case "top_chains":
		k, err := intParam(r, "k", 10)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"top_chains": s.store.TopChains(q, k)})
	case "cause_rates":
		bucket := 10 * time.Minute
		if v := r.URL.Query().Get("bucket"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad bucket %q: want a positive duration like 10m", v))
				return
			}
			bucket = d
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"cause_rates": s.store.CauseRates(q, sim.Time(bucket/time.Microsecond)),
		})
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown agg %q (want top_chains or cause_rates)", agg))
	}
}

// handleSimilar serves nearest-prior-incident lookups: the probe
// signature comes from an already-stored session (session=) or an
// explicit fired= node list, and candidates rank by fired-node Hamming
// distance, ties to the most recent.
func (s *server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	k, err := intParam(r, "k", 5)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var fired []string
	probeSession := r.URL.Query().Get("session")
	switch {
	case probeSession != "":
		rec, ok := s.store.Fired(probeSession)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("session %q has no stored report", probeSession))
			return
		}
		fired = rec.Fired
	case r.URL.Query().Get("fired") != "":
		fired = strings.Split(r.URL.Query().Get("fired"), ",")
	default:
		httpError(w, http.StatusBadRequest, "want session=ID or fired=node,node,...")
		return
	}
	q := rcastore.Query{Cell: r.URL.Query().Get("cell"), Scenario: r.URL.Query().Get("scenario")}
	matches := s.store.Similar(fired, q, k+1)
	// The probe session is trivially its own nearest incident; drop it.
	out := matches[:0]
	for _, m := range matches {
		if probeSession != "" && m.Session == probeSession {
			continue
		}
		out = append(out, m)
	}
	if len(out) > k {
		out = out[:k]
	}
	writeJSON(w, http.StatusOK, map[string]any{"fired": fired, "matches": out})
}

// runStdin analyzes a single session from standard input through the
// streaming path and prints the final report.
func (s *server) runStdin(in io.Reader, stdout, stderr io.Writer) int {
	sa := s.newStream()
	rep, err := domino.StreamRecords(in, sa)
	if err != nil {
		fmt.Fprintln(stderr, "dominod:", err)
		return 1
	}
	stats := sa.Stats()

	fmt.Fprintf(stdout, "session: %s (%v, %d records, %d windows, peak buffer %d samples)\n\n",
		rep.CellName, rep.Duration, stats.Records, stats.Windows, stats.MaxBuffered)
	fmt.Fprintln(stdout, "5G causes (events/min):")
	for _, c := range domino.CauseClasses() {
		fmt.Fprintf(stdout, "  %-18s %6.2f\n", c, rep.EventsPerMinute(c))
	}
	fmt.Fprintln(stdout, "\nWebRTC consequences (events/min):")
	for _, c := range domino.ConsequenceClasses() {
		fmt.Fprintf(stdout, "  %-22s %6.2f\n", c, rep.EventsPerMinute(c))
	}
	fmt.Fprintf(stdout, "\ndegradation events/min: %.2f\n",
		rep.DegradationEventsPerMinute(domino.ConsequenceClasses()))
	fmt.Fprintln(stdout, "\ntop matched chains:")
	for _, cc := range rep.TopChains(10) {
		fmt.Fprintf(stdout, "  %4d×  %s\n", cc.Events, cc.Chain.String())
	}
	return 0
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
