// Command dominod is the live, operator-side Domino analysis service:
// the always-on deployment mode the paper frames for its detector. It
// is internal/node behind flags: this command parses them, recovers or
// loads the RCA store, serves the node's routes, and turns SIGTERM into
// a drain and a final checkpoint. The endpoints, the ingest pipeline
// and the query surface are documented on package node.
//
// Usage:
//
//	dominod [-addr :8077] [-graph chains.txt] [-max-streams 64]
//	        [-lateness 0s] [-drop-late] [-flightrec 1024]
//	        [-max-sessions 1024] [-store-blocks 4096] [-max-body 268435456]
//	        [-admit-wait 2s] [-stream-idle 5m] [-drain 10s]
//	        [-store-spill FILE] [-store-journal FILE] [-store-sync 1]
//	        [-checkpoint-every 1024] [-fixed-clock 0]
//	        [-debug-addr :6060] [-log-format text|json] [-v]
//
// The seven bounds — -max-streams, -max-sessions, -store-blocks,
// -flightrec (events per session, rounded up to a power of two of at
// least 16), -max-body, -admit-wait and -stream-idle — default to
// node.DefaultOptions and are always on: a value ≤ 0 exits 2, as does
// -store-sync below 1. -lateness, -checkpoint-every and -drain take 0
// (no slack, checkpoint only at shutdown, no drain wait) and exit 2 on a
// negative value: a negative slack would evaluate a window before the
// watermark reached its end and fail in-order records as late.
// -debug-addr serves net/http/pprof on a separate listener. Logging
// goes through log/slog (-log-format json for structured output, -v
// for per-session debug events). To analyze one capture offline, pipe
// it to cmd/domino (-trace -), which runs the same streaming analyzer.
//
// Durability: persistence is on when a journal path resolves —
// -store-journal FILE, or -store-spill FILE (the journal is then
// FILE.wal) — and there is one path through it. Every completed report
// is appended to a crash-consistent write-ahead journal, fsync-batched
// per -store-sync and folded into an atomic-rename checkpoint
// (-store-spill FILE, default <journal>.ckpt) every -checkpoint-every
// reports and at shutdown. Both files are the CRC-framed segments of
// internal/rcastore; GET /query is the JSON view of what they hold.
// After a crash the store recovers byte-identical to a graceful
// shutdown: checkpoint load, journal replay (a torn final frame is
// discarded), session-level dedup across the checkpoint crash window.
// SIGTERM drains in-flight sessions up to -drain before the final
// checkpoint, with /healthz reporting "draining" so routers fail over
// first. Store retention is bounded by -store-blocks. -store-journal
// off alone means no persistence; with -store-spill it is a usage
// error, because a checkpoint is only ever written through the journal.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"syscall"
	"time"

	"github.com/domino5g/domino"
	"github.com/domino5g/domino/internal/debugsrv"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dominod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := node.DefaultOptions()
	addr := fs.String("addr", ":8077", "listen address")
	graphPath := fs.String("graph", "", "path to a causal-chain DSL file (default: built-in Fig. 9 graph)")
	fs.IntVar(&opts.MaxStreams, "max-streams", opts.MaxStreams, "maximum concurrently ingesting session streams")
	fs.IntVar(&opts.MaxSessions, "max-sessions", opts.MaxSessions, "retained sessions before the oldest finished ones are evicted")
	lateness := fs.Duration("lateness", 0, "accepted record out-of-orderness (e.g. 100ms)")
	fs.BoolVar(&opts.DropLate, "drop-late", false, "count and drop too-late records instead of failing the stream")
	fs.IntVar(&opts.StoreBlocks, "store-blocks", opts.StoreBlocks, "retained RCA-store blocks of 256 reports each")
	storeSpill := fs.String("store-spill", "", "RCA-store checkpoint file: recovered at startup with its journal, rewritten every -checkpoint-every reports and at shutdown")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (disabled when empty)")
	fs.IntVar(&opts.FlightRec, "flightrec", opts.FlightRec, "per-session flight-recorder capacity in events, rounded up to a power of two of at least 16")
	fs.Int64Var(&opts.MaxBody, "max-body", opts.MaxBody, "maximum /ingest request body bytes")
	fs.DurationVar(&opts.AdmitWait, "admit-wait", opts.AdmitWait, "bounded wait for an ingest slot before shedding with 429")
	fs.DurationVar(&opts.StreamIdle, "stream-idle", opts.StreamIdle, "per-chunk read deadline on ingest bodies; slow clients are cut, not held")
	drainWait := fs.Duration("drain", 10*time.Second, "SIGTERM drain deadline for in-flight sessions before the final checkpoint")
	storeJournal := fs.String("store-journal", "", "RCA-store write-ahead journal path (default <store-spill>.wal when -store-spill is set; \"off\" disables)")
	storeSync := fs.Int("store-sync", 1, "journal appends per fsync (group commit; 1 = every report durable on ack)")
	fs.IntVar(&opts.CheckpointEvery, "checkpoint-every", 1024, "journal appends between automatic checkpoints (0 = checkpoint only at shutdown)")
	fixedClock := fs.Int64("fixed-clock", 0, "fix the fleet clock to this microsecond timestamp for deterministic runs (0 = wall clock)")
	fs.StringVar(&opts.NodeID, "node-id", "", "node identity surfaced on /healthz and as dominod_node_info{node=...} so merged fleet expositions attribute samples (default: hostname)")
	verbose := fs.Bool("v", false, "log per-session lifecycle events (debug level)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The node's bounds are always on and a journal syncs at least every
	// append; a slack, a checkpoint cadence or a drain deadline may be 0,
	// never negative. reflect reads each (int, int64 or Duration) as an Int.
	below := func(least int64, rule string, names ...string) bool {
		for _, name := range names {
			if v := fs.Lookup(name).Value; reflect.ValueOf(v.(flag.Getter).Get()).Int() < least {
				fmt.Fprintf(stderr, "dominod: -%s must be %s, got %s\n", name, rule, v)
				return true
			}
		}
		return false
	}
	if below(1, "positive", "max-streams", "max-sessions", "store-blocks", "flightrec", "max-body", "admit-wait", "stream-idle", "store-sync") ||
		below(0, "zero or more", "lateness", "checkpoint-every", "drain") {
		return 2
	}

	logger, err := obs.NewLogger(stderr, *logFormat, *verbose)
	if err != nil {
		fmt.Fprintln(stderr, "dominod:", err)
		return 2
	}

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

	opts.Lateness = sim.Time(*lateness / time.Microsecond)
	opts.Log = logger
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
	if journalPath == "" && *storeSpill != "" {
		fmt.Fprintln(stderr, "dominod: -store-spill needs the journal: a checkpoint is written only through it (drop -store-journal off, or drop -store-spill for no persistence)")
		return 2
	}
	if journalPath != "" {
		// Crash-recover checkpoint + journal, then keep journaling;
		// Shutdown writes the final checkpoint.
		ckptPath := *storeSpill
		if ckptPath == "" {
			ckptPath = journalPath + ".ckpt"
		}
		st, j, rstats, err := rcastore.Recover(ckptPath, journalPath,
			rcastore.Options{MaxBlocks: opts.StoreBlocks},
			rcastore.JournalOptions{SyncEvery: *storeSync})
		if err != nil {
			fmt.Fprintln(stderr, "dominod: recovering RCA store:", err)
			return 1
		}
		opts.Store = st
		opts.Journal = j
		opts.CheckpointPath = ckptPath
		opts.Recovery = &rstats
		logger.Info("RCA store recovered",
			"checkpoint", ckptPath, "journal", journalPath,
			"checkpoint_rows", rstats.CheckpointRows, "replayed", rstats.Replayed,
			"deduped", rstats.Deduped, "torn_tail", rstats.TornTail)
	}

	n := node.New(analyzer, opts)

	// ReadTimeout deliberately stays 0: ingest bodies are long-lived
	// chunked streams that legitimately outlive any whole-request
	// budget. Slow clients are bounded per-chunk by -stream-idle read
	// deadlines instead; header parsing and idle keep-alives get hard
	// timeouts here.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           n.Routes(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *debugAddr != "" {
		defer debugsrv.Serve(*debugAddr, logger).Close()
	}
	logger.Info("listening", "addr", *addr, "node", opts.NodeID, "stream_slots", opts.MaxStreams, "chains", len(analyzer.Chains()))
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "dominod:", err)
		return 1
	case <-ctx.Done():
		// Drain: /healthz flips to "draining" and new sessions are
		// rejected while in-flight uploads run to the deadline; only
		// then is the final state checkpointed.
		logger.Info("draining", "deadline", *drainWait)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := n.Shutdown(shutCtx, httpSrv); err != nil {
			fmt.Fprintln(stderr, "dominod:", err)
			return 1
		}
		logger.Info("shut down")
		return 0
	}
}
