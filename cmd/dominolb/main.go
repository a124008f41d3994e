// Command dominolb fronts a fleet of dominod backends with a
// failure-aware routing tier: sessions are pinned to healthy nodes by
// rendezvous hashing, and each chunk (POST /ingest) and report read
// (GET /report/{id}) is steered to its session's node with a 307, so
// clients must be able to reach the -backend URLs. An active health
// checker distinguishes dead nodes from draining ones, a session on a
// lost node is re-pinned and resent by its client through the
// resumable-ingest contract (the balancer carries no body), and
// GET /metrics serves the whole fleet's merged Prometheus exposition.
//
// Usage:
//
//	dominolb -addr :8078 \
//	  -backend http://127.0.0.1:9101 \
//	  -backend http://127.0.0.1:9102,http://127.0.0.1:9103
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/domino5g/domino/internal/balancer"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// backendList collects repeatable, comma-splittable -backend flags.
type backendList []string

func (b *backendList) String() string { return strings.Join(*b, ",") }

func (b *backendList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			*b = append(*b, u)
		}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dominolb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8078", "listen address")
	var backends backendList
	fs.Var(&backends, "backend", "dominod base URL; repeatable, and each occurrence may hold a comma-separated list")
	healthInterval := fs.Duration("health-interval", time.Second, "active /healthz probe period")
	healthTimeout := fs.Duration("health-timeout", 500*time.Millisecond, "per-probe timeout")
	failThreshold := fs.Int("health-fails", 3, "consecutive probe failures that mark a backend down")
	scrapeTimeout := fs.Duration("scrape-timeout", 5*time.Second, "per-backend /metrics scrape timeout during federation")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	verbose := fs.Bool("v", false, "log per-session routing events (debug level)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(backends) == 0 {
		fmt.Fprintln(stderr, "dominolb: at least one -backend is required")
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
		fmt.Fprintf(stderr, "dominolb: bad -log-format %q (want text or json)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	lb, err := balancer.New(balancer.Options{
		Backends:       backends,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		FailThreshold:  *failThreshold,
		ScrapeTimeout:  *scrapeTimeout,
		Log:            logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, "dominolb:", err)
		return 1
	}
	defer lb.Close()

	// Like dominod, ReadTimeout stays 0: net/http drains an ingest body
	// the steer left unread, and a client may send it slowly.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           lb.Routes(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "backends", len(backends))
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "dominolb:", err)
		return 1
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Warn("shutdown deadline exceeded", "err", err)
		}
		logger.Info("shut down")
		return 0
	}
}
