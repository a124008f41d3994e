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
//	  -backend http://127.0.0.1:9102,http://127.0.0.1:9103 \
//	  [-health-interval 1s] [-health-timeout 500ms] [-health-fails 3]
//	  [-scrape-timeout 5s] [-debug-addr :6061] [-log-format text|json] [-v]
//
// The four probe and scrape settings default to balancer.DefaultOptions
// and are always on: a value ≤ 0 exits 2 before any backend is probed, as
// does a -backend that is not an http:// URL (the balancer speaks plain
// HTTP/1.1 to its nodes, so https and HTTP_PROXY are not honoured).
// -debug-addr serves net/http/pprof on a separate listener, as dominod's
// does.
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
	"strings"
	"syscall"
	"time"

	"github.com/domino5g/domino/internal/balancer"
	"github.com/domino5g/domino/internal/debugsrv"
	"github.com/domino5g/domino/internal/obs"
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
	opts := balancer.DefaultOptions()
	fs.Var((*backendList)(&opts.Backends), "backend", "dominod base URL, http:// only (https and HTTP_PROXY are not honoured); repeatable, and each occurrence may hold a comma-separated list")
	fs.DurationVar(&opts.HealthInterval, "health-interval", opts.HealthInterval, "active /healthz probe period")
	fs.DurationVar(&opts.HealthTimeout, "health-timeout", opts.HealthTimeout, "per-probe timeout")
	fs.IntVar(&opts.FailThreshold, "health-fails", opts.FailThreshold, "consecutive probe failures that mark a backend down")
	fs.DurationVar(&opts.ScrapeTimeout, "scrape-timeout", opts.ScrapeTimeout, "timeout of the whole federated /metrics scrape, which asks every backend at once")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (disabled when empty)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	verbose := fs.Bool("v", false, "log per-session routing events (debug level)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(opts.Backends) == 0 {
		fmt.Fprintln(stderr, "dominolb: at least one -backend is required")
		return 2
	}
	// The four settings are always on; reflect reads each (int or Duration) as an Int.
	for _, name := range []string{"health-interval", "health-timeout", "health-fails", "scrape-timeout"} {
		if v := fs.Lookup(name).Value; reflect.ValueOf(v.(flag.Getter).Get()).Int() <= 0 {
			fmt.Fprintf(stderr, "dominolb: -%s must be positive, got %s\n", name, v)
			return 2
		}
	}

	logger, err := obs.NewLogger(stderr, *logFormat, *verbose)
	if err != nil {
		fmt.Fprintln(stderr, "dominolb:", err)
		return 2
	}

	opts.Log = logger
	lb, err := balancer.New(opts) // refuses only a bad -backend, before any is probed
	if err != nil {
		fmt.Fprintln(stderr, "dominolb:", err)
		return 2
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
	if *debugAddr != "" {
		defer debugsrv.Serve(*debugAddr, logger).Close()
	}
	logger.Info("listening", "addr", *addr, "backends", len(opts.Backends))
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
