// Package debugsrv serves net/http/pprof on a listener of its own, the
// -debug-addr of dominod and dominolb. The listener routes only its own
// mux and no public mux routes the profiling handlers, so exposing them
// is an explicit deployment choice.
package debugsrv

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
)

// mux routes the net/http/pprof handlers under /debug/pprof/.
func mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// Serve serves the pprof handlers on addr until the returned server is
// closed. A listener that fails is logged, not fatal: the process it
// profiles serves on.
func Serve(addr string, log *slog.Logger) *http.Server {
	srv := &http.Server{Addr: addr, Handler: mux()}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Error("debug listener failed", "addr", addr, "err", err)
		}
	}()
	log.Info("pprof enabled", "addr", addr)
	return srv
}
