package balancer

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
)

// Tests of the balancer's own client (conn.go): which connections it
// keeps, redials and closes, against nodes that answer in every way an
// HTTP/1.1 server may.

// idleConns is how many connections the balancer keeps to be.
func idleConns(be *backend) int { return len(be.idle) }

// TestConnsAreReused: the probe's connection to each node carries every
// read after it, so a round of reads, and a second one, dial nothing.
func TestConnsAreReused(t *testing.T) {
	f := newKeptFleet(t)
	if got := f.lb.dials.Load(); got != 2 {
		t.Fatalf("%d dials after the first probe round of 2 nodes, want 2", got)
	}
	f.round(t)
	f.round(t)
	if got := f.lb.dials.Load(); got != 2 {
		t.Errorf("%d dials after two rounds of sequential reads, want the probes' 2", got)
	}
	if text := readBody(t, mustGet(t, f.lbURL+"/metrics")); !strings.Contains(text, "dominolb_backend_dials_total 2\n") {
		t.Errorf("/metrics lacks dominolb_backend_dials_total 2:\n%s", text)
	}
}

// chunked serves h's answers without their Content-Length, so each body
// goes out in chunks.
func chunked(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&chunkedWriter{ResponseWriter: w}, r)
	})
}

type chunkedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *chunkedWriter) WriteHeader(code int) {
	w.wrote = true
	w.Header().Del("Content-Length")
	w.Header().Set("Transfer-Encoding", "chunked")
	w.ResponseWriter.WriteHeader(code)
}

func (w *chunkedWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// reshape puts h in front of s, on a mux as the node's routes are.
func reshape(s *storeServer, h http.Handler) {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	s.routes.Store(http.Handler(mux))
}

// TestConnsOtherAnswerShapes: one node closes its connection after every
// answer and the other sends chunked bodies. Merged, their answers are
// one store's, the closed connections are not kept (each read to the
// first node dials) and the chunked ones are.
func TestConnsOtherAnswerShapes(t *testing.T) {
	f := newKeptFleet(t)
	closing, chunking := f.nodes[0], f.nodes[1]
	h := closing.routes.Load().(http.Handler)
	reshape(closing, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		h.ServeHTTP(w, r)
	}))
	reshape(chunking, chunked(chunking.routes.Load().(http.Handler)))
	for _, n := range f.nodes {
		resp := mustGet(t, n.ts.URL+keptReads[0])
		drainClose(resp)
		if n == closing && !resp.Close || n == chunking && (resp.ContentLength != -1 || len(resp.TransferEncoding) != 1) {
			t.Fatalf("%s answered Close %v, Content-Length %d, Transfer-Encoding %v", n.ts.URL, resp.Close, resp.ContentLength, resp.TransferEncoding)
		}
	}
	for round := 0; round < 2; round++ {
		dials := f.lb.dials.Load()
		f.round(t) // each answer is the oracle's
		// keptReads holds one probe, which asks the closing node twice.
		want := int64(len(keptReads) + 1)
		if round == 0 {
			want-- // the first GET goes on the health probe's connection
		}
		if got := f.lb.dials.Load() - dials; got != want {
			t.Errorf("round %d dialed %d times, want one per new GET to the closing node, %d", round, got, want)
		}
	}
	if got := idleConns(backendOf(t, f.lb, &fleetNode{ts: chunking.ts})); got != 1 {
		t.Errorf("%d idle connections to the chunking node, want its one", got)
	}
}

// restartable serves h on one port, and is stopped and started again on
// the same one.
type restartable struct {
	h    http.Handler
	addr string
	srv  *http.Server
}

func (r *restartable) start(t *testing.T) {
	l, err := net.Listen("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	r.addr, r.srv = l.Addr().String(), &http.Server{Handler: r.h}
	go r.srv.Serve(l)
}

// TestConnsNodeRestart: a node restarted on its port between two rounds
// of reads has closed the connection the balancer kept to it. The next
// read to it redials once, and that is no failure: the node's streak
// stays 0 and dominolb_proxy_errors_total does not move.
func TestConnsNodeRestart(t *testing.T) {
	f := newKeptFleet(t)
	n := &restartable{h: f.nodes[0].ts.Config.Handler, addr: "127.0.0.1:0"}
	n.start(t)
	t.Cleanup(func() { n.srv.Close() })
	lb, err := New(Options{Backends: []string{"http://" + n.addr, f.nodes[1].ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	lbTS := httptest.NewServer(lb.Routes())
	t.Cleanup(lbTS.Close)
	f.lb, f.lbURL = lb, lbTS.URL

	f.round(t)
	n.srv.Close()
	n.start(t)
	dials := lb.dials.Load()
	f.round(t)
	be := lb.backends[0]
	be.mu.Lock()
	fails := be.fails
	be.mu.Unlock()
	if got := lb.dials.Load() - dials; got != 1 || fails != 0 || lb.m.proxyErrors.Value() != 0 || be.State() != stateUp {
		t.Errorf("after a restart: %d dials, failure streak %d, dominolb_proxy_errors_total %d, node %v; want 1, 0, 0, up",
			got, fails, lb.m.proxyErrors.Value(), be.State())
	}
}

// TestConnsIdleBound: more concurrent reads than idleConnsPerBackend each
// need a connection of their own, and once they are answered only
// idleConnsPerBackend of them are kept.
func TestConnsIdleBound(t *testing.T) {
	const reads = idleConnsPerBackend + 6
	var arrived atomic.Int32
	all := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "barrier"})
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == reads {
			close(all)
		}
		select { // every read is at the node before any is answered
		case <-all:
		case <-time.After(10 * time.Second):
		}
		ingest.WriteJSON(w, http.StatusOK, []int{})
	})
	n := httptest.NewServer(mux)
	t.Cleanup(n.Close)
	lb, ts := newTestBalancer(t, Options{}, &fleetNode{ts: n})

	var wg sync.WaitGroup
	for i := 0; i < reads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/sessions")
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || string(body) != "[]\n" {
				t.Errorf("GET /sessions: %d %q, %v", resp.StatusCode, body, err)
			}
		}()
	}
	wg.Wait()
	if arrived.Load() != reads {
		t.Fatalf("%d of %d reads reached the node", arrived.Load(), reads)
	}
	if got, dials := idleConns(lb.backends[0]), lb.dials.Load(); got != idleConnsPerBackend || dials != reads {
		t.Errorf("%d concurrent reads: %d dials, %d connections kept; want %d, %d", reads, dials, got, reads, idleConnsPerBackend)
	}
}

// TestConnsCancelMidBody: a read whose client hangs up while the node's
// answer is half sent closes its connection to the node, which is not
// kept, and counts against nothing.
func TestConnsCancelMidBody(t *testing.T) {
	arrived, closed := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "half"})
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		io.WriteString(w, "[\n  {")
		http.NewResponseController(w).Flush()
		close(arrived)
		<-r.Context().Done() // the balancer closed the connection
		close(closed)
	})
	n := httptest.NewServer(mux)
	t.Cleanup(n.Close)
	lb, ts := newTestBalancer(t, Options{}, &fleetNode{ts: n})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sessions", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			drainClose(resp)
		}
		done <- err
	}()
	<-arrived
	cancel()
	<-done
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the node's connection is still open 5 s after the read was cancelled")
	}
	be := lb.backends[0]
	if got := idleConns(be); got != 0 || lb.m.proxyErrors.Value() != 0 || be.State() != stateUp {
		t.Errorf("after a cancelled read: %d idle connections, dominolb_proxy_errors_total %d, node %v; want 0, 0, up",
			got, lb.m.proxyErrors.Value(), be.State())
	}
}

// TestConnsUnreadBodyIsNotKept: a fan-out reads no more of a non-200
// answer than 64 KiB, so a longer one is left unread, and its connection
// must not be kept: the next GET on it would read the rest as its answer.
// No read fails.
func TestConnsUnreadBodyIsNotKept(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "long"})
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteError(w, http.StatusNotFound, strings.Repeat("x", 100<<10))
	})
	n := httptest.NewServer(mux)
	t.Cleanup(n.Close)
	lb, ts := newTestBalancer(t, Options{}, &fleetNode{ts: n})

	const reads = 3
	for i := 0; i < reads; i++ {
		resp := mustGet(t, ts.URL+"/query?limit=5")
		drainClose(resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("read %d: %d, want 503 (the node has no 200)", i, resp.StatusCode)
		}
	}
	// The first read goes on the probe's connection, each later one on a
	// new one.
	if errs, dials := lb.m.proxyErrors.Value(), lb.dials.Load(); errs != 0 || dials != reads {
		t.Errorf("dominolb_proxy_errors_total %d, %d dials; want 0 and %d", errs, dials, reads)
	}
}

// TestNewParsesBackends: New parses each backend URL once and refuses,
// naming it, one it cannot speak plain HTTP to.
func TestNewParsesBackends(t *testing.T) {
	for _, bad := range []string{"https://127.0.0.1:9", "ftp://127.0.0.1:9", "127.0.0.1:9", "http:///x", "http://%zz"} {
		if _, err := New(Options{Backends: []string{bad}}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q is not an http:// URL", bad)) {
			t.Errorf("New with backend %q: error %v", bad, err)
		}
	}
	for raw, want := range map[string]struct{ addr, host, path string }{
		"http://127.0.0.1:9":     {addr: "127.0.0.1:9", host: "127.0.0.1:9"},
		"http://localhost":       {addr: "localhost:80", host: "localhost"},
		"http://[::1]:9/a%2Fb/c": {addr: "[::1]:9", host: "[::1]:9", path: "/a%2Fb/c"},
	} {
		be, err := newBackend(raw)
		if err != nil || be.url != raw || be.addr != want.addr || be.host != want.host || be.path != want.path {
			t.Errorf("newBackend(%q) = %+v, %v; want addr %q, host %q, path %q", raw, be, err, want.addr, want.host, want.path)
		}
	}
}
