// Package balancer is the dominolb fleet tier: a failure-aware
// routing layer in front of N dominod backends.
//
// Sessions are admitted here and pinned to a backend by rendezvous
// (HRW) hashing over the currently-healthy node set — the streaming
// analyzer is stateful, so every chunk of a session must land on the
// same node. An active health checker probes each backend's /healthz,
// distinguishing down (stop routing, fail sessions over) from
// draining (no new sessions, in-flight ones finish). The balancer
// steers each chunk and each report read to the session's owner with a
// 307 and carries none of it, so clients must be able to reach the
// backend URLs. When a pinned backend dies or drains mid-session, the
// session is re-pinned by HRW over the surviving nodes, and the
// client's own resumable-ingest path recovers it — a failed upload to
// the dead node, a watermark probe through the balancer that the new
// pin answers with 0, and a resend from there. A mid-upload kill -9 of
// a backend still yields a final report byte-identical to clean
// single-node analysis.
//
// The balancer also serves the fleet read surface, and reads a node one
// way, the health probe aside: a fan-out that writes every asked node's
// GET first, then reads the answers in backend order and keeps the 200s,
// each under one bound; a timeout cuts only the read in progress. A GET
// is conditional on the node's last tagged answer, which it keeps
// scanned, so a repeated read crosses the wire as a 304. Every request
// to a node goes over a connection the balancer keeps itself (conn.go).
// GET /metrics fans out under one ScrapeTimeout, then obs.ParseText-parses
// and obs.Merges the snapshots into one lint-clean exposition (a scrape
// that breaks a rule obs.Lint holds is a failed scrape, not merged);
// /sessions, /query and /incidents/similar fan out and merge; a routed
// session's watermark is asked of its pin, and a report or watermark the
// balancer cannot steer or ask of a pin is the fleet's first 200. A
// transport error counts against a node's health only while its request
// is live: a client that hung up, or a scrape past its timeout, does not.
package balancer

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/domino5g/domino/internal/ingest"
)

// Options configures a Balancer. Its four probe and scrape settings are
// always on: one left at zero or below runs at its DefaultOptions value,
// as cmd/dominolb's flags do.
type Options struct {
	// Backends are the dominod base URLs fronted by this balancer,
	// e.g. "http://127.0.0.1:9101". At least one is required.
	Backends []string
	// Client is ignored. The balancer sends its probes, scrapes and
	// fan-out reads (watermarks among them) itself, as plain HTTP/1.1 over
	// connections it keeps (conn.go), so https and HTTP_PROXY are not
	// honoured for backends.
	Client *http.Client
	// HealthInterval is the active probe period.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe, whatever the interval.
	HealthTimeout time.Duration
	// FailThreshold is the consecutive probe failures that mark a
	// backend down. Transport errors of the balancer's other requests to
	// it count toward it too while their request is live — a client's
	// watermark probe after a failed upload among them — so data-path
	// failures shorten detection.
	FailThreshold int
	// ScrapeTimeout bounds the whole federated /metrics scrape, which
	// asks every backend at once.
	ScrapeTimeout time.Duration
	Log           *slog.Logger
}

// DefaultOptions declares the balancer's probe and scrape settings: New's
// and cmd/dominolb's defaults.
func DefaultOptions() Options {
	return Options{
		HealthInterval: time.Second,
		HealthTimeout:  500 * time.Millisecond,
		FailThreshold:  3,
		ScrapeTimeout:  5 * time.Second,
	}
}

// orDefault puts def in place of a setting that is not positive.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Balancer routes sessions across a dominod fleet. Create with New,
// serve Routes, stop with Close.
type Balancer struct {
	opts     Options
	backends []*backend
	dials    atomic.Int64 // connections opened to backends
	log      *slog.Logger
	m        *metrics

	// sessions is the routing table, bounded by tableBound. Lock order
	// is lbSession.mu → the table's lock, never the reverse.
	sessions *ingest.Table[*lbSession]
	// kept is what fan-out reads keep of the nodes' tagged answers.
	kept kept

	stop chan struct{}
	done sync.WaitGroup
}

// idleConnsPerBackend is how many idle connections the balancer keeps to
// one backend: a node's default -max-streams, as many concurrent reads as
// a busy fleet relays to one node. Keeping two, as net/http's default
// transport does, dialed a connection for every concurrent read past the
// second and closed it after one request.
const idleConnsPerBackend = 64

// tableBound is how many entries the routing table keeps past an
// admission, or only live ones: finished sessions stay for late retries
// and /lb/sessions until newer ones push them out. An evicted one is
// unknown to the balancer again, and a request for it asks the fleet or
// re-pins by HRW. mintFormat names anonymous uploads.
const (
	tableBound = 4096
	mintFormat = "lb-%d"
)

// lbSession is the balancer's routing state for one session: its pin,
// whether the balancer steered the request that ends it, and how often
// it moved. It holds none of the session's bytes; how far ingest got,
// and whether it succeeded, is the owning node's to say.
type lbSession struct {
	mu        sync.Mutex
	id        string
	backend   *backend
	done      bool
	failovers int
}

// New builds a Balancer, runs one synchronous health round so routing
// starts with a populated fleet view, and starts the background
// prober.
func New(opts Options) (*Balancer, error) {
	def := DefaultOptions()
	orDefault(&opts.HealthInterval, def.HealthInterval)
	orDefault(&opts.HealthTimeout, def.HealthTimeout)
	orDefault(&opts.FailThreshold, def.FailThreshold)
	orDefault(&opts.ScrapeTimeout, def.ScrapeTimeout)
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	b := &Balancer{
		opts:     opts,
		log:      opts.Log,
		sessions: ingest.NewTable[*lbSession](mintFormat, tableBound),
		stop:     make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, u := range opts.Backends {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		be, err := newBackend(u)
		if err != nil {
			return nil, err
		}
		b.backends = append(b.backends, be)
	}
	if len(b.backends) == 0 {
		return nil, fmt.Errorf("balancer: no backends configured")
	}
	b.m = newMetrics(b)
	b.probeAll() // synchronous first round: know the fleet before serving
	b.done.Add(1)
	go b.probeLoop()
	return b, nil
}

// Close stops the health prober and closes the balancer's idle
// connections. In-flight relayed reads finish on their own.
func (b *Balancer) Close() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	b.done.Wait()
	for _, be := range b.backends {
		for c := be.takeIdle(); c != nil; c = be.takeIdle() {
			c.Close()
		}
	}
}

// Routes returns the balancer's HTTP surface.
func (b *Balancer) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", b.handleIngest)
	mux.HandleFunc("GET /sessions", b.handleSessions)
	mux.HandleFunc("GET /sessions/{id}/watermark", b.handleWatermark)
	mux.HandleFunc("GET /report/{id}", b.handleReport)
	mux.HandleFunc("GET /query", b.handleRead)
	mux.HandleFunc("GET /incidents/similar", b.handleRead)
	mux.HandleFunc("GET /metrics", b.handleMetrics)
	mux.HandleFunc("GET /healthz", b.handleHealthz)
	mux.HandleFunc("GET /lb/sessions", b.handleLBSessions)
	return mux
}

// lookup returns the routing entry for id, or nil.
func (b *Balancer) lookup(id string) *lbSession { return b.sessions.Get(id) }

// pick rendezvous-hashes a session onto the healthy backend set: each
// (backend, session) pair scores fnv64a(backend + NUL + session) and
// the highest score wins. Stable while the healthy set is stable, and
// only sessions pinned to a lost node move when it shrinks.
func (b *Balancer) pick(id string) *backend {
	var best *backend
	var bestScore uint64
	for _, be := range b.backends {
		if be.State() != stateUp {
			continue
		}
		score := hrwScore(be.url, id)
		if best == nil || score > bestScore || (score == bestScore && be.url < best.url) {
			best, bestScore = be, score
		}
	}
	return best
}

// hrwScore is the rendezvous hash: FNV-1a over backend identity, a
// separator, and the session id, finished with a splitmix64 mix —
// raw FNV's high bits avalanche too weakly for max-score comparisons
// when keys share long prefixes (URLs differing only in port,
// sessions differing only in a trailing index).
func hrwScore(backend, session string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(backend); i++ {
		h ^= uint64(backend[i])
		h *= prime64
	}
	h *= prime64 // NUL separator
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// handleHealthz reports the balancer's own readiness: ok while at
// least one backend is up, else 503.
func (b *Balancer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type nodeView struct {
		URL   string `json:"url"`
		Node  string `json:"node,omitempty"`
		State string `json:"state"`
	}
	up := 0
	nodes := make([]nodeView, 0, len(b.backends))
	for _, be := range b.backends {
		st := be.State()
		if st == stateUp {
			up++
		}
		nodes = append(nodes, nodeView{URL: be.url, Node: be.NodeID(), State: st.String()})
	}
	status, code := "ok", http.StatusOK
	switch {
	case up == 0:
		status, code = "down", http.StatusServiceUnavailable
	case up < len(b.backends):
		status = "degraded"
	}
	ingest.WriteJSON(w, code, map[string]any{
		"status":   status,
		"up":       up,
		"backends": nodes,
	})
}

// handleLBSessions exposes the routing table — which backend owns
// each session, whether its ending request was steered, and how often
// it failed over. Debug surface for tests and runbooks, not part of the
// dominod API.
func (b *Balancer) handleLBSessions(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Session   string `json:"session"`
		Backend   string `json:"backend"`
		Done      bool   `json:"done"`
		Failovers int    `json:"failovers"`
	}
	table := b.sessions.List()
	out := make([]entry, 0, len(table))
	for _, s := range table {
		s.mu.Lock()
		e := entry{Session: s.id, Done: s.done, Failovers: s.failovers}
		if s.backend != nil {
			e.Backend = s.backend.url
		}
		s.mu.Unlock()
		out = append(out, e)
	}
	ingest.WriteJSON(w, http.StatusOK, out)
}
