// Package balancer is the dominolb fleet tier: a failure-aware
// routing layer in front of N dominod backends.
//
// Sessions are admitted here and pinned to a backend by rendezvous
// (HRW) hashing over the currently-healthy node set — the streaming
// analyzer is stateful, so every chunk of a session must land on the
// same node. An active health checker probes each backend's /healthz,
// distinguishing down (stop routing, fail sessions over) from
// draining (no new sessions, in-flight ones finish). The balancer
// streams each chunk through and keeps none of it: when a pinned
// backend dies or drains mid-session, the session is re-pinned by HRW
// over the surviving nodes, and the client's own resumable-ingest path
// recovers it — a retryable 503, a watermark probe that the new pin
// answers with 0, and a resend from there. A mid-upload kill -9 of a
// backend still yields a final report byte-identical to clean
// single-node analysis.
//
// The balancer also serves the fleet read surface: GET /metrics
// scrapes every backend, obs.ParseText-parses and obs.Merges the
// snapshots into one lint-clean exposition (a scrape that breaks a rule
// obs.Lint holds is a failed scrape, not merged); /sessions, /query and
// /incidents/similar fan out and merge; /report/{id} routes to the
// owning node.
package balancer

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/domino5g/domino/internal/ingest"
)

// Options configures a Balancer.
type Options struct {
	// Backends are the dominod base URLs fronted by this balancer,
	// e.g. "http://127.0.0.1:9101". At least one is required.
	Backends []string
	// Client issues proxied and health requests; default is a client
	// on the balancer's own transport, which keeps idleConnsPerBackend
	// connections to each backend, with no global timeout (ingest bodies
	// are long-lived streams; probes and scrapes get per-request context
	// deadlines).
	Client *http.Client
	// HealthInterval is the active probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default HealthInterval/2).
	HealthTimeout time.Duration
	// FailThreshold is the consecutive probe failures that mark a
	// backend down (default 3). Proxy-observed transport errors count
	// toward it too, so data-path failures shorten detection.
	FailThreshold int
	// ScrapeTimeout bounds one backend /metrics scrape during
	// federation (default 5s).
	ScrapeTimeout time.Duration
	Log           *slog.Logger
}

// Balancer routes sessions across a dominod fleet. Create with New,
// serve Routes, stop with Close.
type Balancer struct {
	opts     Options
	backends []*backend
	client   *http.Client
	log      *slog.Logger
	m        *metrics

	// sessions is the routing table, bounded by tableBound. Lock order
	// is lbSession.mu → the table's lock, never the reverse.
	sessions *ingest.Table[*lbSession]

	stop chan struct{}
	done sync.WaitGroup
}

// idleConnsPerBackend is how many idle connections the balancer's own
// transport keeps to one backend: a node's default -max-streams, the most
// forwards a backend runs at once. http.DefaultTransport keeps two, so
// every concurrent forward past the second dialed a connection and closed
// it after one request.
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

// lbSession is the balancer's routing state for one session: its pin
// and how often it moved. It holds none of the session's bytes; how
// far ingest got is the owning node's watermark.
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
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("balancer: no backends configured")
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = time.Second
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = opts.HealthInterval / 2
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.ScrapeTimeout <= 0 {
		opts.ScrapeTimeout = 5 * time.Second
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	client := opts.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 0, idleConnsPerBackend // bounded per backend, not in total
		client = &http.Client{Transport: tr}
	}
	b := &Balancer{
		opts:     opts,
		client:   client,
		log:      opts.Log,
		sessions: ingest.NewTable(mintFormat, tableBound, func(*lbSession) {}),
		stop:     make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, u := range opts.Backends {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		b.backends = append(b.backends, newBackend(u))
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

// Close stops the health prober and drops the balancer's own idle
// connections (a caller's Client is the caller's to close). In-flight
// proxied requests finish on their own.
func (b *Balancer) Close() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	b.done.Wait()
	if b.opts.Client == nil {
		b.client.CloseIdleConnections()
	}
}

// Routes returns the balancer's HTTP surface.
func (b *Balancer) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", b.handleIngest)
	mux.HandleFunc("GET /sessions", b.handleSessions)
	mux.HandleFunc("GET /sessions/{id}/watermark", b.handleWatermark)
	mux.HandleFunc("GET /report/{id}", b.handleReport)
	mux.HandleFunc("GET /query", b.handleQuery)
	mux.HandleFunc("GET /incidents/similar", b.handleSimilar)
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
// each session, whether it finished, and how often it failed over.
// Debug surface for tests and runbooks, not part of the dominod API.
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
