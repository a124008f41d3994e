package balancer

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// state is a backend's health as the balancer sees it.
type state int

const (
	// stateDown: unreachable or failing; excluded from routing and
	// sessions pinned here fail over.
	stateDown state = iota
	// stateUp: probing healthy; eligible for new sessions.
	stateUp
	// stateDraining: alive but shutting down — it answers reads and
	// finishes what it holds, but rejects new ingest, so the balancer
	// stops pinning sessions to it and fails pinned streams over on
	// their next chunk.
	stateDraining
)

func (s state) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// backend is one dominod node, its probe bookkeeping and the
// connections the balancer keeps to it.
type backend struct {
	url              string
	addr, host, path string // to dial, the Host header, the base path

	mu     sync.Mutex
	st     state
	fails  int        // consecutive failures (probe or data path)
	nodeID string     // from /healthz, for attribution
	idle   chan *conn // up to idleConnsPerBackend, kept for the next request
}

// newBackend parses a backend's base URL once. The balancer speaks plain
// HTTP/1.1 to its nodes itself, so any scheme but http is refused.
func newBackend(raw string) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("balancer: backend %q is not an http:// URL (https and proxies are not supported)", raw)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &backend{url: raw, addr: addr, host: u.Host, path: u.EscapedPath(), st: stateDown,
		idle: make(chan *conn, idleConnsPerBackend)}, nil
}

// State reads the backend's current health.
func (be *backend) State() state {
	be.mu.Lock()
	defer be.mu.Unlock()
	return be.st
}

// NodeID is the node identity the backend last reported on /healthz.
func (be *backend) NodeID() string {
	be.mu.Lock()
	defer be.mu.Unlock()
	return be.nodeID
}

// noteFailure records one failed interaction (probe or proxied
// request). threshold consecutive failures mark the backend down.
// Returns true when this call transitioned it.
func (be *backend) noteFailure(threshold int) bool {
	be.mu.Lock()
	defer be.mu.Unlock()
	be.fails++
	if be.fails >= threshold && be.st != stateDown {
		be.st = stateDown
		return true
	}
	return false
}

// noteState records a successful probe verdict and resets the failure
// streak. Returns true when the state changed.
func (be *backend) noteState(st state, nodeID string) bool {
	be.mu.Lock()
	defer be.mu.Unlock()
	be.fails = 0
	if nodeID != "" {
		be.nodeID = nodeID
	}
	if be.st != st {
		be.st = st
		return true
	}
	return false
}

// probeLoop runs the active health checker until Close.
func (b *Balancer) probeLoop() {
	defer b.done.Done()
	t := time.NewTicker(b.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.probeAll()
		}
	}
}

// probeAll probes every backend once, in parallel. Unlike a fan-out, it
// keeps one goroutine per node: send dials inside its caller's loop, so a
// node whose dial hangs would hold back every probe listed after it, and
// the probes are what find such a node down.
func (b *Balancer) probeAll() {
	var wg sync.WaitGroup
	for _, be := range b.backends {
		wg.Add(1)
		go func(be *backend) {
			defer wg.Done()
			b.probe(be)
		}(be)
	}
	wg.Wait()
}

// probe hits one backend's /healthz and folds the verdict into its
// state machine: 200 → up, a 503 that self-reports "draining" →
// draining (the node is alive, just leaving), anything else —
// transport error, timeout, other status — counts toward the
// consecutive-failure threshold.
func (b *Balancer) probe(be *backend) {
	b.m.healthProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), b.opts.HealthTimeout)
	defer cancel()
	x := b.send(ctx, be, "/healthz", "")
	defer x.done()
	resp, err := x.response()
	if err != nil {
		b.probeFailed(be, err.Error())
		return
	}
	var body struct {
		Status string `json:"status"`
		Node   string `json:"node"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = json.Unmarshal(raw, &body)
	switch {
	case resp.StatusCode == http.StatusOK:
		if be.noteState(stateUp, body.Node) {
			b.log.Info("backend up", "backend", be.url, "node", body.Node)
		}
	case resp.StatusCode == http.StatusServiceUnavailable && body.Status == "draining":
		if be.noteState(stateDraining, body.Node) {
			b.log.Info("backend draining", "backend", be.url, "node", body.Node)
		}
	default:
		b.probeFailed(be, resp.Status)
	}
}

func (b *Balancer) probeFailed(be *backend, why string) {
	b.m.probeFailures.Inc()
	if be.noteFailure(b.opts.FailThreshold) {
		b.log.Warn("backend down", "backend", be.url, "err", why)
	}
}
