package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/balancer"
)

// The in-process balancer pass. dominolb cannot be edited from here, so
// its own share of a request is measured from outside: the same
// balancer.New(...).Routes() it serves is served in this process, in
// front of the real node processes, with a span around each handler
// call and — through balancer.Options.Client — a child span around each
// backend round trip. The handler's self time (its span minus the
// children) is what the balancer itself costs.

// handlerSpan rides the request context from the handler wrapper to the
// transport, so a backend round trip knows which handler caused it.
type handlerSpan struct {
	id   int64
	kind string
}

type handlerKey struct{}

// spanTransport records one span per backend round trip, from sending
// the request until the response body has been read.
type spanTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(handlerKey{}).(handlerSpan)
	if !ok {
		return t.base.RoundTrip(req) // a health probe: nobody's child
	}
	sp := t.rec.begin(parent.id, 0, parent.kind+".backend")
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(sp, 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	return resp, nil
}

// spanBody closes its span when the body is exhausted or closed,
// whichever comes first.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	sp   int64
	n    int64
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.rec.end(b.sp, b.n)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// handlerKind names the span of one balancer route.
func handlerKind(path string) string {
	switch {
	case path == "/ingest":
		return "balancer.ingest"
	case path == "/query" || path == "/incidents/similar":
		return "balancer.query"
	case path == "/metrics":
		return "balancer.scrape"
	case strings.HasPrefix(path, "/report/"):
		return "balancer.report"
	}
	return "balancer.other"
}

// lbPass serves the balancer in-process for budget and drives the
// workload's own requests through it on one sender. It returns the
// balancer-layer figures by metric name.
func lbPass(ctx context.Context, e *env, workload string, rec *recorder, budget time.Duration) (map[string]float64, error) {
	backends := make([]string, len(e.fleet.nodes))
	for i, n := range e.fleet.nodes {
		backends[i] = n.url
	}
	lb, err := balancer.New(balancer.Options{
		Backends: backends,
		Client:   &http.Client{Transport: &spanTransport{rec: rec, base: &http.Transport{MaxIdleConnsPerHost: 4}}},
		Log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, fmt.Errorf("in-process balancer: %w", err)
	}
	defer lb.Close()
	routes := lb.Routes()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := handlerKind(r.URL.Path)
		sp := rec.begin(0, 0, kind)
		routes.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), handlerKey{}, handlerSpan{sp, kind})))
		rec.end(sp, 1)
	}))
	defer srv.Close()

	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(budget)
	switch workload {
	case "fleet-live":
		// Whole sessions, chunk by chunk, back to back.
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			s := &liveSession{id: fmt.Sprintf("lbpass-%d-%d", e.corpus.Seed, n), it: e.corpus.pick(n)}
			for i := 0; i < chunksPerCall; i++ {
				status, body, err := postChunk(ctx, c, srv.URL, s, i, i == chunksPerCall-1)
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("status %d: %.200s", status, body)
				}
				if err == nil {
					_, err = get(ctx, c, srv.URL+"/report/"+url.PathEscape(s.id))
				}
				if err != nil {
					return nil, fmt.Errorf("in-process balancer pass, %s chunk %d: %w", s.id, i, err)
				}
			}
		}
	case "query-mix":
		deal := e.preload.dealer(rand.New(rand.NewSource(e.corpus.Seed)))
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			q := deal.deal()
			if n < 3 {
				q = e.preload.pool["scrape"][0] // a short pass may not reach the deck's one scrape
			}
			body, err := get(ctx, c, srv.URL+q.path)
			if err == nil {
				err = q.check(body)
			}
			if err != nil {
				return nil, fmt.Errorf("in-process balancer pass, %s: %w", q.path, err)
			}
		}
	}

	// A handler's self time is the balancer's own cost; its backend
	// children's busy time is what it waited for the nodes.
	by := totalsByName(rec.snapshot())
	perCall := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls) / 1e3
	}
	ingest, query, scrape := by["balancer.ingest"], by["balancer.query"], by["balancer.scrape"]
	return map[string]float64{
		"balancer.self_us_per_chunk":        perCall(ingest.SelfNs, ingest.Calls),
		"balancer.backend_us_per_chunk":     perCall(by["balancer.ingest.backend"].BusyNs, ingest.Calls),
		"balancer.fanout_self_us_per_query": perCall(query.SelfNs, query.Calls),
		"balancer.scrape_self_us":           perCall(scrape.SelfNs, scrape.Calls),
	}, nil
}
