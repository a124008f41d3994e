package balancer

import (
	"bytes"
	"context"
	"net/http"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
)

// metrics is the balancer's own instrument set. Per-backend health
// gauges are Func-backed so the scrape always reflects the live state
// machine; everything else is plain counters on the data path.
type metrics struct {
	reg           *obs.Registry
	failovers     *obs.Counter
	proxyErrors   *obs.Counter
	notModified   *obs.Counter
	healthProbes  *obs.Counter
	probeFailures *obs.Counter
	scrapeErrors  map[string]*obs.Counter   // by backend URL
	fanoutSeconds map[string]*obs.Histogram // by kind of merged read
}

func newMetrics(b *Balancer) *metrics {
	reg := obs.NewRegistry()
	reg.CounterFunc("dominolb_sessions_total", "Sessions admitted at the balancer.",
		func() float64 { return float64(b.sessions.Stats().Admitted) })
	m := &metrics{
		reg: reg,
		failovers: reg.Counter("dominolb_failovers_total",
			"Sessions re-pinned to a surviving backend after their node left the fleet."),
		proxyErrors: reg.Counter("dominolb_proxy_errors_total",
			"Requests to a backend (fan-out reads, watermarks among them, and scrapes) that failed at the transport layer while their own request was live; each counts toward the backend's failure threshold."),
		notModified: reg.Counter("dominolb_fanout_not_modified_total",
			"Fan-out parts a backend answered 304 Not Modified to, reused as kept and not read or scanned again."),
		healthProbes: reg.Counter("dominolb_health_probes_total",
			"Active health probes issued."),
		probeFailures: reg.Counter("dominolb_health_probe_failures_total",
			"Active health probes that failed."),
		scrapeErrors:  map[string]*obs.Counter{},
		fanoutSeconds: map[string]*obs.Histogram{},
	}
	for _, kind := range []string{"records", "top_chains", "cause_rates", "similar"} {
		m.fanoutSeconds[kind] = reg.Histogram("dominolb_fanout_seconds",
			"Wall time of one merged fleet read, from fanning it out to the slowest backend's answer merged, by kind of read.",
			nil, obs.L("kind", kind))
	}
	reg.CounterFunc("dominolb_backend_dials_total", "Connections the balancer opened to its backends; an answered request's connection is kept, up to a bound per backend, and reused before another is dialed.",
		func() float64 { return float64(b.dials.Load()) })
	reg.GaugeFunc("dominolb_backends", "Backends configured.",
		func() float64 { return float64(len(b.backends)) })
	reg.GaugeFunc("dominolb_sessions_active", "Sessions the balancer is routing whose ending request it has not steered yet.",
		func() float64 { live, _ := b.sessions.Len(); return float64(live) })
	for _, be := range b.backends {
		be := be
		reg.GaugeFunc("dominolb_backend_up", "1 while the backend is healthy and routable.",
			func() float64 {
				if be.State() == stateUp {
					return 1
				}
				return 0
			}, obs.L("backend", be.url))
		reg.GaugeFunc("dominolb_backend_draining", "1 while the backend drains for shutdown.",
			func() float64 {
				if be.State() == stateDraining {
					return 1
				}
				return 0
			}, obs.L("backend", be.url))
		m.scrapeErrors[be.url] = reg.Counter("dominolb_backend_scrape_errors_total",
			"Failed /metrics scrapes during federation.", obs.L("backend", be.url))
	}
	return m
}

// handleMetrics serves the fleet exposition: the balancer's own
// snapshot merged, in backend order, with every reachable backend's
// scraped-and-reparsed snapshot, rendered as one lint-clean Prometheus
// text document. The backends are scraped at once, under one
// ScrapeTimeout, so a hung node costs the scrape that timeout once.
// Backends that fail to scrape — unreachable, timed out, or serving text
// ParseText rejects, which is whatever Lint would — are skipped and
// counted: a degraded fleet still exposes itself, and one bad backend
// cannot make the fleet's document invalid.
func (b *Balancer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), b.opts.ScrapeTimeout)
	defer cancel()
	ask := b.reachable()
	answers, _ := b.fan(ctx, ask, "/metrics", "")
	snaps := make([]obs.Snapshot, 1, 1+len(answers)) // [0] is the balancer's
	scraped := make(map[*backend]bool, len(answers))
	for _, p := range answers {
		snap, err := obs.ParseText(bytes.NewReader(p.body))
		if err != nil {
			b.log.Warn("backend scrape does not parse", "backend", p.be.url, "err", err)
			continue
		}
		snaps = append(snaps, snap)
		scraped[p.be] = true
	}
	for _, be := range ask {
		if !scraped[be] {
			b.m.scrapeErrors[be.url].Inc()
			b.log.Warn("backend scrape failed", "backend", be.url)
		}
	}
	snaps[0] = b.m.reg.Snapshot() // last, so the scrape shows the errors it counted
	merged, err := obs.Merge(snaps...)
	if err != nil {
		ingest.WriteError(w, http.StatusInternalServerError, "merging fleet snapshots: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = merged.WriteText(w)
}
