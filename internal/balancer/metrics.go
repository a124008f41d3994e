package balancer

import (
	"context"
	"io"
	"net/http"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
)

// metrics is the balancer's own instrument set. Per-backend health
// gauges are Func-backed so the scrape always reflects the live state
// machine; everything else is plain counters on the data path.
type metrics struct {
	reg           *obs.Registry
	sessionsTotal *obs.Counter
	failovers     *obs.Counter
	proxyErrors   *obs.Counter
	healthProbes  *obs.Counter
	probeFailures *obs.Counter
	scrapeErrors  map[string]*obs.Counter   // by backend URL
	fanoutSeconds map[string]*obs.Histogram // by kind of merged read
}

func newMetrics(b *Balancer) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		sessionsTotal: reg.Counter("dominolb_sessions_total",
			"Sessions admitted at the balancer."),
		failovers: reg.Counter("dominolb_failovers_total",
			"Sessions re-pinned to a surviving backend after their node left the fleet."),
		proxyErrors: reg.Counter("dominolb_proxy_errors_total",
			"Proxied requests that failed at the transport layer."),
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
	reg.GaugeFunc("dominolb_backends", "Backends configured.",
		func() float64 { return float64(len(b.backends)) })
	reg.GaugeFunc("dominolb_sessions_active", "Sessions the balancer is routing that have had no final answer (a report or a permanent failure).",
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
// snapshot merged with every reachable backend's scraped-and-reparsed
// snapshot, rendered as one lint-clean Prometheus text document.
// Backends that fail to scrape — unreachable, or serving text ParseText
// rejects, which is whatever Lint would — are skipped and counted: a
// degraded fleet still exposes itself, and one bad backend cannot make
// the fleet's document invalid.
func (b *Balancer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := []obs.Snapshot{b.m.reg.Snapshot()}
	for _, be := range b.reachable() {
		snap, err := b.scrape(r.Context(), be)
		if err != nil {
			b.m.scrapeErrors[be.url].Inc()
			b.log.Warn("backend scrape failed", "backend", be.url, "err", err)
			continue
		}
		snaps = append(snaps, snap)
	}
	merged, err := obs.Merge(snaps...)
	if err != nil {
		ingest.WriteError(w, http.StatusInternalServerError, "merging fleet snapshots: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = merged.WriteText(w)
}

// scrape pulls one backend's /metrics and parses it back into a
// snapshot — WriteText's inverse, the federation seam.
func (b *Balancer) scrape(ctx context.Context, be *backend) (obs.Snapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, b.opts.ScrapeTimeout)
	defer cancel()
	resp, err := b.get(ctx, be, "/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return obs.Snapshot{}, errStatus(resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

type errStatus int

func (e errStatus) Error() string { return http.StatusText(int(e)) }
