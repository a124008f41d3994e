package node

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// SessionInfo is the summary view served by /sessions and embedded in
// every report payload.
type SessionInfo struct {
	Session           string       `json:"session"`
	Cell              string       `json:"cell"`
	Scenario          string       `json:"scenario,omitempty"`
	State             ingest.State `json:"state"`
	Error             string       `json:"error,omitempty"`
	Records           int          `json:"records"`
	Windows           int          `json:"windows"`
	LateDropped       int          `json:"late_dropped,omitempty"`
	WatermarkUs       int64        `json:"watermark_us"`
	DurationUs        int64        `json:"duration_us"`
	ChainEvents       int          `json:"chain_events"`
	DegradationPerMin float64      `json:"degradation_events_per_min"`
}

// NodeStat is one cause or consequence class's event-run count and rate.
type NodeStat struct {
	Events    int     `json:"events"`
	PerMinute float64 `json:"per_min"`
}

// ChainStat is one matched causal chain and its event-run count.
type ChainStat struct {
	Chain  string `json:"chain"`
	Events int    `json:"events"`
}

// ReportPayload is the full per-session report served by /report/{id}.
type ReportPayload struct {
	SessionInfo
	Causes       map[string]NodeStat `json:"causes"`
	Consequences map[string]NodeStat `json:"consequences"`
	TopChains    []ChainStat         `json:"top_chains"`
}

// snapshot returns the session's current report (final when done, live
// snapshot while active) plus its summary info. Callers hold no locks.
func (n *Node) snapshot(sess *session) (*core.Report, SessionInfo) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	stats := sess.stats
	hdr, hasHdr := sess.hdr, sess.hasHdr
	if sess.sa != nil {
		stats = sess.sa.Stats()
		hdr, hasHdr = sess.sa.Header()
	}
	info := SessionInfo{
		Session:     sess.id,
		State:       sess.proto.State,
		Error:       sess.err,
		Records:     stats.Records,
		Windows:     stats.Windows,
		LateDropped: stats.LateDropped,
		WatermarkUs: int64(stats.Watermark),
	}
	if hasHdr {
		info.Cell = hdr.CellName
		info.Scenario = hdr.Scenario
		info.DurationUs = int64(hdr.Duration)
	}
	rep := sess.final
	if rep == nil && sess.sa != nil {
		rep = sess.sa.Snapshot()
	}
	if rep != nil {
		info.ChainEvents = rep.TotalChainEvents()
		info.DegradationPerMin = rep.DegradationEventsPerMinute(core.ConsequenceClasses())
	}
	return rep, info
}

func (n *Node) reportPayload(sess *session) ReportPayload {
	rep, info := n.snapshot(sess)
	p := ReportPayload{
		SessionInfo:  info,
		Causes:       map[string]NodeStat{},
		Consequences: map[string]NodeStat{},
	}
	if rep == nil {
		return p
	}
	for _, c := range core.CauseClasses() {
		p.Causes[c] = NodeStat{Events: rep.EventCount(c), PerMinute: rep.EventsPerMinute(c)}
	}
	for _, c := range core.ConsequenceClasses() {
		p.Consequences[c] = NodeStat{Events: rep.EventCount(c), PerMinute: rep.EventsPerMinute(c)}
	}
	for _, cc := range rep.TopChains(10) {
		p.TopChains = append(p.TopChains, ChainStat{Chain: cc.Chain.String(), Events: cc.Events})
	}
	return p
}

func (n *Node) handleSessions(w http.ResponseWriter, r *http.Request) {
	all := n.sessions.List()
	infos := make([]SessionInfo, 0, len(all))
	for _, sess := range all {
		_, info := n.snapshot(sess)
		infos = append(infos, info)
	}
	ingest.WriteJSON(w, http.StatusOK, infos)
}

func (n *Node) handleReport(w http.ResponseWriter, r *http.Request) {
	sess := n.lookup(r.PathValue("id"))
	if sess == nil {
		ingest.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	ingest.WriteJSON(w, http.StatusOK, n.reportPayload(sess))
}

// parseQuery maps /query and /incidents/similar URL parameters (parsed
// once by the handler) onto a store query. from/to are absolute
// microsecond timestamps; last is a duration back from the fleet clock.
func (n *Node) parseQuery(p url.Values) (rcastore.Query, error) {
	q := rcastore.Query{
		Cell:     p.Get("cell"),
		Scenario: p.Get("scenario"),
		Session:  p.Get("session"),
		Cause:    p.Get("cause"),
	}
	if v := p.Get("fired"); v != "" {
		q.FiredAll = strings.Split(v, ",")
	}
	// from before to: with both bad, the 400 always names from.
	for _, bound := range []struct {
		name string
		dst  *sim.Time
	}{{"from", &q.From}, {"to", &q.To}} {
		if v := p.Get(bound.name); v != "" {
			us, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return q, fmt.Errorf("bad %s %q: want microseconds since epoch", bound.name, v)
			}
			*bound.dst = sim.Time(us)
		}
	}
	if v := p.Get("last"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return q, fmt.Errorf("bad last %q: want a positive duration like 1h", v)
		}
		q.From = n.now() - sim.Time(d/time.Microsecond)
	}
	if v := p.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q", v)
		}
		q.Limit = n
	}
	return q, nil
}

func intParam(p url.Values, name string, def int) (int, error) {
	v := p.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// handleQuery serves longitudinal reads over the fleet RCA store:
// matching records by default, or an aggregation when agg=top_chains
// (ranked by total chain runs, top k) or agg=cause_rates (per-cell
// cause-class rates over bucket-sized time buckets).
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	q, err := n.parseQuery(p)
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	switch agg := p.Get("agg"); agg {
	case "":
		records := n.store.Query(q)
		ingest.WriteAppended(w, func(dst []byte) []byte { return rcastore.AppendRecordsAnswer(dst, records) })
	case "top_chains":
		k, err := intParam(p, "k", 10)
		if err != nil {
			ingest.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		chains := n.store.TopChains(q, k)
		ingest.WriteAppended(w, func(dst []byte) []byte { return rcastore.AppendTopChainsAnswer(dst, chains) })
	case "cause_rates":
		bucket := 10 * time.Minute
		if v := p.Get("bucket"); v != "" {
			d, err := time.ParseDuration(v)
			// The store keeps time in microseconds: a shorter bucket would be 0,
			// which CauseRates reads as "one bucket".
			if err != nil || d < time.Microsecond {
				ingest.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad bucket %q: want a duration like 10m, at least the store's 1µs resolution", v))
				return
			}
			bucket = d
		}
		rates := n.store.CauseRates(q, sim.Time(bucket/time.Microsecond))
		ingest.WriteAppended(w, func(dst []byte) []byte { return rcastore.AppendCauseRatesAnswer(dst, rates) })
	default:
		ingest.WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown agg %q (want top_chains or cause_rates)", agg))
	}
}

// handleSimilar serves nearest-prior-incident lookups: the probe
// signature comes from an already-stored session (session=) or an
// explicit fired= node list, and candidates rank by fired-node Hamming
// distance, ties to the most recent. A stored probe is trivially its own
// nearest incident, so the store leaves that session's rows out.
func (n *Node) handleSimilar(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	k, err := intParam(p, "k", 5)
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	var fired []string
	probeSession := p.Get("session")
	switch {
	case probeSession != "":
		rec, ok := n.store.Fired(probeSession)
		if !ok {
			ingest.WriteError(w, http.StatusNotFound, fmt.Sprintf("session %q has no stored report", probeSession))
			return
		}
		fired = rec.Fired
	case p.Get("fired") != "":
		fired = strings.Split(p.Get("fired"), ",")
	default:
		ingest.WriteError(w, http.StatusBadRequest, "want session=ID or fired=node,node,...")
		return
	}
	q := rcastore.Query{Cell: p.Get("cell"), Scenario: p.Get("scenario"), NotSession: probeSession}
	matches := n.store.Similar(fired, q, k)
	ingest.WriteAppended(w, func(dst []byte) []byte { return rcastore.AppendSimilarAnswer(dst, fired, matches) })
}
