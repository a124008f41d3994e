package node

import (
	"fmt"
	"net/http"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/rcastore"
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

// handleRead serves the read surface over the fleet RCA store: GET
// /query and /incidents/similar, whose parameters rcastore.ParseRead
// defines for this node and the balancer alike. A session= probe's
// signature is the session's latest stored row, and a session the store
// does not hold is a 404.
func (n *Node) handleRead(w http.ResponseWriter, r *http.Request) {
	rd, err := rcastore.ParseRead(r.URL.Path, r.URL.Query(), n.now())
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if rd.Probe != "" {
		rec, ok := n.store.Fired(rd.Probe)
		if !ok {
			ingest.WriteError(w, http.StatusNotFound, fmt.Sprintf("session %q has no stored report", rd.Probe))
			return
		}
		rd.Fired = rec.Fired
	}
	ingest.WriteAppended(w, func(dst []byte) []byte { return n.store.Answer(dst, rd) })
}
