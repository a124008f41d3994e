package node

import (
	"net/http"
	"slices"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/jsonenc"
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

// classes are the cause and consequence nodes of the graph the node
// runs: the keys of a report's causes and consequences maps, and the
// consequences its degradation rate counts.
type classes struct{ causes, consequences []string }

func graphClasses(g *core.Graph) *classes {
	return &classes{causes: g.Causes(), consequences: g.Consequences()}
}

// answer appends the session's /report answer, or its /sessions row
// when row is set: the bytes rendered when it finished, or, while it is
// live, bytes rendered now from a snapshot of its analyzer. Callers hold
// no locks.
func (sess *session) answer(dst []byte, row bool) []byte {
	sess.mu.Lock()
	if sess.sa == nil {
		done := sess.report
		if row {
			done = sess.row
		}
		sess.mu.Unlock()
		return append(dst, done...)
	}
	p := sess.payloadLocked(sess.sa.Snapshot())
	sess.mu.Unlock()
	if row {
		return appendRow(dst, &p.SessionInfo)
	}
	return appendReport(dst, &p)
}

// payloadLocked is the session's report as its analyzer gives it now,
// with rep its final report or a live snapshot (nil before the stream's
// header). sess.mu is held and sess.sa set.
func (sess *session) payloadLocked(rep *core.Report) ReportPayload {
	stats := sess.sa.Stats()
	p := ReportPayload{
		SessionInfo: SessionInfo{
			Session:     sess.id,
			State:       sess.proto.State,
			Records:     stats.Records,
			Windows:     stats.Windows,
			LateDropped: stats.LateDropped,
			WatermarkUs: int64(stats.Watermark),
		},
		Causes:       map[string]NodeStat{},
		Consequences: map[string]NodeStat{},
	}
	if hdr, ok := sess.sa.Header(); ok {
		p.Cell = hdr.CellName
		p.Scenario = hdr.Scenario
		p.DurationUs = int64(hdr.Duration)
	}
	if rep == nil {
		return p
	}
	p.ChainEvents = rep.TotalChainEvents()
	p.DegradationPerMin = rep.DegradationEventsPerMinute(sess.classes.consequences)
	for _, c := range sess.classes.causes {
		p.Causes[c] = NodeStat{Events: rep.EventCount(c), PerMinute: rep.EventsPerMinute(c)}
	}
	for _, c := range sess.classes.consequences {
		p.Consequences[c] = NodeStat{Events: rep.EventCount(c), PerMinute: rep.EventsPerMinute(c)}
	}
	for _, cc := range rep.TopChains(10) {
		p.TopChains = append(p.TopChains, ChainStat{Chain: cc.Chain.String(), Events: cc.Events})
	}
	return p
}

// appendReport appends p as ingest.WriteJSON writes it, trailing
// newline included; TestReportEncoderMatchesEncodingJSON and
// FuzzReportEncoder hold the two equal.
func appendReport(dst []byte, p *ReportPayload) []byte {
	e := jsonenc.Encoder{B: append(dst, '{')}
	appendInfo(&e, &p.SessionInfo, 1)
	e.Key(1, `"causes": `)
	appendStats(&e, p.Causes)
	e.Key(1, `"consequences": `)
	appendStats(&e, p.Consequences)
	if e.Array(`"top_chains": `, len(p.TopChains), p.TopChains == nil) {
		for i, c := range p.TopChains {
			e.Elem(i, 2)
			e.Raw("{")
			e.StrMember(3, `"chain": `, c.Chain)
			e.IntMember(3, `"events": `, int64(c.Events))
			e.EndObject(3)
		}
		e.EndArray(2)
	}
	return e.Close()
}

// appendRow appends info as an element of the /sessions array.
func appendRow(dst []byte, info *SessionInfo) []byte {
	e := jsonenc.Encoder{B: append(dst, '{')}
	appendInfo(&e, info, 2)
	e.EndObject(2)
	return e.B
}

// appendInfo appends info's members to an open object whose members
// sit at depth.
func appendInfo(e *jsonenc.Encoder, info *SessionInfo, depth int) {
	e.StrMember(depth, `"session": `, info.Session)
	e.StrMember(depth, `"cell": `, info.Cell)
	if info.Scenario != "" {
		e.StrMember(depth, `"scenario": `, info.Scenario)
	}
	e.StrMember(depth, `"state": `, string(info.State))
	if info.Error != "" {
		e.StrMember(depth, `"error": `, info.Error)
	}
	e.IntMember(depth, `"records": `, int64(info.Records))
	e.IntMember(depth, `"windows": `, int64(info.Windows))
	if info.LateDropped != 0 {
		e.IntMember(depth, `"late_dropped": `, int64(info.LateDropped))
	}
	e.IntMember(depth, `"watermark_us": `, info.WatermarkUs)
	e.IntMember(depth, `"duration_us": `, info.DurationUs)
	e.IntMember(depth, `"chain_events": `, int64(info.ChainEvents))
	e.FloatMember(depth, `"degradation_events_per_min": `, info.DegradationPerMin)
}

// appendStats appends a cause or consequence map at depth 1, its
// classes in key order as encoding/json orders a map's.
func appendStats(e *jsonenc.Encoder, m map[string]NodeStat) {
	if m == nil {
		e.Raw("null")
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Raw("{")
	for _, k := range keys {
		e.Key(2, "")
		e.Str(k) // a map key, escaped as encoding/json escapes one
		e.Raw(": {")
		e.IntMember(3, `"events": `, int64(m[k].Events))
		e.FloatMember(3, `"per_min": `, m[k].PerMinute)
		e.EndObject(3)
	}
	e.EndObject(2)
}

func (n *Node) handleSessions(w http.ResponseWriter, r *http.Request) {
	all := n.sessions.List()
	ingest.WriteAppended(w, r, func(dst []byte) []byte {
		if len(all) == 0 {
			return append(dst, "[]\n"...)
		}
		e := jsonenc.Encoder{B: dst}
		for i, sess := range all {
			e.Elem(i, 1)
			e.B = sess.answer(e.B, true)
		}
		e.EndArray(1)
		e.Raw("\n")
		return e.B
	})
}

func (n *Node) handleReport(w http.ResponseWriter, r *http.Request) {
	sess := n.lookup(r.PathValue("id"))
	if sess == nil {
		ingest.WriteError(w, http.StatusNotFound, "no such session")
		return
	}
	writeReport(w, r, sess)
}

// writeReport answers with the session's report, a 304 to a request
// that already holds it.
func writeReport(w http.ResponseWriter, r *http.Request, sess *session) {
	ingest.WriteAppended(w, r, func(dst []byte) []byte { return sess.answer(dst, false) })
}

// handleRead serves the read surface over the fleet RCA store: GET
// /query and /incidents/similar, whose parameters rcastore.ParseRead
// defines for this node, the balancer and cmd/rcaquery alike. A
// session= probe's signature is the session's latest stored row
// (Store.Resolve), and a session the store does not hold is a 404.
func (n *Node) handleRead(w http.ResponseWriter, r *http.Request) {
	rd, err := rcastore.ParseRead(r.URL.Path, r.URL.RawQuery, n.opts.Now())
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := n.store.Resolve(&rd); err != nil {
		ingest.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	ingest.WriteAppended(w, r, func(dst []byte) []byte { return n.store.Answer(dst, rd) })
}
