package balancer

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/jsonenc"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// errNoBackends is returned when the healthy set is empty.
var errNoBackends = fmt.Errorf("no healthy backends")

// handleIngest admits a session (or the next chunk of one), pins it to
// a backend, and steers the request there: a 307 to the owner's
// /ingest, which a net/http client or curl -L follows with the body and
// the protocol headers. The balancer reads none of the body (net/http
// drains what a client already sent, up to its own bound) and so never
// sees the node's answer. Failure handling is the client's
// resumable-ingest path, with the balancer only re-pinning:
//
//   - if the pinned backend is down or draining when the chunk
//     arrives, the session is re-pinned by HRW over the surviving
//     nodes first; the fresh node has never seen it, so a chunk past
//     record 0 is its 412 seq gap, and the client probes the watermark
//     (0 there) and resends from the start;
//   - if the backend dies under the client's upload, the client's
//     transport fails, and its watermark probe through the balancer
//     finds the node gone, which feeds health, so the retry re-pins
//     the same way.
//
// The request that ends the session (Eos, which a one-shot request
// always has) finishes its entry done as it is steered; a resend under
// the ID gets the same entry and its pin, or a re-pin if the owner left.
func (b *Balancer) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, err := ingest.ParseRequest(r.Header)
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Affinity needs a name, so an anonymous upload gets a minted one.
	sess, _, _ := b.sessions.Admit(r.URL.Query().Get("session"), func(id string) *lbSession { return &lbSession{id: id} })
	be, err := b.pinned(sess, req.Eos)
	if err != nil {
		ingest.CodeUnavailable.Reject(w, fmt.Sprintf("session %s: %v", sess.id, err))
		return
	}
	steer(w, be.url+"/ingest?session="+url.QueryEscape(sess.id))
}

// steer answers with a 307 to loc, which a client follows with the same
// method, body and headers.
func steer(w http.ResponseWriter, loc string) {
	w.Header().Set("Location", loc)
	w.WriteHeader(http.StatusTemporaryRedirect)
}

// pinned returns sess's live pin, re-pinning it first when the current
// one left the fleet, and finishes sess done when ending is set. It
// holds sess.mu only for that, so a read of the session never waits
// behind another request. The node alone serializes a session's
// uploads, through its upload slot: a second one waits for it, then is
// answered 503 busy.
func (b *Balancer) pinned(sess *lbSession, ending bool) (*backend, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	cur := sess.backend
	if cur == nil || cur.State() != stateUp {
		next := b.pick(sess.id)
		if next == nil {
			return nil, errNoBackends
		}
		if cur != nil {
			b.m.failovers.Inc()
			sess.failovers++
			b.log.Warn("session failover", "session", sess.id, "from", cur.url, "to", next.url)
		}
		sess.backend = next
	}
	if ending && !sess.done {
		sess.done = true
		b.sessions.Finish(sess.id, sess, ingest.StateDone)
	}
	return sess.backend, nil
}

// handleWatermark serves a session's resume point. For a session the
// balancer routed, this runs failover first, so the answer reflects the
// node the next POST will land on — that is what makes the client-resend
// failover path converge. Any other session (admitted before a restart,
// or sent direct to a node) is asked of the fleet.
func (b *Balancer) handleWatermark(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ask := b.reachable()
	if sess := b.lookup(id); sess != nil {
		be, err := b.pinned(sess, false)
		if err != nil {
			ingest.CodeUnavailable.Reject(w, err.Error())
			return
		}
		ask = []*backend{be}
	}
	b.relayFirst(w, r, ask, "/sessions/"+url.PathEscape(id)+"/watermark")
}

// handleReport steers a pinned session's report read to its owner, as
// handleIngest steers its chunks, unless the owner is down; a session
// the balancer does not hold, or whose owner is down, is asked of the
// fleet, and the first backend that has it answers through the
// balancer.
func (b *Balancer) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path := "/report/" + url.PathEscape(id)
	if sess := b.lookup(id); sess != nil {
		sess.mu.Lock()
		be := sess.backend
		sess.mu.Unlock()
		if be != nil && be.State() != stateDown {
			steer(w, be.url+path)
			return
		}
	}
	b.relayFirst(w, r, b.reachable(), path)
}

// reachable lists backends worth asking for reads: everything not
// down. Draining nodes still answer reads for what they hold.
func (b *Balancer) reachable() []*backend {
	out := make([]*backend, 0, len(b.backends))
	for _, be := range b.backends {
		if be.State() != stateDown {
			out = append(out, be)
		}
	}
	return out
}

// relayFirst answers with the given backends' first 200 to path, in
// backend order; else a 404 when one answered, and a 502 when none did.
func (b *Balancer) relayFirst(w http.ResponseWriter, r *http.Request, ask []*backend, path string) {
	answers, answered := b.fan(r.Context(), ask, path, "")
	switch {
	case len(answers) > 0:
		ingest.WriteAppended(w, r, func(dst []byte) []byte { return append(dst, answers[0].body...) })
	case answered:
		ingest.WriteError(w, http.StatusNotFound, "no such session")
	default:
		ingest.WriteError(w, http.StatusBadGateway, "no backend answered")
	}
}

// part is one backend's 200 answer to a fan-out read: the body, what
// scanAnswer kept of it, and the node's tag for it, if it sent one. A
// tagged part is kept (kept.go) and never written again.
type part struct {
	be   *backend
	body []byte
	etag string
	scanned
}

// partMaxBody bounds what one answer may hold at all.
const partMaxBody = 64 << 20

// errPartTooLarge fails a part whose answer runs past partMaxBody.
var errPartTooLarge = fmt.Errorf("answer longer than %d bytes", partMaxBody)

// read fills p.body with the response's body, sized in one step from the
// Content-Length a node sends instead of by doubling (the MinRead spare
// is where the read that meets EOF lands). A body longer than
// partMaxBody, sized or not, is errPartTooLarge.
func (p *part) read(resp *http.Response) error {
	if resp.ContentLength > partMaxBody {
		return errPartTooLarge
	}
	var buf bytes.Buffer
	if n := resp.ContentLength; n >= 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, partMaxBody+1))
	if p.body = buf.Bytes(); err == nil && len(p.body) > partMaxBody {
		return errPartTooLarge
	}
	return err
}

// newPart is the part a 200 of be fills, its rows and fired names sized
// from prev, the kept part it replaces, so a scan of an answer like prev's
// does not grow them by doubling.
func newPart(be *backend, etag string, prev *part) *part {
	p := &part{be: be, etag: etag}
	if prev != nil {
		p.rows = make([]row, 0, cap(prev.rows))
		p.firedNames = make([][]byte, 0, cap(prev.firedNames))
	}
	return p
}

// fan writes one GET to each of the given backends, then reads their
// answers in the order the backends were given — so a merge does not
// depend on which node answered first — and returns the 200-answers,
// each scanned for the array under rowsKey (the body itself when rowsKey
// is arrayBody; left as bytes when rowsKey is ""), and whether any
// backend answered at all. Every read of a node but the health probe is
// a fan: the nodes work at once, no goroutine waits on them, and ctx
// firing cuts only the read in progress. Failures, a body that does not
// scan (JSON in another layout than a node's among them), are logged and
// skipped: a degraded fleet still answers with what it has. A GET is
// conditional on the part kept for it, looked up before it is sent, and
// a 304 reuses that very part.
func (b *Balancer) fan(ctx context.Context, backends []*backend, pathAndQuery, rowsKey string) (answers []*part, answered bool) {
	prev := make([]*part, len(backends))
	xs := make([]*exchange, len(backends))
	for i, be := range backends {
		etag := ""
		if prev[i] = b.kept.part(be.url + pathAndQuery); prev[i] != nil {
			etag = prev[i].etag
		}
		xs[i] = b.send(ctx, be, pathAndQuery, etag)
	}
	for i, x := range xs {
		p, heard := b.take(x, prev[i], pathAndQuery, rowsKey)
		if p != nil {
			answers = append(answers, p)
		}
		answered = answered || heard
	}
	return answers, answered
}

// take reads x's answer to a fan-out GET into a part, or reuses prev on a
// 304, and keeps a fresh tagged part; heard is whether the node answered.
func (b *Balancer) take(x *exchange, prev *part, pathAndQuery, rowsKey string) (p *part, heard bool) {
	defer x.done()
	resp, err := x.response()
	if err != nil {
		// Only while the request is live: a client that hung up, or a
		// scrape cut off by its timeout, says nothing about the node.
		if x.ctx.Err() == nil {
			b.m.proxyErrors.Inc()
			if x.be.noteFailure(b.opts.FailThreshold) {
				b.log.Warn("backend down (request to it failed)", "backend", x.be.url, "err", err)
			}
		}
		return nil, false
	}
	if resp.StatusCode == http.StatusNotModified && prev != nil {
		b.m.notModified.Inc()
		return prev, true
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, true
	}
	p = newPart(x.be, resp.Header.Get("ETag"), prev)
	if err = p.read(resp); err == nil && rowsKey != "" {
		err = scanAnswer(p.body, rowsKey, &p.scanned)
	}
	if err != nil {
		b.log.Warn("fan-out read failed", "backend", x.be.url, "path", pathAndQuery, "err", err)
		return nil, true
	}
	if p.etag != "" {
		b.kept.keepPart(x.be.url+pathAndQuery, p)
	}
	return p, true
}

// answer writes the merged answer to r and notes, under kind, what the
// read took from its fan-out to the end of the merge. An answer merged
// from tagged parts is kept under r's URI and written again, unmerged,
// while a read of that URI gets the very same parts.
func (b *Balancer) answer(w http.ResponseWriter, r *http.Request, kind string, start time.Time, answers []*part, merge func(dst []byte) []byte) {
	uri := r.URL.RequestURI()
	body := b.kept.answer(uri, answers)
	ingest.WriteAppended(w, r, func(dst []byte) []byte {
		n := len(dst)
		if body != nil {
			dst = append(dst, body...)
		} else {
			dst = merge(dst)
			b.kept.keepAnswer(uri, answers, dst[n:])
		}
		b.m.fanoutSeconds[kind].Observe(time.Since(start).Seconds())
		return dst
	})
}

// handleSessions fans /sessions across the fleet and merges the
// per-node session summaries, ordered by session id.
func (b *Balancer) handleSessions(w http.ResponseWriter, r *http.Request) {
	answers, _ := b.fan(r.Context(), b.reachable(), "/sessions", arrayBody)
	ingest.WriteAppended(w, r, func(dst []byte) []byte { return mergeSessions(dst, answers) })
}

// handleRead fans a read — /query or /incidents/similar — across the
// fleet and merges the nodes' answers into the one a store holding all
// their rows gives: records interleave by start time, top_chains
// re-aggregate by chain, cause_rates re-derive rates from summed runs
// over summed session minutes, matches re-rank. Rows are not decoded on
// the way: the rows that rank are copied out of the nodes' answers. The
// read is parsed as a node parses it (rcastore.ParseRead), so one a node
// would reject gets the node's 400 here and no node is asked; a read no
// node answers with a 200 is a 503.
//
// A session= probe goes to every node as it came: the node that stored
// the session resolves its signature and answers with its own matches,
// the others answer 404 from their session index; those are then asked
// with the explicit signature, so each node scans once. A probe is a 404
// when every node that answered lacks the session, and a 503 when none
// answered.
func (b *Balancer) handleRead(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rd, err := rcastore.ParseRead(r.URL.Path, r.URL.RawQuery, sim.Time(start.UnixMicro()))
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rowsKey, ask := rd.Kind, b.reachable()
	if rd.Kind == rcastore.KindSimilar {
		rowsKey = "matches"
	}
	answers, answered := b.fan(r.Context(), ask, r.URL.RequestURI(), rowsKey)
	if rd.Probe != "" && len(answers) == 0 && answered {
		ingest.WriteError(w, http.StatusNotFound, fmt.Sprintf("session %q has no stored report on any node", rd.Probe))
		return
	}
	if rd.Probe != "" && len(answers) > 0 {
		// The first node holding the session speaks for it. Any other
		// holder is asked again like the rest of the fleet: with that
		// one's signature and no session, which they do not hold.
		answers = answers[:1]
		ask = slices.DeleteFunc(ask, func(be *backend) bool { return be == answers[0].be })
		q := r.URL.Query()
		q.Del("session")
		q.Set("fired", string(bytes.Join(answers[0].firedNames, []byte(","))))
		rest, _ := b.fan(r.Context(), ask, "/incidents/similar?"+q.Encode(), rowsKey)
		answers = append(answers, rest...)
	}
	if len(answers) == 0 {
		ingest.WriteError(w, http.StatusServiceUnavailable, errNoBackends.Error())
		return
	}
	b.answer(w, r, rd.Kind, start, answers, func(dst []byte) []byte {
		switch rd.Kind {
		case rcastore.KindTopChains:
			return rcastore.AppendTopChainsAnswer(dst, mergeTopChains(answers, rd.K))
		case rcastore.KindCauseRates:
			return rcastore.AppendCauseRatesAnswer(dst, mergeCauseRates(answers))
		case rcastore.KindSimilar:
			return mergeSimilar(dst, answers[0].fired, answers, rd.Probe, rd.K)
		}
		return mergeRecords(dst, answers, rd.Query.Limit)
	})
}

// byRecord and byMatch order scanned rows as rcastore.RecordLess and
// MatchLess order the rows they were: FuzzFanoutScan holds each pair
// together.
func byRecord(a, b *row) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	return bytes.Compare(a.session, b.session)
}

func byMatch(a, b *row) int {
	if c := cmp.Compare(a.distance, b.distance); c != 0 {
		return c
	}
	if c := cmp.Compare(b.start, a.start); c != 0 { // the more recent first
		return c
	}
	return bytes.Compare(a.session, b.session)
}

// allRows lists the answers' rows, backend by backend.
func allRows(answers []*part) []*row {
	n := 0
	for _, p := range answers {
		n += len(p.rows)
	}
	rows := make([]*row, 0, n)
	for _, p := range answers {
		for i := range p.rows {
			rows = append(rows, &p.rows[i])
		}
	}
	return rows
}

// mergeSessions appends the fleet's /sessions answer: every answer's rows
// ordered by session id, a session two nodes hold once per node in
// backend order, laid out as a node lays out its own.
func mergeSessions(dst []byte, answers []*part) []byte {
	rows := allRows(answers)
	slices.SortStableFunc(rows, func(a, b *row) int { return bytes.Compare(a.session, b.session) })
	if len(rows) == 0 {
		return append(dst, "[]\n"...)
	}
	e := jsonenc.Encoder{B: dst}
	for i, r := range rows {
		e.Elem(i, 1)
		e.B = append(e.B, r.raw...)
	}
	e.EndArray(1)
	e.Raw("\n")
	return e.B
}

// mergeRecords appends the fleet's answer to a records read: every
// answer's rows in the order one store would give them, cut at limit.
func mergeRecords(dst []byte, answers []*part, limit int) []byte {
	rows := allRows(answers)
	slices.SortStableFunc(rows, byRecord)
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rcastore.AppendRecordsSplice(dst, len(rows), func(i int) []byte { return rows[i].raw })
}

// mergeSimilar appends the fleet's answer to a similar-incident read
// about the signature fired: the answers' matches without the probe
// session and without a session's second copy (nothing stops a session
// from being stored on two nodes), re-ranked in the order each node
// ranked its own, cut at k.
func mergeSimilar(dst, fired []byte, answers []*part, probeSession string, k int) []byte {
	all := allRows(answers)
	rows, seen := all[:0], make(map[string]bool, len(all))
	for _, r := range all {
		if string(r.session) != probeSession && !seen[string(r.session)] {
			seen[string(r.session)] = true
			rows = append(rows, r)
		}
	}
	slices.SortStableFunc(rows, byMatch)
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rcastore.AppendSimilarSplice(dst, fired, len(rows), func(i int) []byte { return rows[i].raw })
}

// mergeTopChains sums the answers' chain rows by chain and re-ranks them
// by runs, ties by signature, cut at k.
func mergeTopChains(answers []*part, k int) []rcastore.ChainAgg {
	byChain := map[string]*rcastore.ChainAgg{}
	for _, p := range answers {
		for i := range p.rows {
			r := &p.rows[i]
			a := byChain[string(r.chain)]
			if a == nil {
				a = &rcastore.ChainAgg{Chain: string(r.chain)}
				byChain[a.Chain] = a
			}
			a.Runs += r.runs
			a.Sessions += r.sessions
		}
	}
	out := make([]rcastore.ChainAgg, 0, len(byChain))
	for _, a := range byChain {
		out = append(out, *a)
	}
	return rcastore.RankChains(out, k)
}

// mergeCauseRates re-aggregates per-node cause-rate buckets. Runs sum
// per (cell, bucket, cause); Sessions and Minutes sum per (cell,
// bucket) group — each node reports its group denominator on every
// row, so per node the group values are taken once — and the rate is
// re-derived from the merged numerator and denominator. A node's clean
// group comes as one cause "" row, which the merge keeps only for a
// group no node lists a cause in, as one store answers.
func mergeCauseRates(answers []*part) []rcastore.CauseBucket {
	type groupKey struct {
		cell   string
		bucket int64
	}
	type cellKey struct {
		groupKey
		cause string
	}
	runs := map[cellKey]int{}
	sessions := map[groupKey]int{}
	minutes := map[groupKey]float64{}
	causes := map[groupKey]bool{} // some node lists a cause in the group
	for _, p := range answers {
		grouped := map[groupKey]bool{}
		for i := range p.rows {
			r := &p.rows[i]
			g := groupKey{cell: string(r.cell), bucket: r.bucket}
			runs[cellKey{groupKey: g, cause: string(r.cause)}] += r.runs
			causes[g] = causes[g] || len(r.cause) > 0
			if !grouped[g] {
				grouped[g] = true
				sessions[g] += r.sessions
				minutes[g] += r.minutes
			}
		}
	}
	out := make([]rcastore.CauseBucket, 0, len(runs))
	for k, n := range runs {
		if k.cause == "" && causes[k.groupKey] {
			continue
		}
		out = append(out, rcastore.CauseBucket{
			Cell: k.cell, Bucket: sim.Time(k.bucket), Cause: k.cause,
			Runs: n, Sessions: sessions[k.groupKey], Minutes: minutes[k.groupKey],
		})
	}
	return rcastore.RateCauseBuckets(out)
}
