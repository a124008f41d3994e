package balancer

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// errNoBackends is returned when the healthy set is empty.
var errNoBackends = fmt.Errorf("no healthy backends")

// handleIngest admits a session (or the next chunk of one), pins it
// to a backend, and streams the body through. Failure handling is the
// client's resumable-ingest path, with the balancer only re-pinning:
//
//   - if the pinned backend is down or draining when the chunk
//     arrives, the session is re-pinned by HRW over the surviving
//     nodes first; the fresh node has never seen it, so a chunk past
//     record 0 is its 412 seq gap, and the client probes the watermark
//     (0 there) and resends from the start;
//   - if the backend dies under an in-flight proxy, the client gets a
//     retryable 503 + Retry-After, the failure feeds health, and the
//     retry's watermark probe re-pins the same way.
func (b *Balancer) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, err := ingest.ParseRequest(r.Header)
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Affinity needs a name, so an anonymous upload gets a minted one.
	sess, _, fresh := b.sessions.Admit(r.URL.Query().Get("session"), func(id string) *lbSession { return &lbSession{id: id} })
	if fresh {
		b.m.sessionsTotal.Inc()
	}
	// One chunk at a time per session: the protocol is sequential, and
	// a concurrent duplicate could land on a pin the other re-pinned.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := b.ensureBackend(sess); err != nil {
		ingest.CodeUnavailable.Reject(w, fmt.Sprintf("session %s: %v", sess.id, err))
		return
	}
	b.forward(w, r, req, sess)
}

// ensureBackend gives sess a live pin, re-pinning it when the current
// one left the fleet. Callers hold sess.mu.
func (b *Balancer) ensureBackend(sess *lbSession) error {
	cur := sess.backend
	if cur != nil && cur.State() == stateUp {
		return nil
	}
	next := b.pick(sess.id)
	if next == nil {
		return errNoBackends
	}
	if cur != nil {
		b.m.failovers.Inc()
		sess.failovers++
		b.log.Warn("session failover", "session", sess.id, "from", cur.url, "to", next.url)
	}
	sess.backend = next
	return nil
}

// clientBody is a client's request body on its way to a backend. It
// remembers the first read error other than EOF, so a forward that
// fails can tell the client's torn body from the backend's death. The
// transport reads it on a goroutine of its own.
type clientBody struct {
	r   io.Reader
	mu  sync.Mutex
	err error
}

func (c *clientBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err != nil && err != io.EOF {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	}
	return n, err
}

// torn returns the first read error the body met, or nil.
func (c *clientBody) torn() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// forward streams one ingest chunk to the session's pinned backend and
// relays the answer. Callers hold sess.mu.
func (b *Balancer) forward(w http.ResponseWriter, r *http.Request, proto ingest.Request, sess *lbSession) {
	be := sess.backend
	body := &clientBody{r: r.Body}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		be.url+"/ingest?session="+url.QueryEscape(sess.id), body)
	if err != nil {
		ingest.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	copyHeader(req.Header, r.Header, "Content-Type")
	proto.SetHeaders(req.Header)
	resp, err := b.client.Do(req)
	if err != nil {
		if body.torn() != nil || r.Context().Err() != nil {
			// The client's body tore, or the client left: the backend is
			// not at fault. Answer as a node answers a torn body.
			msg := fmt.Sprintf("stream interrupted on its way in (%v); resume from the watermark", err)
			if proto.Settle(ingest.EndInterrupted) == ingest.Suspend {
				ingest.CodeInterrupted.Reject(w, msg)
			} else {
				b.settle(sess, http.StatusBadRequest)
				ingest.WriteError(w, http.StatusBadRequest, msg)
			}
			return
		}
		// The backend vanished under the stream. Hand the failure to
		// the client's retry loop, and let it feed health so the next
		// attempt fails over.
		b.backendFailed(be, err)
		ingest.CodeUnavailable.Reject(w, fmt.Sprintf("backend lost mid-upload (%v); retry to fail over", err))
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		b.backendFailed(be, err)
		ingest.CodeUnavailable.Reject(w, fmt.Sprintf("backend lost mid-response (%v); retry to fail over", err))
		return
	}

	// The backend is shedding or draining; reflect draining into the
	// fleet view right away so the client's retry re-pins instead of
	// bouncing off the same node.
	if resp.StatusCode == http.StatusServiceUnavailable && ingest.ErrorCode(respBody) == ingest.CodeDraining &&
		be.noteState(stateDraining, "") {
		b.log.Info("backend draining (ingest reject)", "backend", be.url)
	}
	b.settle(sess, resp.StatusCode)
	copyHeader(w.Header(), resp.Header, "Content-Type")
	copyHeader(w.Header(), resp.Header, "Retry-After")
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody)
}

// settle finishes sess once status is a final answer for it: done on
// its report (200; a client that lost it resends and gets it again),
// failed on an answer no resend of the chunk mends — every non-retryable
// rejection but a 409, which is about another upload's live session. A
// failed entry is what the next upload under its ID replaces. Callers
// hold sess.mu.
func (b *Balancer) settle(sess *lbSession, status int) {
	how := ingest.StateDone
	if status != http.StatusOK {
		if status < 400 || status == http.StatusConflict || ingest.Retryable(status) {
			return
		}
		how = ingest.StateFailed
	}
	if !sess.done {
		sess.done = true
		b.sessions.Finish(sess.id, sess, how)
	}
}

// backendFailed folds a data-path failure into backend health.
func (b *Balancer) backendFailed(be *backend, err error) {
	b.m.proxyErrors.Inc()
	if be.noteFailure(b.opts.FailThreshold) {
		b.log.Warn("backend down (proxy error)", "backend", be.url, "err", err)
	}
}

func copyHeader(dst, src http.Header, name string) {
	if v := src.Get(name); v != "" {
		dst.Set(name, v)
	}
}

// handleWatermark serves a session's resume point. For a session the
// balancer routed, this runs failover first, so the answer reflects
// the node the next POST will land on — that is what makes the
// client-resend failover path converge.
func (b *Balancer) handleWatermark(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sess := b.lookup(id); sess != nil {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if err := b.ensureBackend(sess); err != nil {
			ingest.CodeUnavailable.Reject(w, err.Error())
			return
		}
		b.passThrough(w, r.Context(), sess.backend, "/sessions/"+url.PathEscape(id)+"/watermark")
		return
	}
	// Unknown to this balancer (admitted before a restart, or direct
	// to a node): first backend that knows it wins.
	for _, be := range b.reachable() {
		if b.tryPassThrough(w, r.Context(), be, "/sessions/"+url.PathEscape(id)+"/watermark", true) {
			return
		}
	}
	ingest.WriteError(w, http.StatusNotFound, "no such session")
}

// handleReport routes to the owning backend, falling back to asking
// the fleet.
func (b *Balancer) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path := "/report/" + url.PathEscape(id)
	if sess := b.lookup(id); sess != nil {
		sess.mu.Lock()
		be := sess.backend
		sess.mu.Unlock()
		if be != nil && be.State() != stateDown && b.tryPassThrough(w, r.Context(), be, path, true) {
			return
		}
	}
	for _, be := range b.reachable() {
		if b.tryPassThrough(w, r.Context(), be, path, true) {
			return
		}
	}
	ingest.WriteError(w, http.StatusNotFound, "no such session")
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

// passThrough proxies one GET verbatim — status, content type, body.
func (b *Balancer) passThrough(w http.ResponseWriter, ctx context.Context, be *backend, path string) {
	resp, err := b.get(ctx, be, path)
	if err != nil {
		b.backendFailed(be, err)
		ingest.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header, "Content-Type")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// tryPassThrough proxies a GET if the backend answers — with only200,
// only if it answers 200. A miss (transport error, or a non-200 under
// only200) leaves the ResponseWriter untouched so the caller can try
// elsewhere.
func (b *Balancer) tryPassThrough(w http.ResponseWriter, ctx context.Context, be *backend, path string, only200 bool) bool {
	resp, err := b.get(ctx, be, path)
	if err != nil {
		b.backendFailed(be, err)
		return false
	}
	defer resp.Body.Close()
	if only200 && resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return false
	}
	copyHeader(w.Header(), resp.Header, "Content-Type")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// relayFirst answers with whatever the first backend that answers at
// all says — status, content type, body. The fan-out handlers use it
// when no backend answered 200, so a parameter error reaches the client
// in a node's own words (a 400 with its message) instead of as an empty
// 200.
func (b *Balancer) relayFirst(w http.ResponseWriter, ctx context.Context, pathAndQuery string) {
	for _, be := range b.reachable() {
		if b.tryPassThrough(w, ctx, be, pathAndQuery, false) {
			return
		}
	}
	ingest.WriteError(w, http.StatusServiceUnavailable, errNoBackends.Error())
}

func (b *Balancer) get(ctx context.Context, be *backend, pathAndQuery string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, be.url+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	return b.client.Do(req)
}

// part is one backend's 200 answer to a fan-out read: the body, and what
// scanAnswer kept of it. Parts are pooled, so a steady read mix reads
// into and scans into memory it already has.
type part struct {
	be   *backend
	body []byte
	scanned
}

var parts = sync.Pool{New: func() any { return new(part) }}

// A part that grew past either bound is left to the collector, so one
// huge answer does not pin its size for good.
const (
	partKeepBody = 1 << 20
	partKeepRows = 4096
	partPresize  = 64 << 20
)

// release returns p to the pool and reports whether the pool took it.
func (p *part) release() bool {
	keep := cap(p.body) <= partKeepBody && cap(p.rows) <= partKeepRows
	if keep {
		p.be, p.fired = nil, nil
		parts.Put(p)
	}
	return keep
}

func release(answers []*part) {
	for _, p := range answers {
		p.release()
	}
}

// read fills p.body with the response's body, sized in one step from the
// Content-Length a node sends instead of by doubling.
func (p *part) read(resp *http.Response) error {
	p.body = p.body[:0]
	if n := resp.ContentLength; n >= int64(cap(p.body)) {
		// The spare byte is where the read that meets EOF lands. A length
		// past partPresize is taken on trust only that far.
		p.body = make([]byte, 0, min(n, partPresize)+1)
	}
	for {
		if len(p.body) == cap(p.body) {
			p.body = append(p.body, 0)[:len(p.body)]
		}
		n, err := resp.Body.Read(p.body[len(p.body):cap(p.body)])
		p.body = p.body[:len(p.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// fan issues one GET to each of the given backends, all at once, and
// returns the 200-answers, each scanned for the array under rowsKey (left
// as bytes when rowsKey is ""), in the order the backends were given — so
// a merge does not depend on which node answered first. Individual
// failures, a body that does not scan (JSON in another layout than a
// node's among them), are logged and skipped: a degraded fleet still answers with what it has. When no
// backend answered 200 the caller relays one node's answer (relayFirst)
// rather than merge nothing into an empty 200; refused says some backend
// answered a 4xx other than 404, which is an answer about the request
// and not about what that node holds. The caller releases the parts once
// the answer that refers to them is written.
func (b *Balancer) fan(ctx context.Context, backends []*backend, pathAndQuery, rowsKey string) (answers []*part, refused bool) {
	got := make([]*part, len(backends))
	var bad atomic.Bool
	var wg sync.WaitGroup
	for i, be := range backends {
		wg.Add(1)
		go func(i int, be *backend) {
			defer wg.Done()
			resp, err := b.get(ctx, be, pathAndQuery)
			if err != nil {
				b.backendFailed(be, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				if resp.StatusCode/100 == 4 && resp.StatusCode != http.StatusNotFound {
					bad.Store(true)
				}
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
				return
			}
			p := parts.Get().(*part)
			p.be = be
			if err = p.read(resp); err == nil && rowsKey != "" {
				err = scanAnswer(p.body, rowsKey, &p.scanned)
			}
			if err != nil {
				b.log.Warn("fan-out read failed", "backend", be.url, "path", pathAndQuery, "err", err)
				p.release()
				return
			}
			got[i] = p
		}(i, be)
	}
	wg.Wait()
	for _, p := range got {
		if p != nil {
			answers = append(answers, p)
		}
	}
	return answers, bad.Load()
}

// answer writes a merged answer and notes, under kind, what the read
// took from its fan-out to the end of the merge.
func (b *Balancer) answer(w http.ResponseWriter, kind string, start time.Time, merge func(dst []byte) []byte) {
	ingest.WriteAppended(w, func(dst []byte) []byte {
		dst = merge(dst)
		b.m.fanoutSeconds[kind].Observe(time.Since(start).Seconds())
		return dst
	})
}

// handleSessions fans /sessions across the fleet and merges the
// per-node session summaries, ordered by session id.
func (b *Balancer) handleSessions(w http.ResponseWriter, r *http.Request) {
	answers, _ := b.fan(r.Context(), b.reachable(), "/sessions", "")
	defer release(answers)
	type keyed struct {
		id  string
		raw json.RawMessage
	}
	var all []keyed
	for _, p := range answers {
		var part []json.RawMessage
		if err := json.Unmarshal(p.body, &part); err != nil {
			b.log.Warn("fan-out decode failed", "backend", p.be.url, "path", "/sessions", "err", err)
			continue
		}
		for _, raw := range part {
			var peek struct {
				Session string `json:"session"`
			}
			_ = json.Unmarshal(raw, &peek)
			all = append(all, keyed{id: peek.Session, raw: raw})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]json.RawMessage, len(all))
	for i, k := range all {
		out[i] = k.raw
	}
	ingest.WriteJSON(w, http.StatusOK, out)
}

// handleQuery fans /query across the fleet and merges per-node
// results into fleet-wide answers: records interleave by start time,
// top_chains re-aggregate by chain, cause_rates re-derive rates from
// summed runs over summed session minutes. Records are not decoded on
// the way: the rows that rank are copied out of the nodes' answers.
func (b *Balancer) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	pathAndQuery := "/query"
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	// kind names the read in dominolb_fanout_seconds, and is the member
	// of a node's answer that holds its rows.
	kind := r.URL.Query().Get("agg")
	switch kind {
	case "":
		kind = "records"
	case "top_chains", "cause_rates":
	default:
		// Let a backend phrase the error for unknown aggregations.
		b.relayFirst(w, r.Context(), pathAndQuery)
		return
	}
	answers, _ := b.fan(r.Context(), b.reachable(), pathAndQuery, kind)
	defer release(answers)
	if len(answers) == 0 {
		b.relayFirst(w, r.Context(), pathAndQuery)
		return
	}
	// A count no node would accept never gets here: every node answered
	// it 400, which the relay above passed on.
	count := func(name string, def int) int {
		if v := r.URL.Query().Get(name); v != "" {
			def, _ = strconv.Atoi(v)
		}
		return def
	}
	b.answer(w, kind, start, func(dst []byte) []byte {
		switch kind {
		case "top_chains":
			return rcastore.AppendTopChainsAnswer(dst, mergeTopChains(answers, count("k", 10)))
		case "cause_rates":
			return rcastore.AppendCauseRatesAnswer(dst, mergeCauseRates(answers))
		}
		return mergeRecords(dst, answers, count("limit", 0))
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
// re-derived from the merged numerator and denominator.
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
	for _, p := range answers {
		grouped := map[groupKey]bool{}
		for i := range p.rows {
			r := &p.rows[i]
			g := groupKey{cell: string(r.cell), bucket: r.bucket}
			runs[cellKey{groupKey: g, cause: string(r.cause)}] += r.runs
			if !grouped[g] {
				grouped[g] = true
				sessions[g] += r.sessions
				minutes[g] += r.minutes
			}
		}
	}
	out := make([]rcastore.CauseBucket, 0, len(runs))
	for k, n := range runs {
		out = append(out, rcastore.CauseBucket{
			Cell: k.cell, Bucket: sim.Time(k.bucket), Cause: k.cause,
			Runs: n, Sessions: sessions[k.groupKey], Minutes: minutes[k.groupKey],
		})
	}
	return rcastore.RateCauseBuckets(out)
}

// handleSimilar fans nearest-incident lookups. A fired= probe fans
// directly. A session= probe goes to every node as it came: the node
// that stored the session resolves its signature and answers with its
// own matches, the others answer 404 from their session index; those
// are then asked with the explicit signature, so each node scans once.
func (b *Balancer) handleSimilar(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	k := 5
	if v := r.URL.Query().Get("k"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			k = n
		}
	}
	q := r.URL.Query()
	probeSession := q.Get("session")
	ask := b.reachable()
	var answers []*part
	defer func() { release(answers) }()
	if probeSession != "" {
		asIs := "/incidents/similar?" + r.URL.RawQuery
		owners, refused := b.fan(r.Context(), ask, asIs, "matches")
		answers = owners
		switch {
		case len(owners) == 0 && refused:
			// Not "nobody holds it": the nodes turned the request itself
			// down (a bad k). Let one say so in its own words.
			b.relayFirst(w, r.Context(), asIs)
			return
		case len(owners) == 0:
			ingest.WriteError(w, http.StatusNotFound, fmt.Sprintf("session %q has no stored report on any node", probeSession))
			return
		}
		// The first node holding the session speaks for it. Any other
		// holder is asked again below like the rest of the fleet, with
		// the first one's signature.
		release(owners[1:])
		answers = owners[:1]
		ask = slices.DeleteFunc(ask, func(be *backend) bool { return be == owners[0].be })
		// Rewrite the query for them: explicit signature, no session
		// (they do not hold it).
		q.Del("session")
		q.Set("fired", string(bytes.Join(owners[0].firedNames, []byte(","))))
	}
	fanQuery := "/incidents/similar?" + q.Encode()
	rest, _ := b.fan(r.Context(), ask, fanQuery, "matches")
	answers = append(answers, rest...)
	var fired []byte
	for _, p := range answers {
		if fired == nil {
			fired = p.fired
		}
	}
	if fired == nil {
		// No backend produced an answer; surface the fleet state or
		// the parameter error from a live node.
		b.relayFirst(w, r.Context(), fanQuery)
		return
	}
	b.answer(w, "similar", start, func(dst []byte) []byte {
		return mergeSimilar(dst, fired, answers, probeSession, k)
	})
}
