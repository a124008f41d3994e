package balancer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// errNoBackends is returned when the healthy set is empty.
var errNoBackends = fmt.Errorf("no healthy backends")

// handleIngest admits a session (or the next chunk of one), pins it
// to a backend, and proxies the body. Failure handling is the point:
//
//   - if the pinned backend is down or draining when the chunk
//     arrives, the session fails over first — the balancer re-pins by
//     HRW over the surviving nodes and replays its acknowledged
//     prefix at seq 0, which is exactly the new node's watermark;
//   - if the backend dies under an in-flight proxy, the client gets a
//     retryable 503 + Retry-After and the internal/ingest backoff
//     path takes over: probe watermark (now answered by the new
//     pin), resend what is missing.
func (b *Balancer) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, err := ingest.ParseRequest(r.Header)
	if err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := r.URL.Query().Get("session")
	if id == "" {
		// Affinity needs a name; mint one so even anonymous legacy
		// uploads route consistently.
		id = fmt.Sprintf("lb-%d", b.nextID.Add(1))
	}
	sess := b.session(id)
	// One chunk at a time per session: the protocol is sequential and
	// a concurrent duplicate would corrupt replay accounting.
	sess.mu.Lock()
	defer sess.mu.Unlock()

	sess.resumable = sess.resumable || req.Resumable
	if ct := r.Header.Get("Content-Type"); ct != "" {
		sess.contentType = ct
	}
	if err := b.ensureBackend(r.Context(), sess); err != nil {
		ingest.CodeUnavailable.Reject(w, fmt.Sprintf("session %s: %v", id, err))
		return
	}
	b.forward(w, r, req, sess, id)
}

// ensureBackend gives sess a live pin, failing it over when the
// current one left the fleet. Callers hold sess.mu.
func (b *Balancer) ensureBackend(ctx context.Context, sess *lbSession) error {
	cur := sess.backend
	if cur != nil && cur.State() == stateUp {
		return nil
	}
	next := b.pick(sess.id)
	if next == nil {
		return errNoBackends
	}
	if cur == nil {
		sess.backend = next
		return nil
	}
	// Failover. The new node has never seen this session (watermark
	// 0): replay the acknowledged prefix if we still hold it aligned,
	// otherwise reset so the client's own resend starts from scratch.
	b.m.failovers.Inc()
	sess.failovers++
	b.log.Warn("session failover", "session", sess.id, "from", cur.url, "to", next.url,
		"replay_bytes", sess.buffered, "accepted", sess.accepted)
	if sess.buffered > 0 && !sess.overflow {
		if err := b.replay(ctx, sess, next); err != nil {
			return fmt.Errorf("failover replay: %w", err)
		}
	} else {
		sess.accepted = 0
		sess.dropReplay()
	}
	sess.backend = next
	return nil
}

// dropReplay forgets the acknowledged chunks kept for failover replay.
func (s *lbSession) dropReplay() { s.chunks, s.buffered = nil, 0 }

// replayBody streams the acknowledged chunks back to back.
func (s *lbSession) replayBody() io.ReadCloser {
	parts := make([]io.Reader, len(s.chunks))
	for i, c := range s.chunks {
		parts[i] = bytes.NewReader(c)
	}
	return io.NopCloser(io.MultiReader(parts...))
}

// replay re-ingests a session's acknowledged prefix into a fresh
// backend: one POST at seq 0 (the new node's watermark), no EOS, so
// the stream continues where the client left off.
func (b *Balancer) replay(ctx context.Context, sess *lbSession, be *backend) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		be.url+"/ingest?session="+url.QueryEscape(sess.id), sess.replayBody())
	if err != nil {
		return err
	}
	// The body is a list, so say how long it is and how to start it over
	// (a reused connection the backend already closed), as net/http works
	// out by itself for a single bytes.Reader.
	req.ContentLength = int64(sess.buffered)
	req.GetBody = func() (io.ReadCloser, error) { return sess.replayBody(), nil }
	req.Header.Set("Content-Type", sess.contentType)
	ingest.Request{Resumable: true}.SetHeaders(req.Header)
	resp, err := b.client.Do(req)
	if err != nil {
		b.backendFailed(be, err)
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("backend %s answered %d: %s", be.url, resp.StatusCode, bytes.TrimSpace(body))
	}
	var wm ingest.Watermark
	if err := json.Unmarshal(body, &wm); err != nil {
		return fmt.Errorf("backend %s watermark: %w", be.url, err)
	}
	sess.accepted = wm.Accepted
	b.m.replayedBytes.Add(int64(sess.buffered))
	return nil
}

// forward proxies one ingest chunk to the session's pinned backend,
// teeing the body into a buffer of its own that joins the replay list
// only once the backend acknowledges: a chunk costs a chunk, however
// long the session already is. Callers hold sess.mu.
func (b *Balancer) forward(w http.ResponseWriter, r *http.Request, proto ingest.Request, sess *lbSession, id string) {
	be := sess.backend
	var pending *bytes.Buffer
	var body io.Reader = r.Body
	if sess.resumable && !sess.overflow && b.opts.ReplayMax > 0 {
		var sized []byte
		if n := r.ContentLength; n > 0 && n <= b.opts.ReplayMax {
			sized = make([]byte, 0, n)
		}
		pending = bytes.NewBuffer(sized)
		body = io.TeeReader(r.Body, pending)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		be.url+"/ingest?session="+url.QueryEscape(id), body)
	if err != nil {
		ingest.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", sess.contentType)
	proto.SetHeaders(req.Header)
	resp, err := b.client.Do(req)
	if err != nil {
		// The backend vanished under the stream. We cannot replay the
		// client's body (it is half-consumed); hand the failure to the
		// client's retry loop, and let the failure feed health so the
		// next attempt fails over.
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

	switch resp.StatusCode {
	case http.StatusOK:
		// Final report: the session is complete, the buffer has done
		// its job. A client that lost the 200 resends and gets it again.
		if !sess.done {
			b.retire(sess)
		}
		sess.dropReplay()
		sess.overflow = false
	case http.StatusAccepted:
		// Chunk acknowledged: commit the teed bytes to the replay
		// buffer and advance the acknowledged watermark.
		var wm ingest.Watermark
		if json.Unmarshal(respBody, &wm) == nil {
			sess.accepted = wm.Accepted
		}
		if pending != nil {
			chunk := pending.Bytes()
			if cap(chunk) > len(chunk) {
				// A body of undeclared length grew its buffer by doubling;
				// keep the bytes, not the slack.
				chunk = bytes.Clone(chunk)
			}
			sess.chunks = append(sess.chunks, chunk)
			sess.buffered += len(chunk)
			if int64(sess.buffered) > b.opts.ReplayMax {
				sess.dropReplay()
				sess.overflow = true
			}
		}
	case http.StatusServiceUnavailable:
		// The backend is shedding or draining; reflect draining into
		// the fleet view right away so the client's retry re-pins
		// instead of bouncing off the same node.
		if ingest.ErrorCode(respBody) == ingest.CodeDraining && be.noteState(stateDraining, "") {
			b.log.Info("backend draining (ingest reject)", "backend", be.url)
		}
	}
	copyHeader(w, resp.Header, "Content-Type")
	copyHeader(w, resp.Header, "Retry-After")
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody)
}

// backendFailed folds a data-path failure into backend health.
func (b *Balancer) backendFailed(be *backend, err error) {
	b.m.proxyErrors.Inc()
	if be.noteFailure(b.opts.FailThreshold) {
		b.log.Warn("backend down (proxy error)", "backend", be.url, "err", err)
	}
}

func copyHeader(w http.ResponseWriter, h http.Header, name string) {
	if v := h.Get(name); v != "" {
		w.Header().Set(name, v)
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
		if err := b.ensureBackend(r.Context(), sess); err != nil {
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
	copyHeader(w, resp.Header, "Content-Type")
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
	copyHeader(w, resp.Header, "Content-Type")
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

// fanGet issues one GET to each of the given backends, all at once, and
// returns the decoded 200-bodies with the backend each came from, both
// in the order the backends were given — so a merge does not depend on
// which node answered first. Individual failures are logged and
// skipped: a degraded fleet still answers with what it has. When no
// backend answered 200 the caller relays one node's answer (relayFirst)
// rather than merge nothing into an empty 200.
func fanGet[T any](b *Balancer, ctx context.Context, backends []*backend, pathAndQuery string) (answers []T, from []*backend) {
	got := make([]*T, len(backends))
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
			if resp.StatusCode == http.StatusOK {
				v := new(T)
				if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
					b.log.Warn("fan-out decode failed", "backend", be.url, "path", pathAndQuery, "err", err)
				} else {
					got[i] = v
				}
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		}(i, be)
	}
	wg.Wait()
	for i, v := range got {
		if v != nil {
			answers, from = append(answers, *v), append(from, backends[i])
		}
	}
	return answers, from
}

// handleSessions fans /sessions across the fleet and merges the
// per-node session summaries, ordered by session id.
func (b *Balancer) handleSessions(w http.ResponseWriter, r *http.Request) {
	parts, _ := fanGet[[]json.RawMessage](b, r.Context(), b.reachable(), "/sessions")
	type keyed struct {
		id  string
		raw json.RawMessage
	}
	var all []keyed
	for _, part := range parts {
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
// summed runs over summed session minutes.
func (b *Balancer) handleQuery(w http.ResponseWriter, r *http.Request) {
	pathAndQuery := "/query"
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	switch agg := r.URL.Query().Get("agg"); agg {
	case "":
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			limit, _ = strconv.Atoi(v)
		}
		type recordsResp struct {
			Records []rcastore.Record `json:"records"`
		}
		var records []rcastore.Record
		parts, _ := fanGet[recordsResp](b, r.Context(), b.reachable(), pathAndQuery)
		if len(parts) == 0 {
			b.relayFirst(w, r.Context(), pathAndQuery)
			return
		}
		for _, part := range parts {
			records = append(records, part.Records...)
		}
		sort.SliceStable(records, func(i, j int) bool { return rcastore.RecordLess(&records[i], &records[j]) })
		if limit > 0 && len(records) > limit {
			records = records[:limit]
		}
		if records == nil {
			records = []rcastore.Record{}
		}
		ingest.WriteJSON(w, http.StatusOK, map[string]any{"records": records})
	case "top_chains":
		k := 10
		if v := r.URL.Query().Get("k"); v != "" {
			k, _ = strconv.Atoi(v)
		}
		type chainsResp struct {
			TopChains []rcastore.ChainAgg `json:"top_chains"`
		}
		byChain := map[string]*rcastore.ChainAgg{}
		parts, _ := fanGet[chainsResp](b, r.Context(), b.reachable(), pathAndQuery)
		if len(parts) == 0 {
			b.relayFirst(w, r.Context(), pathAndQuery)
			return
		}
		for _, part := range parts {
			for _, c := range part.TopChains {
				a := byChain[c.Chain]
				if a == nil {
					cp := c
					byChain[c.Chain] = &cp
					continue
				}
				a.Runs += c.Runs
				a.Sessions += c.Sessions
			}
		}
		out := make([]rcastore.ChainAgg, 0, len(byChain))
		for _, a := range byChain {
			out = append(out, *a)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Runs != out[j].Runs {
				return out[i].Runs > out[j].Runs
			}
			return out[i].Chain < out[j].Chain
		})
		if k > 0 && len(out) > k {
			out = out[:k]
		}
		ingest.WriteJSON(w, http.StatusOK, map[string]any{"top_chains": out})
	case "cause_rates":
		rates, ok := b.mergeCauseRates(r.Context(), pathAndQuery)
		if !ok {
			b.relayFirst(w, r.Context(), pathAndQuery)
			return
		}
		ingest.WriteJSON(w, http.StatusOK, map[string]any{"cause_rates": rates})
	default:
		// Let a backend phrase the error for unknown aggregations.
		b.relayFirst(w, r.Context(), pathAndQuery)
	}
}

// mergeCauseRates re-aggregates per-node cause-rate buckets. Runs sum
// per (cell, bucket, cause); Sessions and Minutes sum per (cell,
// bucket) group — each node reports its group denominator on every
// row, so per node the group values are taken once — and the rate is
// re-derived from the merged numerator and denominator. ok is false
// when no backend answered.
func (b *Balancer) mergeCauseRates(ctx context.Context, pathAndQuery string) (merged []rcastore.CauseBucket, ok bool) {
	type ratesResp struct {
		CauseRates []rcastore.CauseBucket `json:"cause_rates"`
	}
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
	parts, _ := fanGet[ratesResp](b, ctx, b.reachable(), pathAndQuery)
	if len(parts) == 0 {
		return nil, false
	}
	for _, part := range parts {
		grouped := map[groupKey]bool{}
		for _, cb := range part.CauseRates {
			g := groupKey{cell: cb.Cell, bucket: int64(cb.Bucket)}
			runs[cellKey{groupKey: g, cause: cb.Cause}] += cb.Runs
			if !grouped[g] {
				grouped[g] = true
				sessions[g] += cb.Sessions
				minutes[g] += cb.Minutes
			}
		}
	}
	out := make([]rcastore.CauseBucket, 0, len(runs))
	for k, n := range runs {
		cb := rcastore.CauseBucket{
			Cell: k.cell, Bucket: sim.Time(k.bucket), Cause: k.cause,
			Runs: n, Sessions: sessions[k.groupKey], Minutes: minutes[k.groupKey],
		}
		if cb.Minutes > 0 {
			cb.RunsPerMin = float64(n) / cb.Minutes
		}
		out = append(out, cb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		if out[i].Bucket != out[j].Bucket {
			return out[i].Bucket < out[j].Bucket
		}
		return out[i].Cause < out[j].Cause
	})
	return out, true
}

// handleSimilar fans nearest-incident lookups. A fired= probe fans
// directly. A session= probe goes to every node as it came: the node
// that stored the session resolves its signature and answers with its
// own matches, the others answer 404 from their session index; those
// are then asked with the explicit signature, so each node scans once.
func (b *Balancer) handleSimilar(w http.ResponseWriter, r *http.Request) {
	type similarResp struct {
		Fired   []string         `json:"fired"`
		Matches []rcastore.Match `json:"matches"`
	}
	k := 5
	if v := r.URL.Query().Get("k"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			k = n
		}
	}
	q := r.URL.Query()
	probeSession := q.Get("session")
	ask := b.reachable()
	var fired []string
	var matches []rcastore.Match
	if probeSession != "" {
		owners, from := fanGet[similarResp](b, r.Context(), ask, "/incidents/similar?"+r.URL.RawQuery)
		if len(owners) == 0 {
			ingest.WriteError(w, http.StatusNotFound, fmt.Sprintf("session %q has no stored report on any node", probeSession))
			return
		}
		// The first node holding the session speaks for it. Any other
		// holder is asked again below like the rest of the fleet, with
		// the first one's signature.
		fired, matches = owners[0].Fired, owners[0].Matches
		ask = slices.DeleteFunc(ask, func(be *backend) bool { return be == from[0] })
		// Rewrite the query for them: explicit signature, no session
		// (they do not hold it).
		q.Del("session")
		q.Set("fired", strings.Join(fired, ","))
	}
	fanQuery := "/incidents/similar?" + q.Encode()
	parts, _ := fanGet[similarResp](b, r.Context(), ask, fanQuery)
	for _, part := range parts {
		if fired == nil {
			fired = part.Fired
		}
		matches = append(matches, part.Matches...)
	}
	if fired == nil {
		// No backend produced an answer; surface the fleet state or
		// the parameter error from a live node.
		b.relayFirst(w, r.Context(), fanQuery)
		return
	}
	// Dedup (nothing stops a session from being stored on two nodes),
	// drop the probe itself, and re-rank in the order each node ranked
	// its own.
	seen := map[string]bool{}
	out := matches[:0]
	for _, m := range matches {
		if m.Session == probeSession || seen[m.Session] {
			continue
		}
		seen[m.Session] = true
		out = append(out, m)
	}
	sort.SliceStable(out, func(i, j int) bool { return rcastore.MatchLess(&out[i], &out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	if out == nil {
		out = []rcastore.Match{}
	}
	ingest.WriteJSON(w, http.StatusOK, map[string]any{"fired": fired, "matches": out})
}
