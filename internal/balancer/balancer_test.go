package balancer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
)

// fakeNode is a dominod stand-in implementing just enough of the
// ingest protocol for routing tests: line-oriented "records",
// seq/watermark dedup, 412 on gaps, draining rejection, and a
// /metrics registry.
type fakeNode struct {
	node string

	mu       sync.Mutex
	draining bool
	sessions map[string][]string // accepted records per session
	done     map[string]bool
	ingests  int // ingest POSTs seen, including rejected ones

	reg *obs.Registry
	ts  *httptest.Server
}

func newFakeNode(t *testing.T, node string) *fakeNode {
	t.Helper()
	f := &fakeNode{
		node:     node,
		sessions: map[string][]string{},
		done:     map[string]bool{},
		reg:      obs.NewRegistry(),
	}
	f.reg.Gauge("dominod_node_info", "Node identity.", obs.L("node", node)).Set(1)
	f.reg.CounterFunc("dominod_records_total", "Records accepted.", func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		n := 0
		for _, recs := range f.sessions {
			n += len(recs)
		}
		return float64(n)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		draining := f.draining
		f.mu.Unlock()
		status, code := "ok", http.StatusOK
		if draining {
			status, code = "draining", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"status": status, "node": node})
	})
	mux.HandleFunc("POST /ingest", f.handleIngest)
	mux.HandleFunc("GET /sessions/{id}/watermark", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		recs, ok := f.sessions[r.PathValue("id")]
		f.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(ingest.Watermark{Session: r.PathValue("id"), Accepted: len(recs), State: "active"})
	})
	mux.HandleFunc("GET /report/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		recs, ok := f.sessions[r.PathValue("id")]
		isDone := f.done[r.PathValue("id")]
		f.mu.Unlock()
		if !ok || !isDone {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session":%q,"records":%d,"node":%q,"body":%q}`,
			r.PathValue("id"), len(recs), node, strings.Join(recs, "|"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.reg.Snapshot().WriteText(w)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeNode) handleIngest(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ingests++
	if f.draining {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "draining: this node is shutting down"})
		return
	}
	id := r.URL.Query().Get("session")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	seq := 0
	if v := r.Header.Get(ingest.HeaderSeq); v != "" {
		seq, _ = strconv.Atoi(v)
	}
	acc := f.sessions[id]
	if seq > len(acc) {
		w.WriteHeader(http.StatusPreconditionFailed)
		json.NewEncoder(w).Encode(map[string]string{"error": "seq gap"})
		return
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(body) == 0 {
		lines = nil
	}
	skip := len(acc) - seq // already-accepted prefix of this chunk
	if skip < len(lines) {
		acc = append(acc, lines[skip:]...)
	}
	f.sessions[id] = acc
	if r.Header.Get(ingest.HeaderEos) == "1" {
		f.done[id] = true
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session":%q,"records":%d,"node":%q,"body":%q}`,
			id, len(acc), f.node, strings.Join(acc, "|"))
		return
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(ingest.Watermark{Session: id, Accepted: len(acc), State: "active"})
}

func (f *fakeNode) setDraining(v bool) {
	f.mu.Lock()
	f.draining = v
	f.mu.Unlock()
}

func (f *fakeNode) records(id string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.sessions[id]...)
}

// newTestBalancer fronts the fakes with prober stopped after the
// initial round — tests drive re-probes explicitly for determinism.
func newTestBalancer(t *testing.T, opts Options, fakes ...*fakeNode) (*Balancer, *httptest.Server) {
	t.Helper()
	for _, f := range fakes {
		opts.Backends = append(opts.Backends, f.ts.URL)
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = time.Hour // probes on demand via probeAll
	}
	if opts.FailThreshold == 0 {
		opts.FailThreshold = 1
	}
	lb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	ts := httptest.NewServer(lb.Routes())
	t.Cleanup(ts.Close)
	return lb, ts
}

func postChunk(t *testing.T, base, id, ct string, seq int, eos bool, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?session="+id, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set(ingest.HeaderSeq, strconv.Itoa(seq))
	if eos {
		req.Header.Set(ingest.HeaderEos, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHRWPinningIsStableAndMovesMinimally(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	lb, _ := newTestBalancer(t, Options{}, a, b, c)

	pins := map[string]string{}
	byBackend := map[string]int{}
	for i := 0; i < 90; i++ {
		id := fmt.Sprintf("sess-%d", i)
		be := lb.pick(id)
		if be == nil {
			t.Fatal("no backend picked")
		}
		if again := lb.pick(id); again != be {
			t.Fatalf("pick(%s) not stable", id)
		}
		pins[id] = be.url
		byBackend[be.url]++
	}
	if len(byBackend) != 3 {
		t.Fatalf("90 sessions landed on %d backends, want 3: %v", len(byBackend), byBackend)
	}
	// Take backend b out: only its sessions may move.
	for _, be := range lb.backends {
		if be.url == b.ts.URL {
			be.noteFailure(1)
		}
	}
	for id, was := range pins {
		now := lb.pick(id)
		if was == b.ts.URL {
			if now.url == b.ts.URL {
				t.Fatalf("%s still pinned to dead backend", id)
			}
			continue
		}
		if now.url != was {
			t.Fatalf("%s moved from %s to %s though its backend survived", id, was, now.url)
		}
	}
}

func TestChunkedFailoverReplaysAcknowledgedPrefix(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)

	const id = "replay-sess"
	resp := postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 0, false, "hdr\nr1\nr2\n")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk 0: %d %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()

	// Which fake owns it?
	sess := lb.lookup(id)
	owner, other := a, b
	if sess.backend.url == b.ts.URL {
		owner, other = b, a
	}
	if got := owner.records(id); len(got) != 3 {
		t.Fatalf("owner has %v", got)
	}

	// Kill the owner hard; the next chunk's proxy attempt fails, feeds
	// health (threshold 1), and the retry fails over with replay.
	owner.ts.CloseClientConnections()
	owner.ts.Close()
	resp = postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 3, false, "r3\n")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("chunk against dead backend: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp.Body.Close()

	resp = postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 3, false, "r3\n")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover chunk: %d %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()
	if got := strings.Join(other.records(id), "|"); got != "hdr|r1|r2|r3" {
		t.Fatalf("survivor assembled %q", got)
	}

	resp = postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 4, true, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eos: %d %s", resp.StatusCode, readBody(t, resp))
	}
	report := readBody(t, resp)
	if !strings.Contains(report, `"records":4`) || !strings.Contains(report, `"node":"`+other.node+`"`) {
		t.Fatalf("report %s", report)
	}
	if v := lb.m.failovers.Value(); v != 1 {
		t.Fatalf("failovers counter = %d, want 1", v)
	}

	// The routing table surfaces what happened.
	table := readBody(t, mustGet(t, ts.URL+"/lb/sessions"))
	if !strings.Contains(table, `"failovers": 1`) || !strings.Contains(table, `"done": true`) {
		t.Fatalf("/lb/sessions: %s", table)
	}
}

func TestClientResendFailoverWhenBufferOverflows(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	// ReplayMax negative: no balancer-side buffering at all — failover
	// must go through the client's watermark-probe + resend path.
	lb, ts := newTestBalancer(t, Options{ReplayMax: -1}, a, b)

	const id = "resend-sess"
	resp := postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 0, false, "hdr\nr1\n")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk 0: %d %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()
	owner, other := a, b
	if lb.lookup(id).backend.url == b.ts.URL {
		owner, other = b, a
	}
	owner.ts.CloseClientConnections()
	owner.ts.Close()

	// The real client drives recovery end to end: 503 → backoff →
	// watermark probe (answered by the new pin: 0) → full resend.
	client := ingest.New(ingest.Options{
		BaseURL: ts.URL, Retries: 4, Backoff: time.Millisecond, Seed: 7,
		Sleep: func(time.Duration) {},
	})
	stats, err := client.Upload(context.Background(), id, ingest.ContentTypeJSONL, []byte("hdr\nr1\nr2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShedRetries == 0 {
		t.Fatalf("stats = %+v, expected shed retries through the failover", stats)
	}
	if got := strings.Join(other.records(id), "|"); got != "hdr|r1|r2" {
		t.Fatalf("survivor assembled %q", got)
	}
}

func TestDrainStopsNewSessionsWhileFailingOverPinned(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)

	// Find a session pinned to a, then start it.
	var pinnedID string
	for i := 0; ; i++ {
		id := fmt.Sprintf("drain-%d", i)
		if lb.pick(id).url == a.ts.URL {
			pinnedID = id
			break
		}
	}
	resp := postChunk(t, ts.URL, pinnedID, ingest.ContentTypeJSONL, 0, false, "hdr\nr1\n")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk 0: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// a starts draining; the prober notices.
	a.setDraining(true)
	lb.probeAll()
	for _, be := range lb.backends {
		if be.url == a.ts.URL && be.State() != stateDraining {
			t.Fatalf("backend a state = %v, want draining", be.State())
		}
	}

	// New sessions — even ones HRW would pin to a — land on b.
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("post-drain-%d", i)
		resp := postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 0, true, "hdr\n")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain session: %d", resp.StatusCode)
		}
		resp.Body.Close()
		if len(b.records(id)) == 0 {
			t.Fatalf("session %s not on surviving node", id)
		}
	}
	a.mu.Lock()
	aSessions := len(a.sessions)
	a.mu.Unlock()
	if aSessions != 1 {
		t.Fatalf("draining node accumulated %d sessions, want just the pre-drain one", aSessions)
	}

	// The pinned in-flight session finishes via failover replay.
	resp = postChunk(t, ts.URL, pinnedID, ingest.ContentTypeJSONL, 2, true, "r2\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned eos after drain: %d %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()
	if got := strings.Join(b.records(pinnedID), "|"); got != "hdr|r1|r2" {
		t.Fatalf("failed-over session assembled %q", got)
	}
}

func TestMetricsFederation(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	for i, f := range []*fakeNode{a, b} {
		id := fmt.Sprintf("fed-%d", i)
		resp := postChunk(t, f.ts.URL, id, ingest.ContentTypeJSONL, 0, true, "hdr\nr1\n")
		resp.Body.Close()
	}

	text := readBody(t, mustGet(t, ts.URL+"/metrics"))
	errs, stats := obs.Lint(strings.NewReader(text))
	for _, e := range errs {
		t.Errorf("fleet exposition: %v", e)
	}
	if stats.Families == 0 {
		t.Fatal("empty fleet exposition")
	}
	if !strings.Contains(text, `dominod_node_info{node="a"} 1`) ||
		!strings.Contains(text, `dominod_node_info{node="b"} 1`) {
		t.Fatalf("per-node identity missing:\n%s", text)
	}
	if !strings.Contains(text, "dominod_records_total 4") {
		t.Fatalf("backend counters not summed (want 4 records fleet-wide):\n%s", text)
	}
	if !strings.Contains(text, `dominolb_backend_up{backend=`) {
		t.Fatalf("balancer health gauges missing:\n%s", text)
	}

	// The served document equals Merge(own snapshot, per-node parses).
	fleet, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("fleet exposition does not re-parse: %v", err)
	}
	var nodeSnaps []obs.Snapshot
	for _, f := range []*fakeNode{a, b} {
		snap, err := obs.ParseText(strings.NewReader(readBody(t, mustGet(t, f.ts.URL+"/metrics"))))
		if err != nil {
			t.Fatal(err)
		}
		nodeSnaps = append(nodeSnaps, snap)
	}
	want, err := obs.Merge(nodeSnaps...)
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range want.Families {
		var got *obs.Family
		for i := range fleet.Families {
			if fleet.Families[i].Name == wf.Name {
				got = &fleet.Families[i]
				break
			}
		}
		if got == nil {
			t.Fatalf("family %s missing from fleet exposition", wf.Name)
		}
		gotText, wantText := renderFamily(t, *got), renderFamily(t, wf)
		if gotText != wantText {
			t.Fatalf("family %s diverges from Merge of node snapshots:\ngot:\n%s\nwant:\n%s", wf.Name, gotText, wantText)
		}
	}

	// A dead backend is skipped and counted, not fatal.
	b.ts.CloseClientConnections()
	b.ts.Close()
	for _, be := range lb.backends {
		if be.url == b.ts.URL {
			be.noteFailure(1)
		}
	}
	text = readBody(t, mustGet(t, ts.URL+"/metrics"))
	if errs, _ := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("degraded exposition fails lint: %v", errs)
	}
	if strings.Contains(text, `dominod_node_info{node="b"}`) {
		t.Fatal("dead backend still in fleet exposition")
	}
}

func renderFamily(t *testing.T, f obs.Family) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (obs.Snapshot{Families: []obs.Family{f}}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestHealthzAggregation(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)

	body := readBody(t, mustGet(t, ts.URL+"/healthz"))
	if !strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, `"node": "a"`) {
		t.Fatalf("healthz: %s", body)
	}

	a.setDraining(true)
	lb.probeAll()
	resp := mustGet(t, ts.URL+"/healthz")
	if body := readBody(t, resp); !strings.Contains(body, `"status": "degraded"`) || !strings.Contains(body, `"draining"`) {
		t.Fatalf("healthz with draining backend: %s", body)
	}

	b.ts.CloseClientConnections()
	b.ts.Close()
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
	for _, be := range lb.backends {
		if be.url == b.ts.URL {
			be.noteFailure(1)
		}
	}
	resp = mustGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no up backends: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestReportRoutesToOwner(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	_, ts := newTestBalancer(t, Options{}, a, b)
	const id = "report-sess"
	resp := postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, 0, true, "hdr\nr1\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	direct := readBody(t, resp)
	viaLB := readBody(t, mustGet(t, ts.URL+"/report/"+id))
	if direct != viaLB {
		t.Fatalf("report via balancer differs:\ningest: %s\nreport: %s", direct, viaLB)
	}
	resp = mustGet(t, ts.URL+"/report/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown report: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSessionsActiveGaugeMatchesTableWalk pins the counted gauge to
// what it replaced: a walk of the session table counting entries that
// are not done — through admissions, completions from several clients
// at once, and a completion that is replayed.
func TestSessionsActiveGaugeMatchesTableWalk(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	check := func(when string, want int) {
		t.Helper()
		lb.mu.Lock()
		walk := 0
		for _, s := range lb.sessions {
			s.mu.Lock()
			if !s.done {
				walk++
			}
			s.mu.Unlock()
		}
		lb.mu.Unlock()
		text := readBody(t, mustGet(t, ts.URL+"/metrics"))
		if line := fmt.Sprintf("dominolb_sessions_active %d\n", walk); walk != want || !strings.Contains(text, line) {
			t.Fatalf("%s: table walk counts %d active (want %d), exposition lacks %q", when, walk, want, line)
		}
	}
	check("empty table", 0)

	// post is postChunk for goroutines other than the test's: it reports
	// with t.Error.
	post := func(id string, seq int, eos bool, body string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest?session="+id, strings.NewReader(body))
		req.Header.Set("Content-Type", ingest.ContentTypeJSONL)
		req.Header.Set(ingest.HeaderSeq, strconv.Itoa(seq))
		if eos {
			req.Header.Set(ingest.HeaderEos, "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("g-%d", i)
			post(id, 0, false, "hdr\nr1\n")
			if i%3 != 0 { // every third session is left open
				post(id, 2, true, "r2\n")
			}
		}(i)
	}
	wg.Wait()
	check("after concurrent uploads", n/3)

	// A client that lost its 200 resends the final chunk: done stays
	// done and is not counted down twice.
	resp := postChunk(t, ts.URL, "g-1", ingest.ContentTypeJSONL, 2, true, "r2\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion replay got %d", resp.StatusCode)
	}
	resp.Body.Close()
	check("after a replayed completion", n/3)
}
