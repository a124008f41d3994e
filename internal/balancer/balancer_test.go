package balancer

// Routing tests against real in-process dominod nodes (internal/node):
// pinning, failover by client resend, drain and the prober's re-pin,
// and the read surface. The long fleet differentials
// live in fleet_test.go and share the helpers here.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// fleetNow pins the fleet clock so store timestamps (and thus any
// time-derived report content) agree across nodes and runs.
const fleetNow = sim.Time(1_754_000_000_000_000)

func testAnalyzer(t testing.TB) *core.Analyzer {
	t.Helper()
	a, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fleetNode is one real dominod backend under balancer control.
type fleetNode struct {
	node *node.Node
	ts   *httptest.Server
}

func newFleetNode(t *testing.T, nodeID string) *fleetNode {
	t.Helper()
	n := node.New(testAnalyzer(t), node.Options{
		MaxStreams: 4,
		NodeID:     nodeID,
		Now:        func() sim.Time { return fleetNow },
	})
	ts := httptest.NewServer(n.Routes())
	t.Cleanup(ts.Close)
	return &fleetNode{node: n, ts: ts}
}

// kill is the in-process kill -9: tear every open connection, stop
// accepting. The dominod never gets to drain or checkpoint.
func (n *fleetNode) kill() {
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// watermark probes the node directly for a session's resume point;
// ok is false when the node does not hold the session.
func (n *fleetNode) watermark(t *testing.T, id string) (wm ingest.Watermark, ok bool) {
	t.Helper()
	resp, err := http.Get(n.ts.URL + "/sessions/" + id + "/watermark")
	if err != nil {
		return wm, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wm, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&wm); err != nil {
		t.Fatal(err)
	}
	return wm, true
}

// sessions counts the sessions the node holds.
func (n *fleetNode) sessions(t *testing.T) int {
	t.Helper()
	var infos []json.RawMessage
	if err := json.Unmarshal([]byte(readBody(t, mustGet(t, n.ts.URL+"/sessions"))), &infos); err != nil {
		t.Fatal(err)
	}
	return len(infos)
}

// sessionJSONL generates one call's trace as a JSONL payload.
func sessionJSONL(t testing.TB, cell ran.CellConfig, seed uint64, d sim.Time) []byte {
	t.Helper()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cell, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, sess.Run(d)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitLines cuts a JSONL payload into n record-aligned chunks and
// returns each chunk with its starting record index.
func splitLines(payload []byte, n int) (chunks [][]byte, seqs []int) {
	lines := bytes.SplitAfter(payload, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	per := (len(lines) + n - 1) / n
	for at := 0; at < len(lines); at += per {
		end := at + per
		if end > len(lines) {
			end = len(lines)
		}
		chunks = append(chunks, bytes.Join(lines[at:end], nil))
		seqs = append(seqs, at)
	}
	return chunks, seqs
}

// resend finishes a session the way a client recovers from a failover:
// the real client probes the watermark and resends from there.
func resend(t *testing.T, base, id, contentType string, payload []byte) ingest.UploadStats {
	t.Helper()
	client := ingest.New(ingest.Options{
		BaseURL: base, Retries: 4, Backoff: time.Millisecond, Seed: 7,
		Sleep: func(time.Duration) {},
	})
	stats, err := client.Upload(context.Background(), id, contentType, payload)
	if err != nil {
		t.Fatalf("resend %s: %v (stats %+v)", id, err, stats)
	}
	return stats
}

// cleanReport is what a single healthy node answers for the payload:
// the reference every failover path must reproduce byte for byte.
func cleanReport(t *testing.T, id string, payload []byte) []byte {
	t.Helper()
	clean := newFleetNode(t, "clean")
	if _, err := ingest.New(ingest.Options{BaseURL: clean.ts.URL}).
		Upload(context.Background(), id, ingest.ContentTypeJSONL, payload); err != nil {
		t.Fatal(err)
	}
	return fetchReport(t, clean.ts.URL, id)
}

func fetchReport(t *testing.T, base, id string) []byte {
	t.Helper()
	resp := mustGet(t, base+"/report/"+id)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: status %d: %s", id, resp.StatusCode, body)
	}
	return []byte(body)
}

// newTestBalancer fronts the nodes with the prober stopped after the
// initial round — tests drive re-probes explicitly for determinism.
func newTestBalancer(t *testing.T, opts Options, nodes ...*fleetNode) (*Balancer, *httptest.Server) {
	t.Helper()
	for _, n := range nodes {
		opts.Backends = append(opts.Backends, n.ts.URL)
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

// ownerAndOther sorts two nodes by which one the balancer pinned id to.
func ownerAndOther(lb *Balancer, id string, a, b *fleetNode) (owner, other *fleetNode) {
	if lb.lookup(id).backend.url == b.ts.URL {
		return b, a
	}
	return a, b
}

// backendOf is the balancer's health record for a node.
func backendOf(t *testing.T, lb *Balancer, n *fleetNode) *backend {
	t.Helper()
	for _, be := range lb.backends {
		if be.url == n.ts.URL {
			return be
		}
	}
	t.Fatalf("%s is not a backend", n.ts.URL)
	return nil
}

// postChunk issues one ingest request with the resumable-contract
// headers, following the balancer's steer. seq < 0 omits them (the
// legacy one-shot contract).
func postChunk(t testing.TB, base, id, contentType string, seq int, eos bool, body io.Reader) *http.Response {
	t.Helper()
	resp, err := tryChunk(base, id, contentType, seq, eos, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// tryChunk is postChunk that hands a transport error back.
func tryChunk(base, id, contentType string, seq int, eos bool, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?session="+id, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if seq >= 0 {
		ingest.Request{Seq: seq, Resumable: true, Eos: eos}.SetHeaders(req.Header)
	}
	return http.DefaultClient.Do(req)
}

// noFollow is a client that hands a redirect back instead of following it.
var noFollow = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}

// steerTo asks the balancer where a request of a session goes — it sends
// no body and does not follow — and returns the 307's Location.
func steerTo(t testing.TB, base, id string, r ingest.Request) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?session="+url.QueryEscape(id), http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	r.SetHeaders(req.Header)
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("session %s: the balancer answered %d, want a 307", id, resp.StatusCode)
	}
	return resp.Header.Get("Location")
}

// mustPost posts one chunk and requires the given status.
func mustPost(t *testing.T, base, id string, seq int, eos bool, body []byte, want int) []byte {
	t.Helper()
	resp := postChunk(t, base, id, ingest.ContentTypeJSONL, seq, eos, bytes.NewReader(body))
	got := readBody(t, resp)
	if resp.StatusCode != want {
		t.Fatalf("session %s chunk at %d: status %d, want %d: %s", id, seq, resp.StatusCode, want, got)
	}
	return []byte(got)
}

// postTorn sends an ingest request whose chunked body stops partway: it
// promises a byte more than body and then shuts its sending half, so
// the server reads a torn transfer and can still answer.
func postTorn(t *testing.T, base, id string, req ingest.Request, contentType string, body []byte) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h := http.Header{"Content-Type": {contentType}, "Transfer-Encoding": {"chunked"}}
	req.SetHeaders(h)
	fmt.Fprintf(conn, "POST /ingest?session=%s HTTP/1.1\r\nHost: lb\r\n", id)
	h.Write(conn)
	fmt.Fprintf(conn, "\r\n%x\r\n%s", len(body)+1, body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// errorCode extracts the rejection code from an error body; "" when
// the body carries none.
func errorCode(body []byte) ingest.Code {
	var e ingest.ErrorBody
	_ = json.Unmarshal(body, &e) // not an error body: no code
	return e.Code
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func readBody(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustGet(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHRWPinningIsStableAndMovesMinimally(t *testing.T) {
	a, b, c := newFleetNode(t, "a"), newFleetNode(t, "b"), newFleetNode(t, "c")
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
	backendOf(t, lb, b).noteFailure(1)
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

func TestDrainStopsNewSessionsWhileFailingOverPinned(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
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
	payload := sessionJSONL(t, ran.Presets()[0], 23, 3*sim.Second)
	chunks, seqs := splitLines(payload, 2)
	mustPost(t, ts.URL, pinnedID, seqs[0], false, chunks[0], http.StatusAccepted)

	// a starts draining; the prober notices.
	a.node.Drain()
	lb.probeAll()
	if st := backendOf(t, lb, a).State(); st != stateDraining {
		t.Fatalf("backend a state = %v, want draining", st)
	}

	// New sessions — even ones HRW would pin to a — land on b.
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("post-drain-%d", i)
		mustPost(t, ts.URL, id, 0, true, payload, http.StatusOK)
		if _, ok := b.watermark(t, id); !ok {
			t.Fatalf("session %s not on surviving node", id)
		}
	}
	if n := a.sessions(t); n != 1 {
		t.Fatalf("draining node accumulated %d sessions, want just the pre-drain one", n)
	}

	// The pinned in-flight session fails over: its next chunk is a seq
	// gap on b, which has never seen it, and the client resends it all.
	mustPost(t, ts.URL, pinnedID, seqs[1], true, chunks[1], http.StatusPreconditionFailed)
	resend(t, ts.URL, pinnedID, ingest.ContentTypeJSONL, payload)
	report := fetchReport(t, b.ts.URL, pinnedID)
	if want := cleanReport(t, pinnedID, payload); !bytes.Equal(report, want) {
		t.Fatalf("drained-through report diverged from clean ingest\nclean: %s\nfleet: %s", want, report)
	}
}

// TestDrainingOwnerRepinsOnProbe: the balancer learns of a drain from
// its prober alone, since it never sees a node's answer to a chunk. A
// chunk steered to an owner that has begun draining gets the node's own
// 503 draining, and the backend stays up in the balancer's view with the
// session on its pin; once a probe marks the node draining — within one
// health interval — the next chunk is re-pinned to the other node, a seq
// gap there, and the client resends the session from 0.
func TestDrainingOwnerRepinsOnProbe(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b) // the test runs each probe round

	const id = "drained-owner"
	payload := sessionJSONL(t, ran.Presets()[0], 24, 3*sim.Second)
	chunks, seqs := splitLines(payload, 3)
	mustPost(t, ts.URL, id, seqs[0], false, chunks[0], http.StatusAccepted)
	owner, other := ownerAndOther(lb, id, a, b)

	owner.node.Drain()
	if body := mustPost(t, ts.URL, id, seqs[1], false, chunks[1], http.StatusServiceUnavailable); errorCode(body) != ingest.CodeDraining {
		t.Fatalf("chunk at the draining owner answered %s, want code draining", body)
	}
	if st := backendOf(t, lb, owner).State(); st != stateUp || lb.lookup(id).backend.url != owner.ts.URL {
		t.Fatalf("before a probe the draining owner is %v to the balancer, want up and still the pin", st)
	}
	lb.probeAll()
	if st := backendOf(t, lb, owner).State(); st != stateDraining {
		t.Fatalf("after a probe the draining owner is %v, want draining", st)
	}
	mustPost(t, ts.URL, id, seqs[1], false, chunks[1], http.StatusPreconditionFailed)
	if lb.lookup(id).backend.url != other.ts.URL || lb.m.failovers.Value() != 1 {
		t.Fatal("session not re-pinned off the draining node")
	}
	resend(t, ts.URL, id, ingest.ContentTypeJSONL, payload)
	report := fetchReport(t, ts.URL, id)
	if want := cleanReport(t, id, payload); !bytes.Equal(report, want) {
		t.Fatalf("re-pinned report diverged from clean ingest\nclean: %s\nfleet: %s", want, report)
	}
}

// TestMalformedChunkPassesThrough pins a chunk whose bytes arrive whole
// but do not decode, steered through dominolb: the node's 400 malformed
// reaches the client, which does not retry it, the backend stays up, and
// the routing entry is retired — done, out of the active gauge — since
// the balancer steered the request that ended the session.
func TestMalformedChunkPassesThrough(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	payload := sessionJSONL(t, ran.Presets()[0], 26, 3*sim.Second)
	garbled := encodeBinary(t, payload)
	copy(garbled[len(garbled)/2:], bytes.Repeat([]byte{0x01}, 16))
	bad := append(bytes.Join(bytes.SplitAfter(payload, []byte("\n"))[:40], nil), "not a record\n"...)

	if body := mustPost(t, ts.URL, "direct", 0, true, bad, http.StatusBadRequest); errorCode(body) != ingest.CodeMalformed {
		t.Fatalf("malformed chunk answered %s, want code malformed", body)
	}
	for _, c := range []struct {
		id, contentType string
		payload         []byte
	}{{"jsonl", ingest.ContentTypeJSONL, bad}, {"binary", ingest.ContentTypeBinary, garbled}} {
		client := ingest.New(ingest.Options{BaseURL: ts.URL, Retries: 3, Sleep: func(time.Duration) {}})
		stats, err := client.Upload(context.Background(), c.id, c.contentType, c.payload)
		if err == nil || stats.Attempts != 1 || !strings.Contains(err.Error(), "permanent failure, server returned 400") {
			t.Fatalf("%s: upload of a malformed chunk: %+v, %v; want a permanent 400 on the first attempt", c.id, stats, err)
		}
		if st := lb.lookup(c.id).backend.State(); st != stateUp {
			t.Fatalf("%s: a malformed chunk moved its backend to %v", c.id, st)
		}
	}
	for _, e := range lbSessions(t, ts.URL) {
		if !e.Done {
			t.Fatalf("%s: a failed session's routing entry is still live", e.Session)
		}
	}
	if line := "dominolb_sessions_active 0\n"; !strings.Contains(readBody(t, mustGet(t, ts.URL+"/metrics")), line) {
		t.Fatalf("exposition lacks %q", line)
	}
}

// assertFleetIsMergeOfNodes pins the federation criterion: the
// balancer's /metrics lints clean, names every node, and each family a
// node exposes equals obs.Merge of the per-node scrapes.
func assertFleetIsMergeOfNodes(t *testing.T, lbURL string, nodes ...*fleetNode) string {
	t.Helper()
	text := readBody(t, mustGet(t, lbURL+"/metrics"))
	errs, stats := obs.Lint(strings.NewReader(text))
	for _, e := range errs {
		t.Errorf("fleet exposition: %v", e)
	}
	if stats.Families == 0 {
		t.Fatal("empty fleet exposition")
	}
	fleet, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("fleet exposition does not re-parse: %v", err)
	}
	var nodeSnaps []obs.Snapshot
	for _, n := range nodes {
		snap, err := obs.ParseText(strings.NewReader(readBody(t, mustGet(t, n.ts.URL+"/metrics"))))
		if err != nil {
			t.Fatal(err)
		}
		nodeSnaps = append(nodeSnaps, snap)
	}
	want, err := obs.Merge(nodeSnaps...)
	if err != nil {
		t.Fatal(err)
	}
	render := func(f obs.Family) string {
		var buf bytes.Buffer
		if err := (obs.Snapshot{Families: []obs.Family{f}}).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
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
		if gotText, wantText := render(*got), render(wf); gotText != wantText {
			t.Fatalf("family %s diverges from Merge of node snapshots:\ngot:\n%s\nwant:\n%s", wf.Name, gotText, wantText)
		}
	}
	return text
}

func TestMetricsFederation(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	payload := sessionJSONL(t, ran.Presets()[0], 25, 2*sim.Second)
	for i, n := range []*fleetNode{a, b} {
		mustPost(t, n.ts.URL, fmt.Sprintf("fed-%d", i), 0, true, payload, http.StatusOK)
	}

	text := assertFleetIsMergeOfNodes(t, ts.URL, a, b)
	if !strings.Contains(text, `dominod_node_info{node="a"} 1`) ||
		!strings.Contains(text, `dominod_node_info{node="b"} 1`) {
		t.Fatalf("per-node identity missing:\n%s", text)
	}
	// Counters sum: both nodes analyzed the same trace.
	perNode := strings.Count(string(payload), "\n") - 1 // minus the header line
	if !strings.Contains(text, fmt.Sprintf("dominod_records_total %d\n", 2*perNode)) {
		t.Fatalf("backend counters not summed (want %d records fleet-wide):\n%s", 2*perNode, text)
	}
	if !strings.Contains(text, `dominolb_backend_up{backend=`) {
		t.Fatalf("balancer health gauges missing:\n%s", text)
	}

	// A dead backend is skipped and counted, not fatal.
	b.kill()
	backendOf(t, lb, b).noteFailure(1)
	text = readBody(t, mustGet(t, ts.URL+"/metrics"))
	if errs, _ := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("degraded exposition fails lint: %v", errs)
	}
	if strings.Contains(text, `dominod_node_info{node="b"}`) {
		t.Fatal("dead backend still in fleet exposition")
	}
}

// TestMetricsFederationSkipsInvalidScrape: a backend whose exposition
// breaks a Snapshot rule (here bucket counts that go down) is a failed
// scrape like any other — skipped and counted — so what the balancer
// re-serves still lints.
func TestMetricsFederationSkipsInvalidScrape(t *testing.T) {
	good := newFleetNode(t, "good")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "bad"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "# HELP bad_seconds Goes down.\n# TYPE bad_seconds histogram\n"+
			"bad_seconds_bucket{le=\"1\"} 5\nbad_seconds_bucket{le=\"2\"} 3\nbad_seconds_bucket{le=\"+Inf\"} 5\n"+
			"bad_seconds_sum 4\nbad_seconds_count 5\n")
	})
	bad := httptest.NewServer(mux)
	t.Cleanup(bad.Close)
	lb, ts := newTestBalancer(t, Options{}, good, &fleetNode{ts: bad})

	text := assertFleetIsMergeOfNodes(t, ts.URL, good)
	if strings.Contains(text, "bad_seconds") {
		t.Fatalf("the invalid scrape was merged into the fleet exposition:\n%s", text)
	}
	if got := lb.m.scrapeErrors[bad.URL].Value(); got != 1 {
		t.Fatalf("scrape errors for the invalid backend = %d, want 1", got)
	}
	if got := lb.m.scrapeErrors[good.ts.URL].Value(); got != 0 {
		t.Fatalf("scrape errors for the valid backend = %d, want 0", got)
	}
}

// hangingBackend is a backend that is up and answers paths in hold only
// when the request is cancelled, signalling each arrival on arrived.
func hangingBackend(t *testing.T, arrived chan<- struct{}, hold ...string) *fleetNode {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "hung"})
	})
	for _, path := range hold {
		mux.HandleFunc("GET "+path, func(w http.ResponseWriter, r *http.Request) {
			if arrived != nil {
				arrived <- struct{}{}
			}
			<-r.Context().Done()
		})
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &fleetNode{ts: ts}
}

// TestMetricsFederationIsConcurrent: the backends are scraped at once,
// under one ScrapeTimeout, so three hung nodes cost the scrape that
// timeout once and not three times. Each is one scrape error, and none
// counts against its health: it was the scrape's timeout that cut it off.
func TestMetricsFederationIsConcurrent(t *testing.T) {
	const timeout = 300 * time.Millisecond
	hung := []*fleetNode{hangingBackend(t, nil, "/metrics"), hangingBackend(t, nil, "/metrics"), hangingBackend(t, nil, "/metrics")}
	lb, ts := newTestBalancer(t, Options{ScrapeTimeout: timeout, FailThreshold: 3}, hung...)

	start := time.Now()
	text := readBody(t, mustGet(t, ts.URL+"/metrics"))
	if took := time.Since(start); took >= 2*timeout {
		t.Fatalf("the fleet scrape took %v with %d hung backends, want under %v", took, len(hung), 2*timeout)
	}
	if errs, stats := obs.Lint(strings.NewReader(text)); len(errs) > 0 || !strings.Contains(text, "dominolb_backends 3\n") {
		t.Fatalf("the exposition is not the balancer's own, lint-clean (%v, %d families):\n%s", errs, stats.Families, text)
	}
	for _, n := range hung {
		if got := lb.m.scrapeErrors[n.ts.URL].Value(); got != 1 {
			t.Errorf("scrape errors for %s = %d, want 1", n.ts.URL, got)
		}
		if st := backendOf(t, lb, n).State(); st != stateUp {
			t.Errorf("%s is %v after a timed-out scrape, want up", n.ts.URL, st)
		}
	}
	if got := lb.m.proxyErrors.Value(); got != 0 {
		t.Errorf("dominolb_proxy_errors_total = %d after timed-out scrapes, want 0", got)
	}
}

// TestScrapeKeepsAnswersBehindAHungNode: the scrape's timeout cuts only
// the read it interrupts. A node listed after a hung one sent its answer
// while the scrape waited, and that answer is merged: the hung node is the
// one scrape error, every time.
func TestScrapeKeepsAnswersBehindAHungNode(t *testing.T) {
	const timeout = 300 * time.Millisecond
	hung, good := hangingBackend(t, nil, "/metrics"), newFleetNode(t, "good")
	lb, ts := newTestBalancer(t, Options{ScrapeTimeout: timeout}, hung, good)

	const scrapes = 5
	for i := 1; i <= scrapes; i++ {
		start := time.Now()
		text := readBody(t, mustGet(t, ts.URL+"/metrics"))
		if took := time.Since(start); took >= 2*timeout {
			t.Fatalf("scrape %d took %v, want under %v", i, took, 2*timeout)
		}
		if !strings.Contains(text, `dominod_node_info{node="good"}`) {
			t.Fatalf("scrape %d lost the node behind the hung one:\n%s", i, text)
		}
		// Each scrape shows its own error on the hung node, not only the
		// ones before it.
		snap, err := obs.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
		if got := scrapeErrors(snap, hung.ts.URL); got != float64(i) {
			t.Fatalf("scrape %d shows %v scrape errors for the hung node, want %d", i, got, i)
		}
	}
	if got := lb.m.scrapeErrors[good.ts.URL].Value(); got != 0 {
		t.Errorf("scrape errors for the good node = %d, want 0", got)
	}
	if got := lb.m.scrapeErrors[hung.ts.URL].Value(); got != scrapes {
		t.Errorf("scrape errors for the hung node = %d, want %d", got, scrapes)
	}
}

// scrapeErrors is the dominolb_backend_scrape_errors_total sample of a
// backend in an exposition, -1 when it has none.
func scrapeErrors(snap obs.Snapshot, backend string) float64 {
	for _, f := range snap.Families {
		if f.Name != "dominolb_backend_scrape_errors_total" {
			continue
		}
		for _, smp := range f.Samples {
			for _, l := range smp.Labels {
				if l.Key == "backend" && l.Value == backend {
					return smp.Value
				}
			}
		}
	}
	return -1
}

// TestClientCancelIsNotABackendFailure: a read whose client hangs up
// before the backend answers fails its request to the backend, and that
// says nothing about the backend. FailThreshold such reads inside one
// probe interval leave it up and routable.
func TestClientCancelIsNotABackendFailure(t *testing.T) {
	arrived := make(chan struct{})
	n := hangingBackend(t, arrived, "/query")
	lb, err := New(Options{Backends: []string{n.ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	routes := lb.Routes()
	handled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routes.ServeHTTP(w, r)
		handled <- struct{}{}
	}))
	t.Cleanup(ts.Close)

	for i := 0; i < lb.opts.FailThreshold; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/query", nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		<-arrived // the balancer's read is at the backend
		cancel()
		if err := <-done; err == nil {
			t.Fatal("a cancelled read got an answer")
		}
		select {
		case <-handled:
		case <-time.After(5 * time.Second):
			t.Fatal("the balancer still serves a read whose client hung up 5 s ago")
		}
	}
	if st := backendOf(t, lb, n).State(); st != stateUp {
		t.Fatalf("the backend is %v after %d reads its clients cancelled, want up", st, lb.opts.FailThreshold)
	}
	if got := lb.m.proxyErrors.Value(); got != 0 {
		t.Fatalf("dominolb_proxy_errors_total = %d after cancelled reads, want 0", got)
	}
	go func() { <-handled }() // the steer below
	if loc := steerTo(t, ts.URL, "after-cancel", ingest.Request{Resumable: true}); !strings.HasPrefix(loc, n.ts.URL+"/ingest") {
		t.Fatalf("POST /ingest steered to %q, want the backend", loc)
	}
}

// TestSessionsMergeIsWriteJSONOfRows: the fleet's /sessions is, byte for
// byte, ingest.WriteJSON of every node's rows stable-sorted by session
// id — live, done and failed sessions, ids that need escaping or are not
// ASCII, one id two nodes hold (in backend order), a node with none —
// and a node whose body is not laid out as a node lays it out is skipped.
func TestSessionsMergeIsWriteJSONOfRows(t *testing.T) {
	a, b, empty := newFleetNode(t, "a"), newFleetNode(t, "b"), newFleetNode(t, "empty")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "compact"})
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		body, _ := json.Marshal([]node.SessionInfo{{Session: "compact", Cell: "fdd", State: ingest.StateDone}})
		w.Write(body)
	})
	compact := httptest.NewServer(mux)
	t.Cleanup(compact.Close)
	_, lb := newTestBalancer(t, Options{}, a, &fleetNode{ts: compact}, b, empty)

	chunks, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 32, 6*sim.Second), 3)
	bad := append(slices.Clone(chunks[1]), "not a record\n"...)
	q := url.QueryEscape
	mustPost(t, a.ts.URL, q("done é✓"), 0, true, sessionJSONL(t, ran.Presets()[1], 33, 2*sim.Second), http.StatusOK)
	mustPost(t, a.ts.URL, q(`live "<q>" & \`), 0, false, chunks[0], http.StatusAccepted)
	mustPost(t, a.ts.URL, "twice", 0, true, sessionJSONL(t, ran.Presets()[0], 34, 2*sim.Second), http.StatusOK)
	mustPost(t, b.ts.URL, q("failed\tтаб"), 0, false, chunks[0], http.StatusAccepted)
	mustPost(t, b.ts.URL, q("failed\tтаб"), seqs[1], false, bad, http.StatusBadRequest)
	mustPost(t, b.ts.URL, "twice", 0, true, sessionJSONL(t, ran.Presets()[2], 35, 3*sim.Second), http.StatusOK)
	mustPost(t, b.ts.URL, "a-first", 0, true, sessionJSONL(t, ran.Presets()[0], 36, 2*sim.Second), http.StatusOK)

	var rows []node.SessionInfo
	for _, n := range []*fleetNode{a, b, empty} {
		var part []node.SessionInfo
		if err := json.Unmarshal([]byte(readBody(t, mustGet(t, n.ts.URL+"/sessions"))), &part); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, part...)
	}
	if len(rows) != 6 {
		t.Fatalf("the nodes hold %d sessions, want 6", len(rows))
	}
	slices.SortStableFunc(rows, func(x, y node.SessionInfo) int { return strings.Compare(x.Session, y.Session) })
	rec := httptest.NewRecorder()
	ingest.WriteJSON(rec, http.StatusOK, rows)
	resp := mustGet(t, lb.URL+"/sessions")
	if got := readBody(t, resp); got != rec.Body.String() || resp.ContentLength != int64(len(got)) {
		t.Fatalf("dominolb's /sessions (Content-Length %d)\n%s\nis not WriteJSON of the nodes' rows\n%s", resp.ContentLength, got, rec.Body)
	}
	for i, want := range []node.SessionInfo{
		{Session: "a-first", State: ingest.StateDone}, {Session: "done é✓", State: ingest.StateDone},
		{Session: "failed\tтаб", State: ingest.StateFailed}, {Session: `live "<q>" & \`, State: ingest.StateActive},
		{Session: "twice", State: ingest.StateDone}, {Session: "twice", State: ingest.StateDone},
	} {
		if rows[i].Session != want.Session || rows[i].State != want.State {
			t.Fatalf("row %d is %q %s, want %q %s", i, rows[i].Session, rows[i].State, want.Session, want.State)
		}
	}
	if rows[4].Records == rows[5].Records {
		t.Fatal("the two nodes' rows for one id cannot be told apart")
	}
}

func TestHealthzAggregation(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)

	body := readBody(t, mustGet(t, ts.URL+"/healthz"))
	if !strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, `"node": "a"`) {
		t.Fatalf("healthz: %s", body)
	}

	a.node.Drain()
	lb.probeAll()
	resp := mustGet(t, ts.URL+"/healthz")
	if body := readBody(t, resp); !strings.Contains(body, `"status": "degraded"`) || !strings.Contains(body, `"draining"`) {
		t.Fatalf("healthz with draining backend: %s", body)
	}

	b.kill()
	backendOf(t, lb, b).noteFailure(1)
	resp = mustGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no up backends: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestReportRoutesToOwner(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	_, ts := newTestBalancer(t, Options{}, a, b)
	const id = "report-sess"
	payload := sessionJSONL(t, ran.Presets()[0], 26, 2*sim.Second)
	direct := mustPost(t, ts.URL, id, 0, true, payload, http.StatusOK)
	if viaLB := fetchReport(t, ts.URL, id); !bytes.Equal(direct, viaLB) {
		t.Fatalf("report via balancer differs:\ningest: %s\nreport: %s", direct, viaLB)
	}
	resp := mustGet(t, ts.URL+"/report/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown report: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestOneAnswerPerFinishedSession: a finished session has one answer. A
// done session's completion 200, a later /report, the 200 that answers a
// resent final chunk, and its /sessions row say the same thing byte for
// byte; so do a failed session's /report, asked twice, and its row (a
// failed session has no completion, and a resent chunk past its record 0
// is a seq gap, not a report). Each report comes sized, not chunked, and
// through dominolb — which steers a chunk or a report read to the node
// and relays /sessions — the client gets what a node answers direct.
func TestOneAnswerPerFinishedSession(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	_, lb := newTestBalancer(t, Options{}, b)
	chunks, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 31, 8*sim.Second), 3)
	last := len(chunks) - 1
	bad := append(slices.Clone(chunks[1]), "not a record\n"...)
	answers := map[string][][]byte{}
	for tier, base := range map[string]string{"node": a.ts.URL, "dominolb": lb.URL} {
		sized := func(what string, resp *http.Response) []byte {
			t.Helper()
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
				t.Fatalf("%s %s: status %d, Content-Length %d, Transfer-Encoding %v for %d bytes: %s",
					tier, what, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body), body)
			}
			return []byte(body)
		}
		// rowIs requires the session's /sessions row to be the report's
		// summary as a []node.SessionInfo element is written.
		rowIs := func(id string, report []byte) {
			t.Helper()
			var rows []json.RawMessage
			if err := json.Unmarshal([]byte(readBody(t, mustGet(t, base+"/sessions"))), &rows); err != nil {
				t.Fatal(err)
			}
			var p node.ReportPayload
			if err := json.Unmarshal(report, &p); err != nil {
				t.Fatal(err)
			}
			want, _ := json.MarshalIndent(p.SessionInfo, "  ", "  ")
			for _, row := range rows {
				if bytes.Contains(row, []byte(`"session": "`+id+`"`)) {
					if !bytes.Equal(row, want) {
						t.Fatalf("%s %s: /sessions row\n%s\nis not the report's summary\n%s", tier, id, row, want)
					}
					return
				}
			}
			t.Fatalf("%s: /sessions has no row for %s", tier, id)
		}

		for i := 0; i < last; i++ {
			mustPost(t, base, "done", seqs[i], false, chunks[i], http.StatusAccepted)
		}
		final := func() *http.Response {
			return postChunk(t, base, "done", ingest.ContentTypeJSONL, seqs[last], true, bytes.NewReader(chunks[last]))
		}
		done := sized("completion", final())
		if later := sized("later /report", mustGet(t, base+"/report/done")); !bytes.Equal(later, done) {
			t.Fatalf("%s: later /report\n%s\ndiffers from the completion\n%s", tier, later, done)
		}
		if replay := sized("replayed final chunk", final()); !bytes.Equal(replay, done) {
			t.Fatalf("%s: replayed final chunk\n%s\ndiffers from the completion\n%s", tier, replay, done)
		}
		rowIs("done", done)

		mustPost(t, base, "failed", 0, false, chunks[0], http.StatusAccepted)
		mustPost(t, base, "failed", seqs[1], false, bad, http.StatusBadRequest)
		failed := sized("failed /report", mustGet(t, base+"/report/failed"))
		if again := sized("failed /report again", mustGet(t, base+"/report/failed")); !bytes.Equal(again, failed) {
			t.Fatalf("%s: a failed session's report changed:\n%s\nthen\n%s", tier, failed, again)
		}
		if !bytes.Contains(failed, []byte(`"state": "failed"`)) || bytes.Contains(failed, []byte(`"records": 0,`)) {
			t.Fatalf("%s: the failed session's report keeps no partial analysis: %s", tier, failed)
		}
		rowIs("failed", failed)
		answers[tier] = [][]byte{done, failed}
	}
	for i, what := range []string{"done", "failed"} {
		if !bytes.Equal(answers["node"][i], answers["dominolb"][i]) {
			t.Fatalf("%s: dominolb answered\n%s\na node direct\n%s", what, answers["dominolb"][i], answers["node"][i])
		}
	}
}

// TestReadsDuringOpenChunk: with one chunked upload held open at the
// owner the balancer steered it to, after the node has taken part of it,
// the session's report, its watermark and /lb/sessions still answer at
// once through the balancer. That is the node's live use — keep one POST
// open, poll /report/{id} — and it needs the balancer to hold no lock of
// the session while a chunk of it is open.
func TestReadsDuringOpenChunk(t *testing.T) {
	n := newFleetNode(t, "a")
	_, ts := newTestBalancer(t, Options{}, n)
	const id = "open-chunk"
	payload := sessionJSONL(t, ran.Presets()[0], 31, 10*sim.Second)
	half := bytes.LastIndexByte(payload[:len(payload)/2], '\n') + 1
	proto := ingest.Request{Resumable: true, Eos: true}
	owner := steerTo(t, ts.URL, id, proto)

	pr, pw := io.Pipe()
	// Cleanups run last-registered first: the upload ends before the
	// servers close, whatever fails.
	t.Cleanup(func() { pw.CloseWithError(io.ErrUnexpectedEOF) })
	posted := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, owner, pr)
		req.Header.Set("Content-Type", ingest.ContentTypeJSONL)
		proto.SetHeaders(req.Header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			pr.CloseWithError(err)
			resp = nil
		}
		posted <- resp
	}()
	if _, err := pw.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if wm, ok := n.watermark(t, id); ok && wm.Accepted > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the node took none of the open chunk")
		}
	}

	reader := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/report/" + id, "/sessions/" + id + "/watermark", "/lb/sessions"} {
		resp, err := reader.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while a chunk is open: %v", path, err)
		}
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while a chunk is open: %d %s", path, resp.StatusCode, body)
		}
	}

	if _, err := pw.Write(payload[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	resp := <-posted
	if resp == nil {
		t.Fatal("the upload failed")
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
}

// TestSessionsActiveGaugeMatchesTableWalk pins the counted gauge to
// what it replaced: a walk of the session table counting entries that
// are not done — through admissions, completions from several clients
// at once, and a completion that is replayed.
func TestSessionsActiveGaugeMatchesTableWalk(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	check := func(when string, want int) {
		t.Helper()
		walk := 0
		for _, s := range lb.sessions.List() {
			s.mu.Lock()
			if !s.done {
				walk++
			}
			s.mu.Unlock()
		}
		text := readBody(t, mustGet(t, ts.URL+"/metrics"))
		if line := fmt.Sprintf("dominolb_sessions_active %d\n", walk); walk != want || !strings.Contains(text, line) {
			t.Fatalf("%s: table walk counts %d active (want %d), exposition lacks %q", when, walk, want, line)
		}
	}
	check("empty table", 0)

	chunks, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 27, 2*sim.Second), 2)
	// post is postChunk for goroutines other than the test's: it reports
	// with t.Error.
	post := func(id string, seq int, eos bool, body []byte) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest?session="+id, bytes.NewReader(body))
		req.Header.Set("Content-Type", ingest.ContentTypeJSONL)
		ingest.Request{Seq: seq, Resumable: true, Eos: eos}.SetHeaders(req.Header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		if resp.StatusCode/100 != 2 {
			t.Errorf("session %s chunk at %d: status %d", id, seq, resp.StatusCode)
		}
		drainClose(resp)
	}
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := "g-" + strconv.Itoa(i)
			post(id, seqs[0], false, chunks[0])
			if i%3 != 0 { // every third session is left open
				post(id, seqs[1], true, chunks[1])
			}
		}(i)
	}
	wg.Wait()
	check("after concurrent uploads", n/3)

	// A client that lost its 200 resends the final chunk: done stays
	// done and is not counted down twice.
	mustPost(t, ts.URL, "g-1", seqs[1], true, chunks[1], http.StatusOK)
	check("after a replayed completion", n/3)
}

// TestRoutingTableRetainsBoundedDone reaches the table's bound: with
// room for four entries — the live session and three done ones — each
// admission past it drops the session that finished earliest, whether
// its node completed it or failed it, while a live session — one that
// already failed over — keeps its entry and its place in the active
// gauge however many finish around it. A dropped session is merely
// unknown to the balancer again: its watermark and report still come
// from the fleet.
func TestRoutingTableRetainsBoundedDone(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	lb.sessions = ingest.NewTable[*lbSession](mintFormat, 4)

	payload := sessionJSONL(t, ran.Presets()[0], 29, 3*sim.Second)
	chunks, seqs := splitLines(payload, 3)
	mustPost(t, ts.URL, "live", seqs[0], false, chunks[0], http.StatusAccepted)
	owner, _ := ownerAndOther(lb, "live", a, b)
	owner.kill()
	if resp, err := tryChunk(ts.URL, "live", ingest.ContentTypeJSONL, seqs[1], false, bytes.NewReader(chunks[1])); err == nil {
		drainClose(resp)
		t.Fatalf("chunk at the dead owner: %d, want a transport error", resp.StatusCode)
	}
	drainClose(mustGet(t, ts.URL+"/sessions/live/watermark"))                             // 502: feeds health
	mustPost(t, ts.URL, "live", seqs[1], false, chunks[1], http.StatusPreconditionFailed) // re-pinned: a gap on the fresh node

	const finished, failed = 7, 5 // d-5 fails: it counts against the bound like the rest
	for i := 0; i < finished; i++ {
		if i == failed {
			mustPost(t, ts.URL, "d-"+strconv.Itoa(i), 0, true, []byte("not a record\n"), http.StatusBadRequest)
			continue
		}
		mustPost(t, ts.URL, "d-"+strconv.Itoa(i), 0, true, payload, http.StatusOK)
	}

	table := lbSessions(t, ts.URL)
	var got []string
	for _, e := range table {
		got = append(got, e.Session)
	}
	if want := []string{"live", "d-4", "d-5", "d-6"}; !slices.Equal(got, want) {
		t.Fatalf("/lb/sessions lists %v, want %v: the live session and the last three done, in admission order", got, want)
	}
	if e := table[0]; e.Done || e.Failovers != 1 {
		t.Fatalf("live session after the reaping: %+v, want live after one failover", e)
	}
	if e := table[2]; !e.Done {
		t.Fatalf("failed session after the reaping: %+v, want done", e)
	}
	text := readBody(t, mustGet(t, ts.URL+"/metrics"))
	for _, line := range []string{"dominolb_sessions_active 1\n", fmt.Sprintf("dominolb_sessions_total %d\n", finished+1)} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition lacks %q", line)
		}
	}

	// The dropped session is the fleet's to answer for; the live one
	// finishes as if nothing had been reaped.
	var wm ingest.Watermark
	if err := json.Unmarshal([]byte(readBody(t, mustGet(t, ts.URL+"/sessions/d-0/watermark"))), &wm); err != nil || wm.State != ingest.StateDone {
		t.Fatalf("watermark of a dropped session: %+v, %v", wm, err)
	}
	if want := cleanReport(t, "d-0", payload); !bytes.Equal(fetchReport(t, ts.URL, "d-0"), want) {
		t.Fatal("report of a dropped session diverged from clean ingest")
	}
	resend(t, ts.URL, "live", ingest.ContentTypeJSONL, payload)
	report := fetchReport(t, ts.URL, "live")
	if want := cleanReport(t, "live", payload); !bytes.Equal(report, want) {
		t.Fatalf("failed-over report diverged from clean ingest\nclean: %s\nfleet: %s", want, report)
	}
	if _, total := lb.sessions.Len(); lb.lookup("d-4") == nil || lb.lookup("live") == nil || total != 4 {
		t.Fatalf("table holds %d entries after the live session finished, want live, d-4, d-5 and d-6", total)
	}
	// Finishing evicts nothing; the next admission drops d-4, the
	// session that finished earliest.
	mustPost(t, ts.URL, "d-7", 0, true, payload, http.StatusOK)
	if _, total := lb.sessions.Len(); lb.lookup("d-4") != nil || lb.lookup("live") == nil || total != 4 {
		t.Fatalf("table holds %d entries after one more admission, want live, d-5, d-6 and d-7", total)
	}
}

// TestFailedEntryRevives: a fresh upload under the ID of a session that
// failed at its node is steered to the same pin, where the node replaces
// the failed session with a live one. The balancer, which never marks an
// entry failed, keeps its one entry — done, since it steered the one-shot
// upload that ended the failed session — and counts no second admission.
func TestFailedEntryRevives(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	mustPost(t, ts.URL, "x", -1, true, []byte("not a record\n"), http.StatusBadRequest)
	pin := lb.lookup("x").backend
	chunks, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 31, 2*sim.Second), 2)
	mustPost(t, ts.URL, "x", seqs[0], false, chunks[0], http.StatusAccepted)

	owner, _ := ownerAndOther(lb, "x", a, b)
	if wm, ok := owner.watermark(t, "x"); !ok || wm.State != ingest.StateActive || wm.Accepted != seqs[1] || lb.lookup("x").backend != pin {
		t.Fatalf("revived session at its pin: %+v (held %v), want active with %d accepted on the same pin", wm, ok, seqs[1])
	}
	if table := lbSessions(t, ts.URL); len(table) != 1 || table[0].Session != "x" || !table[0].Done {
		t.Fatalf("/lb/sessions lists %+v, want x done", table)
	}
	text := readBody(t, mustGet(t, ts.URL+"/metrics"))
	for _, line := range []string{"dominolb_sessions_active 0\n", "dominolb_sessions_total 1\n"} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition lacks %q", line)
		}
	}
}

// TestMintedSessionIDSkipsClientIDs: an anonymous upload's minted ID
// never names a session a client already posted under its own name.
func TestMintedSessionIDSkipsClientIDs(t *testing.T) {
	a := newFleetNode(t, "a")
	lb, ts := newTestBalancer(t, Options{}, a)
	payload := sessionJSONL(t, ran.Presets()[0], 30, 2*sim.Second)
	mustPost(t, ts.URL, "lb-1", -1, true, payload, http.StatusOK)
	resp, err := http.Post(ts.URL+"/ingest", ingest.ContentTypeJSONL, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"session": "lb-2"`) {
		t.Fatalf("anonymous upload beside the client's done lb-1: %d %s, want 200 as lb-2", resp.StatusCode, body)
	}
	if lb.lookup("lb-1") == nil || lb.lookup("lb-2") == nil {
		t.Fatal("routing table lacks lb-1 or lb-2")
	}
}

// TestForwardsReuseBackendConnections pins the balancer's own transport:
// eight reads it forwards at once — watermark probes relayed to the
// backend — open at most eight connections to it, and a second such wave
// opens none; http.DefaultTransport, which keeps two idle connections per
// host, dialed six again.
func TestForwardsReuseBackendConnections(t *testing.T) {
	const forwards = 8
	var (
		opened  atomic.Int64
		arrived sync.WaitGroup
		release chan struct{}
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok","node":"stub"}`)
	})
	mux.HandleFunc("GET /sessions/{id}/watermark", func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release // until the whole wave is in flight
		fmt.Fprintf(w, `{"session":%q,"accepted":1,"state":"active"}`, r.PathValue("id"))
	})
	backend := httptest.NewUnstartedServer(mux)
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()
	lb, err := New(Options{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	front := httptest.NewServer(lb.Routes())
	defer front.Close()

	wave := func(n int) {
		arrived.Add(forwards)
		release = make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < forwards; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				resp, err := http.Get(front.URL + "/sessions/" + id + "/watermark")
				if err != nil {
					t.Error(err)
					return
				}
				drainClose(resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("session %s: status %d", id, resp.StatusCode)
				}
			}(fmt.Sprintf("wave%d-%d", n, i))
		}
		arrived.Wait()
		close(release)
		wg.Wait()
	}
	wave(1)
	first := opened.Load()
	if first > forwards+1 { // the start-up probe's connection may still count
		t.Fatalf("first wave: %d connections opened for %d forwards", first, forwards)
	}
	wave(2)
	if again := opened.Load() - first; again != 0 {
		t.Fatalf("second wave opened %d connections; the first left %d idle", again, forwards)
	}
}
