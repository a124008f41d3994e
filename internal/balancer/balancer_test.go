package balancer

// Routing tests against real in-process dominod nodes (internal/node):
// pinning, failover by client resend, drain, the typed
// draining rejection, and the read surface. The long fleet differentials
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
// headers. seq < 0 omits them (the legacy one-shot contract).
func postChunk(t testing.TB, base, id, contentType string, seq int, eos bool, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?session="+id, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if seq >= 0 {
		ingest.Request{Seq: seq, Resumable: true, Eos: eos}.SetHeaders(req.Header)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
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

// TestDrainingCodeRepinsOtherCodesDoNot pins how the balancer reads a
// node's 503: only the typed draining rejection marks the backend
// draining (so the client's retry re-pins); any other 503 — here a busy
// session whose text even contains the word "draining" — leaves the
// backend up and the pin where it was.
func TestDrainingCodeRepinsOtherCodesDoNot(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b) // no prober: only the data path can notice

	const id = "not-draining"
	payload := sessionJSONL(t, ran.Presets()[0], 24, 3*sim.Second)
	chunks, seqs := splitLines(payload, 3)
	mustPost(t, ts.URL, id, seqs[0], false, chunks[0], http.StatusAccepted)
	owner, other := ownerAndOther(lb, id, a, b)

	// An upload sent to the node directly, all but the last line of its
	// body written and the body held open, owns the session there once
	// its first block lands: the node answers the balancer's chunk, when
	// its hand-over wait runs out, with 503 busy, naming the session.
	pr, pw := io.Pipe()
	held := make(chan *http.Response, 1)
	go func() { held <- postChunk(t, owner.ts.URL, id, ingest.ContentTypeJSONL, seqs[1], false, pr) }()
	last := bytes.LastIndexByte(chunks[1][:len(chunks[1])-1], '\n') + 1
	go pw.Write(chunks[1][:last])
	for wm, _ := owner.watermark(t, id); wm.Accepted == seqs[1]; wm, _ = owner.watermark(t, id) {
		time.Sleep(time.Millisecond)
	}
	busy := mustPost(t, ts.URL, id, seqs[1], false, chunks[1], http.StatusServiceUnavailable)
	if ingest.ErrorCode(busy) != ingest.CodeBusy || !strings.Contains(string(busy), "draining") {
		t.Fatalf("chunk behind the held upload answered %s, want code busy naming the session", busy)
	}
	pw.Write(chunks[1][last:])
	pw.Close()
	resp := <-held
	drainClose(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("held chunk: %d", resp.StatusCode)
	}
	if st := backendOf(t, lb, owner).State(); st != stateUp {
		t.Fatalf("a non-draining 503 moved the backend to %v", st)
	}
	mustPost(t, ts.URL, id, seqs[1], false, chunks[1], http.StatusAccepted)
	if lb.lookup(id).backend.url != owner.ts.URL || lb.m.failovers.Value() != 0 {
		t.Fatal("session re-pinned after a non-draining 503")
	}

	// The node's typed draining rejection passes through and marks the
	// backend; the retry re-pins, and the client resends from 0.
	owner.node.Drain()
	rejected := mustPost(t, ts.URL, id, seqs[2], true, chunks[2], http.StatusServiceUnavailable)
	if ingest.ErrorCode(rejected) != ingest.CodeDraining {
		t.Fatalf("drain rejection answered %s, want code draining", rejected)
	}
	if st := backendOf(t, lb, owner).State(); st != stateDraining {
		t.Fatalf("backend state after a draining rejection = %v, want draining", st)
	}
	mustPost(t, ts.URL, id, seqs[2], true, chunks[2], http.StatusPreconditionFailed)
	if lb.lookup(id).backend.url != other.ts.URL {
		t.Fatal("session still pinned to the draining node")
	}
	resend(t, ts.URL, id, ingest.ContentTypeJSONL, payload)
	report := fetchReport(t, other.ts.URL, id)
	if want := cleanReport(t, id, payload); !bytes.Equal(report, want) {
		t.Fatalf("re-pinned report diverged from clean ingest\nclean: %s\nfleet: %s", want, report)
	}
}

// TestMalformedChunkPassesThrough pins a chunk whose bytes arrive whole
// but do not decode, through dominolb: the node's 400 malformed reaches
// the client, which does not retry it, the backend stays up, and the
// routing entry is retired — done, out of the active gauge. A one-shot
// body torn on its way in is the balancer's own final 400 and retires
// its entry too; a resumable one is a 503 interrupted, as the node would
// answer it, and its entry stays live.
func TestMalformedChunkPassesThrough(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	payload := sessionJSONL(t, ran.Presets()[0], 26, 3*sim.Second)
	set, err := trace.ReadJSONL(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, set); err != nil {
		t.Fatal(err)
	}
	garbled := bin.Bytes()
	copy(garbled[len(garbled)/2:], bytes.Repeat([]byte{0x01}, 16))
	bad := append(bytes.Join(bytes.SplitAfter(payload, []byte("\n"))[:40], nil), "not a record\n"...)

	if body := mustPost(t, ts.URL, "direct", 0, true, bad, http.StatusBadRequest); ingest.ErrorCode(body) != ingest.CodeMalformed {
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
	resp := postTorn(t, ts.URL, "torn-oneshot", ingest.Request{Eos: true}, ingest.ContentTypeJSONL, bad)
	if body := readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn one-shot body through the balancer: %d %s, want 400", resp.StatusCode, body)
	}
	activeIs := func(when string, want int) {
		t.Helper()
		if line := fmt.Sprintf("dominolb_sessions_active %d\n", want); !strings.Contains(readBody(t, mustGet(t, ts.URL+"/metrics")), line) {
			t.Fatalf("%s: exposition lacks %q", when, line)
		}
	}
	done := func(id string) bool {
		s := lb.lookup(id)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.done
	}
	for _, id := range []string{"direct", "jsonl", "binary", "torn-oneshot"} {
		if !done(id) {
			t.Fatalf("%s: a failed session's routing entry is still live", id)
		}
	}
	activeIs("after the failed sessions", 0)

	resp = postTorn(t, ts.URL, "torn", ingest.Request{Resumable: true}, ingest.ContentTypeJSONL, bad)
	if body := readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable || ingest.ErrorCode([]byte(body)) != ingest.CodeInterrupted {
		t.Fatalf("torn chunk through the balancer: %d %s, want 503 interrupted", resp.StatusCode, body)
	}
	if done("torn") {
		t.Fatal("a suspended session's routing entry was retired")
	}
	activeIs("after the suspended session", 1)
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
// admission past it drops the session that finished earliest, complete
// or failed, while a live session — one that already failed over —
// keeps its entry and its place in the active gauge however many
// finish around it. A dropped session is merely unknown to the balancer
// again: its watermark and report still come from the fleet.
func TestRoutingTableRetainsBoundedDone(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	lb.sessions = ingest.NewTable(mintFormat, 4, func(*lbSession) {})

	payload := sessionJSONL(t, ran.Presets()[0], 29, 3*sim.Second)
	chunks, seqs := splitLines(payload, 3)
	mustPost(t, ts.URL, "live", seqs[0], false, chunks[0], http.StatusAccepted)
	owner, _ := ownerAndOther(lb, "live", a, b)
	owner.kill()
	drainClose(postChunk(t, ts.URL, "live", ingest.ContentTypeJSONL, seqs[1], false, bytes.NewReader(chunks[1]))) // 503: feeds health
	mustPost(t, ts.URL, "live", seqs[1], false, chunks[1], http.StatusPreconditionFailed)                         // re-pinned: a gap on the fresh node

	const finished, failed = 7, 5 // d-5 fails: it counts against the bound like the rest
	for i := 0; i < finished; i++ {
		if i == failed {
			mustPost(t, ts.URL, "d-"+strconv.Itoa(i), 0, true, []byte("not a record\n"), http.StatusBadRequest)
			continue
		}
		mustPost(t, ts.URL, "d-"+strconv.Itoa(i), 0, true, payload, http.StatusOK)
	}

	var table []struct {
		Session   string `json:"session"`
		Done      bool   `json:"done"`
		Failovers int    `json:"failovers"`
	}
	if err := json.Unmarshal([]byte(readBody(t, mustGet(t, ts.URL+"/lb/sessions"))), &table); err != nil {
		t.Fatal(err)
	}
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
// failed replaces its routing entry, as the node replaces the failed
// session — the revived entry is live, listed as not done and counted
// in the active gauge, and the admission counts as a new session.
func TestFailedEntryRevives(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	_, ts := newTestBalancer(t, Options{}, a, b)
	mustPost(t, ts.URL, "x", -1, true, []byte("not a record\n"), http.StatusBadRequest)
	chunks, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 31, 2*sim.Second), 2)
	mustPost(t, ts.URL, "x", seqs[0], false, chunks[0], http.StatusAccepted)

	var table []struct {
		Session string `json:"session"`
		Done    bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(readBody(t, mustGet(t, ts.URL+"/lb/sessions"))), &table); err != nil {
		t.Fatal(err)
	}
	if len(table) != 1 || table[0].Session != "x" || table[0].Done {
		t.Fatalf("/lb/sessions lists %+v, want x live", table)
	}
	text := readBody(t, mustGet(t, ts.URL+"/metrics"))
	for _, line := range []string{"dominolb_sessions_active 1\n", "dominolb_sessions_total 2\n"} {
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
// eight forwards in flight at once open at most eight connections to the
// backend, and a second such wave opens none — http.DefaultTransport,
// which keeps two idle connections per host, dialed six again.
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
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		arrived.Done()
		<-release // until the whole wave is in flight
		io.WriteString(w, "{}")
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
				resp, err := http.Post(front.URL+"/ingest?session="+id, ingest.ContentTypeJSONL, strings.NewReader("{}\n"))
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
