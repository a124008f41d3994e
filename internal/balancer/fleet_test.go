package balancer

// Fleet-tier acceptance: real dominod nodes (internal/node) behind the
// balancer. The fleet chaos differential is the headline — N nodes, all
// scenarios in both wire formats, seeded backend kills mid-stream —
// and every session's final report must be byte-identical to clean
// single-node ingest. The drain test pins the SIGTERM semantics end to
// end, the federation test pins /metrics = Merge(per-node scrapes), and
// the read differential pins the merged query surface to one store.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// ownerOf finds which live node holds a session by probing the nodes
// directly (not through the balancer — its routing table is busy while
// a chunk is in flight).
func ownerOf(t *testing.T, nodes []*fleetNode, id string, deadline time.Duration) *fleetNode {
	t.Helper()
	n := findOwner(nodes, id, deadline)
	if n == nil {
		t.Fatalf("no node owns session %s", id)
	}
	return n
}

// findOwner is ownerOf for a goroutine, which cannot end the test: nil
// when no node answers the session's watermark within deadline.
func findOwner(nodes []*fleetNode, id string, deadline time.Duration) *fleetNode {
	for stop := time.Now().Add(deadline); time.Now().Before(stop); time.Sleep(2 * time.Millisecond) {
		for _, n := range nodes {
			resp, err := http.Get(n.ts.URL + "/sessions/" + id + "/watermark")
			if err != nil {
				continue
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n
			}
		}
	}
	return nil
}

// gatedReader yields head, then blocks until gate closes, then yields
// tail — it holds an upload mid-body while the test kills the backend
// under it.
type gatedReader struct {
	head, tail *bytes.Reader
	gate       <-chan struct{}
	gated      bool
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.head.Len() > 0 {
		return g.head.Read(p)
	}
	if !g.gated {
		<-g.gate
		g.gated = true
	}
	return g.tail.Read(p)
}

// TestFleetChaosDifferential is the acceptance test for the fleet
// tier: 4 dominod nodes behind the balancer, every scenario in both
// wire formats, two seeded mid-stream backend kills (one at a chunk
// boundary, one mid-body, both recovered by the client's resend after
// the balancer, told by the client's watermark probe, re-pins), and at
// the end every one of the 28 reports fetched through the balancer must
// equal the clean single-node report byte for byte.
func TestFleetChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos differential is the long acceptance test")
	}
	names := scenario.Names()
	if len(names) != 14 {
		t.Fatalf("scenario catalog has %d entries, the fleet matrix expects 14", len(names))
	}

	clean := newFleetNode(t, "clean")
	nodes := make([]*fleetNode, 4)
	var backends []string
	for i := range nodes {
		nodes[i] = newFleetNode(t, fmt.Sprintf("n%d", i))
		backends = append(backends, nodes[i].ts.URL)
	}
	lb, err := New(Options{
		Backends: backends,
		// Deterministic failure detection: the prober stays quiet (the
		// initial round marked everyone up) and the first relayed
		// request that fails marks a node down.
		HealthInterval: time.Hour,
		FailThreshold:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()

	// Seeded kill schedule: one JSONL session dies at a chunk boundary,
	// one binary session dies mid-body; the client's resend recovers
	// both.
	rng := rand.New(rand.NewSource(4242))
	killBoundaryAt := rng.Intn(len(names))
	killMidBodyAt := rng.Intn(len(names))
	for killMidBodyAt == killBoundaryAt {
		killMidBodyAt = rng.Intn(len(names))
	}
	killed := 0

	type fleetFormat struct {
		name        string
		contentType string
		encode      func(*trace.Set) ([]byte, error)
	}
	formats := []fleetFormat{
		{"jsonl", ingest.ContentTypeJSONL, func(set *trace.Set) ([]byte, error) {
			var buf bytes.Buffer
			err := trace.WriteJSONL(&buf, set)
			return buf.Bytes(), err
		}},
		{"binary", ingest.ContentTypeBinary, func(set *trace.Set) ([]byte, error) {
			var buf bytes.Buffer
			err := trace.WriteBinary(&buf, set)
			return buf.Bytes(), err
		}},
	}

	alive := func() []*fleetNode {
		out := []*fleetNode{}
		for i, n := range nodes {
			_ = i
			if n != nil {
				out = append(out, n)
			}
		}
		return out
	}
	markDead := func(victim *fleetNode) {
		for i, n := range nodes {
			if n == victim {
				nodes[i] = nil
			}
		}
	}

	payloads := map[string][]byte{}
	types := map[string]string{}
	uploader := func(seed int64) *ingest.Client {
		return ingest.New(ingest.Options{
			BaseURL: lbTS.URL, Retries: 6,
			Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
			Seed: seed, Sleep: func(time.Duration) {},
		})
	}

	for i, name := range names {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sc.Build(uint64(31 + i))
		if err != nil {
			t.Fatal(err)
		}
		set := sess.Run(8 * sim.Second)
		for fi, f := range formats {
			payload, err := f.encode(set)
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%s-%s", name, f.name)
			payloads[id], types[id] = payload, f.contentType

			if _, err := ingest.New(ingest.Options{BaseURL: clean.ts.URL}).
				Upload(context.Background(), id, f.contentType, payload); err != nil {
				t.Fatalf("%s: clean ingest: %v", id, err)
			}

			switch {
			case i == killBoundaryAt && f.name == "jsonl":
				// Stream in chunks; kill the owner between chunks. The
				// balancer re-pins the session to a survivor, which has
				// never seen it, and the client resends it from there.
				chunks, seqs := splitLines(payload, 3)
				resp := postChunk(t, lbTS.URL, id, f.contentType, seqs[0], false, bytes.NewReader(chunks[0]))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("%s chunk 0: %d", id, resp.StatusCode)
				}
				drainClose(resp)
				victim := ownerOf(t, alive(), id, 2*time.Second)
				victim.kill()
				markDead(victim)
				killed++
				// The first post-kill chunk is steered to the dead owner
				// and fails at the client's transport; the client's
				// watermark probe through the balancer finds the node
				// gone (a 502, and the node down); the retry re-pins and
				// is a seq gap on the survivor; the client resends the
				// session from 0.
				if resp, err := tryChunk(lbTS.URL, id, f.contentType, seqs[1], false, bytes.NewReader(chunks[1])); err == nil {
					drainClose(resp)
					t.Fatalf("%s chunk against killed node: %d, want a transport error", id, resp.StatusCode)
				}
				resp = mustGet(t, lbTS.URL+"/sessions/"+id+"/watermark")
				if resp.StatusCode != http.StatusBadGateway {
					t.Fatalf("%s watermark probe after the failed chunk: %d, want 502", id, resp.StatusCode)
				}
				drainClose(resp)
				resp = postChunk(t, lbTS.URL, id, f.contentType, seqs[1], false, bytes.NewReader(chunks[1]))
				if resp.StatusCode != http.StatusPreconditionFailed {
					t.Fatalf("%s chunk on the fresh pin: %d, want 412", id, resp.StatusCode)
				}
				drainClose(resp)
				if stats, err := uploader(int64(1000*i+fi)).Upload(context.Background(), id, f.contentType, payload); err != nil {
					t.Fatalf("%s: resend after kill: %v (stats %+v)", id, err, stats)
				}

			case i == killMidBodyAt && f.name == "binary":
				// Kill the owner while the very first request is
				// mid-body at it: nothing was ever acknowledged, so
				// recovery must come from the client resending after its
				// transport failed. The request goes where the balancer
				// steers it.
				owner := steerTo(t, lbTS.URL, id, ingest.Request{Resumable: true, Eos: true})
				gate := make(chan struct{})
				body := &gatedReader{
					head: bytes.NewReader(payload[:len(payload)/2]),
					tail: bytes.NewReader(payload[len(payload)/2:]),
					gate: gate,
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer close(gate)
					victim := findOwner(alive(), id, 2*time.Second)
					if victim == nil {
						t.Errorf("no node owns session %s", id)
						return
					}
					victim.kill()
					markDead(victim)
					killed++
				}()
				req, err := http.NewRequest(http.MethodPost, owner, body)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", f.contentType)
				req.Header.Set(ingest.HeaderSeq, "0")
				req.Header.Set(ingest.HeaderEos, "1")
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					if resp.StatusCode == http.StatusOK {
						t.Fatalf("%s: upload survived a mid-body backend kill?", id)
					}
					drainClose(resp)
				}
				wg.Wait()
				if stats, err := uploader(int64(1000*i+fi)).Upload(context.Background(), id, f.contentType, payload); err != nil {
					t.Fatalf("%s: resend after kill: %v (stats %+v)", id, err, stats)
				}

			default:
				if stats, err := uploader(int64(1000*i+fi)).Upload(context.Background(), id, f.contentType, payload); err != nil {
					t.Fatalf("%s: fleet ingest: %v (stats %+v)", id, err, stats)
				}
			}
		}
	}
	if killed != 2 {
		t.Fatalf("killed %d nodes, want 2", killed)
	}

	// Sessions that completed on a node killed later are gone with it;
	// the recovery contract is client redelivery through the balancer,
	// which re-pins and re-analyzes. After that, every report must
	// exist and match clean single-node analysis byte for byte.
	redelivered := 0
	for id, payload := range payloads {
		resp, err := http.Get(lbTS.URL + "/report/" + id)
		if err != nil {
			t.Fatalf("report %s: %v", id, err)
		}
		lost := resp.StatusCode != http.StatusOK
		drainClose(resp)
		if lost {
			if _, err := uploader(7).Upload(context.Background(), id, types[id], payload); err != nil {
				t.Fatalf("%s: redelivery: %v", id, err)
			}
			redelivered++
		}
		want := fetchReport(t, clean.ts.URL, id)
		got := fetchReport(t, lbTS.URL, id)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: fleet report diverged from clean single-node ingest\nclean: %s\nfleet: %s", id, want, got)
		}
	}
	t.Logf("fleet chaos: 2 nodes killed, %d sessions redelivered, %d reports byte-identical", redelivered, len(payloads))

	// The fleet exposition stays lint-clean with half the fleet dead,
	// and records the failovers.
	resp, err := http.Get(lbTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if errs, _ := obs.Lint(bytes.NewReader(text)); len(errs) > 0 {
		t.Fatalf("fleet exposition with dead nodes fails lint: %v", errs)
	}
	if !regexpMatch(string(text), `dominolb_failovers_total [1-9]`) {
		t.Fatalf("no failovers recorded:\n%s", text)
	}
}

// regexpMatch is a tiny helper so the assertion above reads clearly.
func regexpMatch(text, expr string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, strings.Split(expr, " ")[0]) {
			var v float64
			if _, err := fmt.Sscanf(line, strings.Split(expr, " ")[0]+" %f", &v); err == nil && v >= 1 {
				return true
			}
		}
	}
	return false
}

// TestFleetDrainSemantics pins drain end to end with real dominods:
// when a backend starts draining (what SIGTERM flips), the balancer
// stops routing new sessions to it while the in-flight session
// completes — via failover, because a draining dominod rejects every
// ingest POST — and its report lands, byte-identical to a clean run.
func TestFleetDrainSemantics(t *testing.T) {
	clean := newFleetNode(t, "clean")
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, err := New(Options{
		Backends:       []string{a.ts.URL, b.ts.URL},
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  time.Second, // a probe may outlast the 10 ms interval under test load
		FailThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()

	sc, err := scenario.ByName("harq-storm")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sc.Build(101)
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := trace.WriteJSONL(&payload, sess.Run(8*sim.Second)); err != nil {
		t.Fatal(err)
	}
	const id = "drain-pinned"
	if _, err := ingest.New(ingest.Options{BaseURL: clean.ts.URL}).
		Upload(context.Background(), id, ingest.ContentTypeJSONL, payload.Bytes()); err != nil {
		t.Fatal(err)
	}

	chunks, seqs := splitLines(payload.Bytes(), 3)
	resp := postChunk(t, lbTS.URL, id, ingest.ContentTypeJSONL, seqs[0], false, bytes.NewReader(chunks[0]))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk 0: %d", resp.StatusCode)
	}
	drainClose(resp)

	owner := ownerOf(t, []*fleetNode{a, b}, id, 2*time.Second)
	survivor := a
	if owner == a {
		survivor = b
	}
	// What SIGTERM does, without the process exit racing the test.
	owner.node.Drain()

	// The prober must notice and demote it to draining (not down).
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(lbTS.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `"state": "draining"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("balancer never saw the drain: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New sessions all land on the survivor.
	for i := 0; i < 6; i++ {
		nid := fmt.Sprintf("post-drain-%d", i)
		resp := postChunk(t, lbTS.URL, nid, ingest.ContentTypeJSONL, 0, true, bytes.NewReader(payload.Bytes()))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s during drain: %d", nid, resp.StatusCode)
		}
		drainClose(resp)
		if _, ok := survivor.watermark(t, nid); !ok {
			t.Fatalf("session %s not on the surviving node", nid)
		}
	}
	// The draining node accumulated nothing new.
	resp, err = http.Get(owner.ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var infos []struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Session != id {
		t.Fatalf("draining node sessions = %+v, want only %q", infos, id)
	}

	// The pinned session finishes: a draining dominod rejects every
	// ingest POST, so the balancer re-pins it to the survivor, where its
	// next chunk is a seq gap, and the client resends it from 0.
	resp = postChunk(t, lbTS.URL, id, ingest.ContentTypeJSONL, seqs[1], false, bytes.NewReader(chunks[1]))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("chunk 1 during drain: %d, want 412", resp.StatusCode)
	}
	drainClose(resp)
	resend(t, lbTS.URL, id, ingest.ContentTypeJSONL, payload.Bytes())

	want := fetchReport(t, clean.ts.URL, id)
	got := fetchReport(t, lbTS.URL, id)
	if !bytes.Equal(want, got) {
		t.Fatalf("drained-through report diverged:\nclean: %s\nfleet: %s", want, got)
	}
}

// TestFleetMetricsMergeAcceptance pins the federation criterion: the
// balancer's /metrics equals obs.Merge of the per-node snapshots and
// lints clean.
func TestFleetMetricsMergeAcceptance(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, err := New(Options{
		Backends:       []string{a.ts.URL, b.ts.URL},
		HealthInterval: time.Hour, // scrape comparisons need a quiet fleet
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()

	for i, n := range []*fleetNode{a, b} {
		body := sessionJSONL(t, ran.Amarisoft(), uint64(60+i), 4*sim.Second)
		resp, err := http.Post(n.ts.URL+"/ingest?session=fed", "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
	}
	fleetText := assertFleetIsMergeOfNodes(t, lbTS.URL, a, b)
	for _, node := range []string{"a", "b"} {
		if !strings.Contains(fleetText, `dominod_node_info{node="`+node+`"} 1`) {
			t.Fatalf("node %s identity missing from fleet exposition:\n%s", node, fleetText)
		}
	}
}

// badReads are reads every node refuses with a 400.
var badReads = []string{
	"/query?limit=abc", "/query?agg=top_chains&k=-1", "/query?agg=cause_rates&bucket=0",
	"/query?last=bogus", "/query?agg=bogus", "/incidents/similar?fired=a&k=-1", "/incidents/similar",
	"/incidents/similar?session=n0-007&k=-1",
	// A malformed escape refuses the read; it does not drop the filter.
	"/query?cell=%zz", "/query?cell=tdd&limit=%zz",
}

// TestFleetReadDifferential pins the merged read surface: what the
// balancer answers for /query and /incidents/similar over a fleet of
// nodes must be, byte for byte, what one store holding every live
// node's rows answers. The fleet is deliberately unwell — one backend
// dies after the balancer has seen it up and fails every read from then
// on, another is healthy but answers 404 to everything, a third answers
// as a node does but indented with tabs — and the reads run from several
// clients at once, so the concurrent fan-out sees every failure kind on
// every request.
func TestFleetReadDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nodeNames := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	chains := []string{"a --> e", "b --> f", "c --> g --> h", "d --> h"}
	// Few distinct starts and fired sets, so distances tie, starts tie,
	// and calls of different lengths start together: only the shared
	// comparator keeps the fleet's ranking equal to one store's.
	randomRows := func(node string, n int) []rcastore.Record {
		rows := make([]rcastore.Record, n)
		for i := range rows {
			start := fleetNow - sim.Time(1+rng.Intn(40))*sim.Minute
			r := rcastore.Record{
				Session: fmt.Sprintf("%s-%03d", node, i),
				Cell:    []string{"tdd", "fdd", "amarisoft"}[rng.Intn(3)],
				Start:   start,
				End:     start + sim.Time(1+rng.Intn(3))*sim.Minute, // whole minutes: sums stay exact
			}
			for _, name := range nodeNames {
				if rng.Intn(3) == 0 {
					r.Fired = append(r.Fired, name)
				}
			}
			// A share of the calls are clean, and every call n1 places
			// in amarisoft is: n1's amarisoft groups list no cause, and
			// the fleet must still count their sessions and minutes.
			if rng.Intn(5) == 0 || node == "n1" && r.Cell == "amarisoft" {
				rows[i] = r
				continue
			}
			for _, ci := range rng.Perm(len(chains))[:1+rng.Intn(2)] {
				runs := 1 + rng.Intn(4)
				r.Chains = append(r.Chains, rcastore.ChainRuns{Chain: chains[ci], Runs: runs})
				r.Causes = append(r.Causes, rcastore.CauseRuns{Cause: chains[ci][:1], Runs: runs})
			}
			rows[i] = r
		}
		return rows
	}
	global := rcastore.New(rcastore.Options{})
	storeNode := func(name string, live bool) *httptest.Server {
		st := rcastore.New(rcastore.Options{BlockRows: 32})
		for _, r := range randomRows(name, 150) {
			st.Insert(r)
			if live {
				global.Insert(r)
			}
		}
		n := node.New(testAnalyzer(t), node.Options{
			MaxStreams: 2, NodeID: name, Store: st,
			Now: func() sim.Time { return fleetNow },
		})
		ts := httptest.NewServer(n.Routes())
		t.Cleanup(ts.Close)
		return ts
	}
	stubMux := http.NewServeMux() // healthy, and 404 for everything else
	stubMux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": "stub"})
	})
	stub := httptest.NewServer(stubMux)
	t.Cleanup(stub.Close)
	n0, dead, n1, n2 := storeNode("n0", true), storeNode("dead", false), storeNode("n1", true), storeNode("n2", true)
	// A node's answers with the layout changed: JSON still, but not what
	// scanAnswer takes, so its rows are skipped like the dead node's.
	tabbed := storeNode("tabbed", false)
	tabs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(tabbed.URL + r.URL.RequestURI())
		if err != nil {
			t.Error(err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		var buf bytes.Buffer
		if resp.StatusCode == http.StatusOK && json.Indent(&buf, body, "", "\t") == nil {
			body = buf.Bytes()
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(tabs.Close)

	lb, err := New(Options{
		Backends:       []string{n0.URL, dead.URL, n1.URL, stub.URL, tabs.URL, n2.URL},
		HealthInterval: time.Hour,
		FailThreshold:  1 << 30, // the dead node stays on the read path, failing
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()
	dead.CloseClientConnections()
	dead.Close()

	type read struct {
		path string
		want map[string]any
	}
	var reads []read
	from := fleetNow - 30*sim.Minute
	for _, cell := range []string{"", "fdd", "never_seen"} {
		q := rcastore.Query{From: from, Cell: cell}
		v := url.Values{"from": {strconv.FormatInt(int64(from), 10)}}
		if cell != "" {
			v.Set("cell", cell)
		}
		for _, limit := range []int{0, 1, 7, 1000} {
			lq, lv := q, url.Values{"limit": {strconv.Itoa(limit)}, "cause": {"a"}}
			lq.Limit, lq.Cause = limit, "a"
			records := global.Query(lq)
			if records == nil {
				records = []rcastore.Record{}
			}
			reads = append(reads, read{"/query?" + v.Encode() + "&" + lv.Encode(), map[string]any{"records": records}})
		}
		reads = append(reads,
			read{"/query?agg=cause_rates&bucket=10m&" + v.Encode(),
				map[string]any{"cause_rates": global.CauseRates(q, 10*sim.Minute)}},
			// k=0 asks every node for its whole ranking, the one top_chains
			// answer a fleet can merge exactly.
			read{"/query?agg=top_chains&k=0&" + v.Encode(),
				map[string]any{"top_chains": global.TopChains(q, 0)}})
		for _, k := range []int{1, 5, 40} {
			sv := url.Values{"k": {strconv.Itoa(k)}}
			if cell != "" {
				sv.Set("cell", cell)
			}
			for _, fired := range [][]string{{"a", "b", "c"}, {"h"}, {"a", "never_seen"}} {
				fv := url.Values{"fired": {strings.Join(fired, ",")}}
				reads = append(reads, read{"/incidents/similar?" + sv.Encode() + "&" + fv.Encode(),
					map[string]any{"fired": fired, "matches": global.Similar(fired, rcastore.Query{Cell: cell}, k)}})
			}
			// Probes owned by the first, a middle and the last backend.
			for _, probe := range []string{"n0-007", "n1-101", "n2-149"} {
				rec, ok := global.Fired(probe)
				if !ok {
					t.Fatalf("probe %s is not in the reference store", probe)
				}
				matches := []rcastore.Match{}
				for _, m := range global.Similar(rec.Fired, rcastore.Query{Cell: cell}, k+1) {
					if m.Session != probe && len(matches) < k {
						matches = append(matches, m)
					}
				}
				reads = append(reads, read{"/incidents/similar?" + sv.Encode() + "&session=" + probe,
					map[string]any{"fired": rec.Fired, "matches": matches}})
			}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reads); i += 4 {
				resp, err := http.Get(lbTS.URL + reads[i].path)
				if err != nil {
					t.Error(err)
					continue
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := httptest.NewRecorder()
				ingest.WriteJSON(want, http.StatusOK, reads[i].want)
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Body.Bytes()) {
					t.Errorf("GET %s: status %d, err %v\nfleet:\n%s\none store:\n%s",
						reads[i].path, resp.StatusCode, err, got, want.Body.Bytes())
				}
			}
		}(c)
	}
	wg.Wait()

	// A parameter error reaches the client in a node's own words: the
	// balancer answers with the same status and error body a node gives
	// directly, never an empty 200 merged from no answers.
	for _, bad := range badReads {
		direct, viaLB := mustGet(t, n0.URL+bad), mustGet(t, lbTS.URL+bad)
		want, got := readBody(t, direct), readBody(t, viaLB)
		if direct.StatusCode != http.StatusBadRequest || viaLB.StatusCode != direct.StatusCode || got != want {
			t.Errorf("GET %s: node answers %d %s, balancer %d %s", bad, direct.StatusCode, want, viaLB.StatusCode, got)
		}
	}

	// A session no live node holds is a 404, not an empty answer.
	resp, err := http.Get(lbTS.URL + "/incidents/similar?session=dead-003")
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("similar for a session only the dead node held: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetSimilarProbeStoredTwice: the node that owns a probe session
// holds it twice and holds the probe's five nearest incidents too. The
// fleet's k=5 is those five — the owner answers k rows, not k minus the
// probe's second row — and k=0 is every other row of the fleet, ranked
// as one store ranks them.
func TestFleetSimilarProbeStoredTwice(t *testing.T) {
	global := rcastore.New(rcastore.Options{})
	var urls []string
	for _, name := range []string{"own", "far"} {
		st := rcastore.New(rcastore.Options{BlockRows: 4})
		row := func(session string, minute int, fired ...string) {
			start := fleetNow - sim.Time(60-minute)*sim.Minute
			r := rcastore.Record{Session: session, Cell: "tdd", Start: start, End: start + sim.Minute, Fired: fired}
			st.Insert(r)
			global.Insert(r)
		}
		for i := 0; i < 6; i++ {
			if name == "own" {
				row(fmt.Sprintf("near%d", i), 2+i, "a", "b", "c")
			} else {
				row(fmt.Sprintf("far%d", i), 2+i, "d")
			}
		}
		if name == "own" {
			row("probe", 1, "a", "b")
			row("probe", 20, "a", "b")
		}
		ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{NodeID: name, Store: st}).Routes())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	lb, err := New(Options{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()
	for k, rows := range map[int]int{5: 5, 0: 12} {
		matches := global.Similar([]string{"a", "b"}, rcastore.Query{NotSession: "probe"}, k)
		if len(matches) != rows {
			t.Fatalf("k=%d: the reference store answers %d rows, want %d", k, len(matches), rows)
		}
		want := httptest.NewRecorder()
		ingest.WriteJSON(want, http.StatusOK, map[string]any{"fired": []string{"a", "b"}, "matches": matches})
		resp := mustGet(t, fmt.Sprintf("%s/incidents/similar?session=probe&k=%d", lbTS.URL, k))
		if got := readBody(t, resp); resp.StatusCode != http.StatusOK || got != want.Body.String() {
			t.Errorf("k=%d: status %d\nfleet:\n%s\none store:\n%s", k, resp.StatusCode, got, want.Body.String())
		}
	}
}

// TestFleetSimilarCleanProbe: a call that fired nothing is a probe like
// any other. Its owner answers about the empty signature ("fired": null,
// as the stored row has it), the other nodes are asked with an empty
// fired=, and the fleet's answer is one store's, byte for byte.
func TestFleetSimilarCleanProbe(t *testing.T) {
	global := rcastore.New(rcastore.Options{})
	var urls []string
	for _, name := range []string{"own", "other"} {
		st := rcastore.New(rcastore.Options{})
		for i, fired := range [][]string{nil, {"a"}} {
			session := fmt.Sprintf("%s%d", name, i)
			if name == "own" && i == 0 {
				session = "clean"
			}
			start := fleetNow - sim.Time(10+i)*sim.Minute
			r := rcastore.Record{Session: session, Cell: "tdd", Start: start, End: start + sim.Minute, Fired: fired}
			st.Insert(r)
			global.Insert(r)
		}
		ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{NodeID: name, Store: st}).Routes())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	lb, err := New(Options{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()
	rec, ok := global.Fired("clean")
	if !ok || rec.Fired != nil {
		t.Fatalf("the reference store's clean row: %+v, %v", rec, ok)
	}
	matches := global.Similar(rec.Fired, rcastore.Query{NotSession: "clean"}, 5)
	if len(matches) != 3 {
		t.Fatalf("the reference store answers %d matches, want 3: both nodes' rows", len(matches))
	}
	want := httptest.NewRecorder()
	ingest.WriteJSON(want, http.StatusOK, map[string]any{"fired": rec.Fired, "matches": matches})
	resp := mustGet(t, lbTS.URL+"/incidents/similar?session=clean")
	if got := readBody(t, resp); resp.StatusCode != http.StatusOK || got != want.Body.String() {
		t.Errorf("status %d\nfleet:\n%s\none store:\n%s", resp.StatusCode, got, want.Body.String())
	}
}

// TestFleetCauseRatesCleanCalls: a node whose calls in a (cell, bucket)
// group fired nothing still counts them in the fleet's denominators. In
// tdd one node's call ran cause x twice and the other node's call was
// clean: the fleet answers 2 sessions, 2 minutes and 1 run a minute, as
// one store holding both calls does, not the busy node's 1, 1 and 2. In
// fdd both nodes' calls were clean: the group is one cause "" row.
func TestFleetCauseRatesCleanCalls(t *testing.T) {
	global := rcastore.New(rcastore.Options{})
	var urls []string
	for _, name := range []string{"busy", "idle"} {
		st := rcastore.New(rcastore.Options{})
		for i, cell := range []string{"tdd", "fdd"} {
			start := fleetNow - 5*sim.Minute
			r := rcastore.Record{Session: fmt.Sprintf("%s%d", name, i), Cell: cell, Start: start, End: start + sim.Minute}
			if name == "busy" && cell == "tdd" {
				r.Fired = []string{"x"}
				r.Chains = []rcastore.ChainRuns{{Chain: "x", Runs: 2}}
				r.Causes = []rcastore.CauseRuns{{Cause: "x", Runs: 2}}
			}
			st.Insert(r)
			global.Insert(r)
		}
		routes := node.New(testAnalyzer(t), node.Options{NodeID: name, Store: st, Now: func() sim.Time { return fleetNow }}).Routes()
		ts := httptest.NewServer(routes)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	lb, err := New(Options{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()

	from := fleetNow - 30*sim.Minute
	rates := global.CauseRates(rcastore.Query{From: from}, 10*sim.Minute)
	bucket := (fleetNow - 5*sim.Minute) / (10 * sim.Minute) * (10 * sim.Minute)
	if want := []rcastore.CauseBucket{
		{Cell: "fdd", Bucket: bucket, Sessions: 2, Minutes: 2},
		{Cell: "tdd", Bucket: bucket, Cause: "x", Runs: 2, Sessions: 2, Minutes: 2, RunsPerMin: 1},
	}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("the reference store answers %+v, want %+v", rates, want)
	}
	want := httptest.NewRecorder()
	ingest.WriteJSON(want, http.StatusOK, map[string]any{"cause_rates": rates})
	resp := mustGet(t, fmt.Sprintf("%s/query?agg=cause_rates&bucket=10m&from=%d", lbTS.URL, from))
	if got := readBody(t, resp); resp.StatusCode != http.StatusOK || got != want.Body.String() {
		t.Errorf("status %d\nfleet:\n%s\none store:\n%s", resp.StatusCode, got, want.Body.String())
	}
}

// countingNode is a store node whose read traffic is counted: every
// request but the balancer's health probes.
type countingNode struct {
	direct, counted *httptest.Server
	asked           atomic.Int64
}

func newCountingNode(t *testing.T, name string) *countingNode {
	st := rcastore.New(rcastore.Options{})
	st.Insert(rcastore.Record{Session: name + "-007", Cell: "tdd", Start: fleetNow - sim.Minute, End: fleetNow, Fired: []string{"a"}})
	routes := node.New(testAnalyzer(t), node.Options{NodeID: name, Store: st, Now: func() sim.Time { return fleetNow }}).Routes()
	c := &countingNode{direct: httptest.NewServer(routes)}
	c.counted = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			c.asked.Add(1)
		}
		routes.ServeHTTP(w, r)
	}))
	t.Cleanup(c.direct.Close)
	t.Cleanup(c.counted.Close)
	return c
}

// TestRejectedReadAsksNoBackend: the balancer parses a read as a node
// does, so a read a node would refuse is refused at the balancer — the
// node's status and bytes — without a request to any backend, and still
// is with every backend down. A valid read no backend answers is a 503,
// a session= probe among them: no node said it lacks the session.
func TestRejectedReadAsksNoBackend(t *testing.T) {
	nodes := []*countingNode{newCountingNode(t, "n0"), newCountingNode(t, "n1")}
	lb, err := New(Options{Backends: []string{nodes[0].counted.URL, nodes[1].counted.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()

	refusals := map[string]string{}
	for _, bad := range badReads {
		direct, viaLB := mustGet(t, nodes[0].direct.URL+bad), mustGet(t, lbTS.URL+bad)
		want, got := readBody(t, direct), readBody(t, viaLB)
		if direct.StatusCode != http.StatusBadRequest || viaLB.StatusCode != direct.StatusCode || got != want {
			t.Errorf("GET %s: node answers %d %s, balancer %d %s", bad, direct.StatusCode, want, viaLB.StatusCode, got)
		}
		refusals[bad] = want
	}
	for i, n := range nodes {
		if asked := n.asked.Load(); asked != 0 {
			t.Errorf("backend %d was asked %d times for reads the balancer refuses", i, asked)
		}
	}
	// The fan-out path is live: a good read reaches both backends.
	if resp := mustGet(t, lbTS.URL+"/query"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query: status %d", resp.StatusCode)
	} else {
		drainClose(resp)
	}
	for i, n := range nodes {
		if asked := n.asked.Load(); asked != 1 {
			t.Errorf("backend %d was asked %d times for one good read, want 1", i, asked)
		}
	}

	for _, n := range nodes {
		n.counted.CloseClientConnections()
		n.counted.Close()
	}
	for bad, want := range refusals {
		resp := mustGet(t, lbTS.URL+bad)
		if got := readBody(t, resp); resp.StatusCode != http.StatusBadRequest || got != want {
			t.Errorf("GET %s with every backend down: %d %s, want 400 %s", bad, resp.StatusCode, got, want)
		}
	}
	for _, good := range []string{"/query", "/query?agg=top_chains", "/incidents/similar?fired=a", "/incidents/similar?session=s-1"} {
		resp := mustGet(t, lbTS.URL+good)
		if got := readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(got, errNoBackends.Error()) {
			t.Errorf("GET %s with every backend down: %d %s, want 503 %q", good, resp.StatusCode, got, errNoBackends)
		}
	}
}
