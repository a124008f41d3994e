package node_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

func testAnalyzer(t testing.TB) *core.Analyzer {
	t.Helper()
	a, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sessionTrace(t testing.TB, cell ran.CellConfig, seed uint64, d sim.Time) (*trace.Set, []byte) {
	t.Helper()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cell, seed))
	if err != nil {
		t.Fatal(err)
	}
	set := sess.Run(d)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	return set, buf.Bytes()
}

// TestDominodSmoke is the end-to-end acceptance check: start the
// service, POST 8 session streams
// concurrently, and assert every per-session report matches the batch
// analyzer's results for the same trace.
func TestDominodSmoke(t *testing.T) {
	analyzer := testAnalyzer(t)
	srv := node.New(analyzer, node.Options{MaxStreams: 8})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	const n = 8
	presets := ran.Presets()
	type sessionCase struct {
		id   string
		set  *trace.Set
		body []byte
	}
	cases := make([]sessionCase, n)
	for i := 0; i < n; i++ {
		set, body := sessionTrace(t, presets[i%len(presets)], uint64(100+i), 10*sim.Second)
		cases[i] = sessionCase{id: fmt.Sprintf("call-%d", i), set: set, body: body}
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/ingest?session="+cases[i].id, "application/jsonl",
				bytes.NewReader(cases[i].body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("ingest %s: status %d: %s", cases[i].id, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range cases {
		checkAgainstBatch(t, analyzer, ts.URL, c.id, c.set)
	}

	var infos []node.SessionInfo
	getJSON(t, ts.URL+"/sessions", &infos)
	if len(infos) != n {
		t.Fatalf("/sessions lists %d sessions, want %d", len(infos), n)
	}
	for _, info := range infos {
		if info.State != "done" {
			t.Fatalf("session %s not done: %+v", info.Session, info)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("dominod_sessions_total %d", n),
		fmt.Sprintf("dominod_sessions_done_total %d", n),
		"dominod_sessions_failed_total 0",
		"dominod_node_events_total{node=",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// checkAgainstBatch asserts the node's report for a finished session
// equals batch analysis of the same trace.
func checkAgainstBatch(t testing.TB, analyzer *core.Analyzer, base, id string, set *trace.Set) {
	t.Helper()
	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	var rep node.ReportPayload
	getJSON(t, base+"/report/"+id, &rep)
	if rep.State != "done" {
		t.Fatalf("%s: state %q (error %q)", id, rep.State, rep.Error)
	}
	if rep.Cell != set.CellName {
		t.Fatalf("%s: cell %q, want %q", id, rep.Cell, set.CellName)
	}
	if rep.Windows != len(batch.Windows) {
		t.Fatalf("%s: %d windows, batch %d", id, rep.Windows, len(batch.Windows))
	}
	if rep.ChainEvents != batch.TotalChainEvents() {
		t.Fatalf("%s: %d chain events, batch %d", id, rep.ChainEvents, batch.TotalChainEvents())
	}
	causes, consequences := analyzer.Graph().Causes(), analyzer.Graph().Consequences()
	wantDeg := batch.DegradationEventsPerMinute(consequences)
	if rep.DegradationPerMin != wantDeg {
		t.Fatalf("%s: degradation %v/min, batch %v/min", id, rep.DegradationPerMin, wantDeg)
	}
	if len(rep.Causes) != len(causes) || len(rep.Consequences) != len(consequences) {
		t.Fatalf("%s: report lists causes %v and consequences %v, graph %v and %v", id, rep.Causes, rep.Consequences, causes, consequences)
	}
	for _, cause := range causes {
		if got, ok := rep.Causes[cause]; !ok || got.Events != batch.EventCount(cause) {
			t.Fatalf("%s cause %s: %d events (listed %v), batch %d", id, cause, got.Events, ok, batch.EventCount(cause))
		}
	}
	for _, cons := range consequences {
		if got, ok := rep.Consequences[cons]; !ok || got.Events != batch.EventCount(cons) {
			t.Fatalf("%s consequence %s: %d events (listed %v), batch %d", id, cons, got.Events, ok, batch.EventCount(cons))
		}
	}
}

// TestCustomGraphClasses: a node running examples/customchain's graph
// reports that graph's causes and consequences, not the default
// graph's: in /report, in degradation_events_per_min and in
// dominod_node_events_total.
func TestCustomGraphClasses(t *testing.T) {
	g, err := core.ParseChainsString(`dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain
ul_harq_retx --> forward_delay_up --> local_outbound_resolution_down
`)
	if err != nil {
		t.Fatal(err)
	}
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 1}).Routes())
	defer ts.Close()
	set, body := sessionTrace(t, ran.Amarisoft(), 3, 60*sim.Second)
	resp, err := http.Post(ts.URL+"/ingest?session=custom", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	checkAgainstBatch(t, analyzer, ts.URL, "custom", set)

	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	drains := batch.EventCount("local_jitter_buffer_drain")
	if drains == 0 || batch.DegradationEventsPerMinute(g.Consequences()) == 0 {
		t.Fatal("the call has no run of local_jitter_buffer_drain: the test checks nothing")
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf(`dominod_node_events_total{node="local_jitter_buffer_drain",class="consequence"} %d`, drains)
	if !strings.Contains(string(metrics), want+"\n") {
		t.Fatalf("/metrics missing %q:\n%s", want, metrics)
	}
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestIngestRejections covers the protocol edges: duplicate session
// IDs, malformed bodies, and missing sessions.
func TestIngestRejections(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Mosolabs(), 3, 6*sim.Second)
	resp, err := http.Post(ts.URL+"/ingest?session=dup", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest?session=dup", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate session: %d, want 409", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/ingest", "application/jsonl", strings.NewReader("not jsonl\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/report/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing report: %d, want 404", resp.StatusCode)
	}

	// A failed ingest must not squat on its session ID: the client's
	// retry with the same ID replaces it.
	resp, err = http.Post(ts.URL+"/ingest?session=retry", "application/jsonl", strings.NewReader("broken\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken first attempt: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest?session=retry", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after failure: %d, want 200", resp.StatusCode)
	}
	var rep node.ReportPayload
	getJSON(t, ts.URL+"/report/retry", &rep)
	if rep.State != "done" {
		t.Fatalf("retried session state %q", rep.State)
	}

	// A minted ID never names a client's own session. The anonymous
	// upload above was s0001; with the client's s0002 done and s0003
	// failed, the next anonymous upload is neither refused as a conflict
	// nor allowed to replace the failed session.
	for id, payload := range map[string]io.Reader{"s0002": bytes.NewReader(body), "s0003": strings.NewReader("broken\n")} {
		resp, err = http.Post(ts.URL+"/ingest?session="+id, "application/jsonl", payload)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err = http.Post(ts.URL+"/ingest", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK || rep.Session != "s0004" {
		t.Fatalf("anonymous upload beside the client's s0002 and s0003: %d, session %q, %v; want 200 as s0004", resp.StatusCode, rep.Session, err)
	}
	resp.Body.Close()
	getJSON(t, ts.URL+"/report/s0003", &rep)
	if rep.State != "failed" {
		t.Fatalf("the client's failed s0003 is %q after an anonymous upload", rep.State)
	}
}

// TestFailedSessionKeepsPartialReport pins the recycling path: when a
// session fails mid-upload, its analyzer is returned to the pool but
// /report/{id} must still serve the analysis computed up to the
// failure point.
func TestFailedSessionKeepsPartialReport(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Amarisoft(), 3, 10*sim.Second)
	lines := bytes.SplitAfter(body, []byte("\n"))
	partial := bytes.Join(lines[:len(lines)*3/4], nil)
	partial = append(partial, []byte("not jsonl\n")...)

	resp, err := http.Post(ts.URL+"/ingest?session=broken", "application/jsonl", bytes.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken upload: %d, want 400", resp.StatusCode)
	}
	var rep node.ReportPayload
	getJSON(t, ts.URL+"/report/broken", &rep)
	if rep.State != "failed" || rep.Error == "" {
		t.Fatalf("state %q error %q, want a failed session with its error", rep.State, rep.Error)
	}
	if rep.Records == 0 || rep.Windows == 0 {
		t.Fatalf("no partial progress recorded: %+v", rep.SessionInfo)
	}
	// The report body (not just the summary counters) must survive the
	// analyzer's return to the pool: this prefix detects consequence
	// events, so the degradation rate computed from the snapshot is
	// nonzero.
	if rep.DegradationPerMin == 0 {
		t.Fatalf("partial report body lost: %+v", rep.SessionInfo)
	}
	events := 0
	for _, st := range rep.Consequences {
		events += st.Events
	}
	for _, st := range rep.Causes {
		events += st.Events
	}
	if events == 0 {
		t.Fatalf("partial report serves no cause/consequence events: %+v", rep)
	}
}

// TestSessionEviction bounds retention: with MaxSessions 3, finishing
// a fourth session evicts the oldest finished one.
func TestSessionEviction(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, MaxSessions: 3})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Mosolabs(), 6, 6*sim.Second)
	for i := 0; i < 5; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/ingest?session=e%d", ts.URL, i), "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest e%d: %d", i, resp.StatusCode)
		}
	}
	var infos []node.SessionInfo
	getJSON(t, ts.URL+"/sessions", &infos)
	if len(infos) > 3 {
		t.Fatalf("retained %d sessions, cap is 3", len(infos))
	}
	// The newest session must survive; the oldest must be gone.
	resp, err := http.Get(ts.URL + "/report/e4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newest session evicted: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/report/e0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest session still retained: %d", resp.StatusCode)
	}
}

// TestLiveSnapshotDuringIngest streams a session in two halves through
// a pipe and asserts /report/{id} serves a live snapshot mid-upload.
func TestLiveSnapshotDuringIngest(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	set, body := sessionTrace(t, ran.Amarisoft(), 12, 10*sim.Second)
	lines := bytes.SplitAfter(body, []byte("\n"))
	half := len(lines) / 2

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/ingest?session=live", "application/jsonl", pr)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	sent := make(chan struct{})
	go func() {
		for _, l := range lines[:half] {
			pw.Write(l)
		}
		close(sent)
	}()
	<-sent
	// The server consumes the pipe asynchronously; poll until the live
	// snapshot reflects progress.
	var rep node.ReportPayload
	for i := 0; i < 400; i++ {
		getJSON(t, ts.URL+"/report/live", &rep)
		if rep.State == "active" && rep.Records > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rep.State != "active" || rep.Records == 0 {
		t.Fatalf("no live snapshot mid-upload: %+v", rep.SessionInfo)
	}
	if rep.Cell != set.CellName {
		t.Fatalf("live snapshot cell %q", rep.Cell)
	}
	for _, l := range lines[half:] {
		pw.Write(l)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/report/live", &rep)
	if rep.State != "done" {
		t.Fatalf("final state %q", rep.State)
	}
}

// TestSimilarProbeStoredTwice: a probe session stored twice on the node
// costs the answer no rows — k matches come back while k others exist,
// and k=0 asks for all of them, as it does of the store.
func TestSimilarProbeStoredTwice(t *testing.T) {
	st := rcastore.New(rcastore.Options{BlockRows: 4})
	row := func(session string, minute int, fired ...string) {
		start := sim.Time(minute) * sim.Minute
		st.Insert(rcastore.Record{Session: session, Cell: "tdd", Start: start, End: start + sim.Minute, Fired: fired})
	}
	row("probe", 1, "a", "b")
	for i := 0; i < 7; i++ {
		row(fmt.Sprintf("other%d", i), 2+i, "a", "b", "c")
	}
	row("probe", 20, "a", "b")
	ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{Store: st}).Routes())
	defer ts.Close()
	for k, want := range map[string]int{"5": 5, "7": 7, "9": 7, "0": 7} {
		var got struct {
			Matches []rcastore.Match `json:"matches"`
		}
		getJSON(t, ts.URL+"/incidents/similar?session=probe&k="+k, &got)
		if len(got.Matches) != want {
			t.Errorf("k=%s: %d matches, want %d", k, len(got.Matches), want)
		}
		for i, m := range got.Matches {
			// Every other row is at distance 1; the most recent ranks first.
			if m.Session != fmt.Sprintf("other%d", 6-i) {
				t.Errorf("k=%s: match %d is %s", k, i, m.Session)
			}
		}
	}
}

// TestAnswerHitsMetric: a read asked again before the store changes is
// answered from the store's memo and counts in
// dominod_rcastore_answer_hits_total, and every read, hit or miss, counts
// in dominod_rcastore_queries_total; a row stored since makes the next
// ask a miss. A session= probe counts twice (its resolve, its answer).
func TestAnswerHitsMetric(t *testing.T) {
	st := rcastore.New(rcastore.Options{})
	row := func(session string) {
		st.Insert(rcastore.Record{Session: session, Cell: "tdd", Start: sim.Minute, End: 2 * sim.Minute, Fired: []string{"a"}})
	}
	row("r0")
	ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{Store: st}).Routes())
	defer ts.Close()
	for i, c := range []struct {
		read          string
		store         bool // a row before the read
		queries, hits float64
	}{
		{"/query", false, 1, 0},
		{"/query", false, 2, 1},
		{"/query?agg=top_chains", false, 3, 1},
		{"/incidents/similar?session=r0", false, 5, 1},
		{"/incidents/similar?session=r0", false, 7, 2},
		{"/query", true, 8, 2},
		{"/query", false, 9, 3},
	} {
		if c.store {
			row(fmt.Sprint("r", i))
		}
		resp, err := http.Get(ts.URL + c.read)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", c.read, resp.StatusCode)
		}
		if got := metricValue(t, ts.URL, "dominod_rcastore_queries_total"); got != c.queries {
			t.Errorf("after read %d (%s): queries_total %v, want %v", i, c.read, got, c.queries)
		}
		if got := metricValue(t, ts.URL, "dominod_rcastore_answer_hits_total"); got != c.hits {
			t.Errorf("after read %d (%s): answer_hits_total %v, want %v", i, c.read, got, c.hits)
		}
	}
}

// TestQueryBadBoundsNameFrom: with from and to both malformed the 400
// names from, every time.
func TestQueryBadBoundsNameFrom(t *testing.T) {
	ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{}).Routes())
	defer ts.Close()
	bodies := map[string]int{}
	for i := 0; i < 100; i++ {
		resp, err := http.Get(ts.URL + "/query?to=later&from=earlier")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		bodies[string(body)]++
	}
	if len(bodies) != 1 {
		t.Fatalf("100 requests with both bounds bad, %d different bodies: %v", len(bodies), bodies)
	}
	for body := range bodies {
		if !strings.Contains(body, `bad from \"earlier\"`) {
			t.Fatalf("the 400 does not name from: %s", body)
		}
	}
}

// TestQueryAndSimilarEndpoints exercises the longitudinal store path:
// completed sessions are auto-persisted, /query serves records and
// aggregations that match batch analysis, and /incidents/similar ranks
// prior incidents by fired-node distance.
func TestQueryAndSimilarEndpoints(t *testing.T) {
	analyzer := testAnalyzer(t)
	const fleetNow = sim.Time(1_700_000_000_000_000) // fixed fleet clock, µs
	st := rcastore.New(rcastore.Options{})
	srv := node.New(analyzer, node.Options{MaxStreams: 2, Store: st, Now: func() sim.Time { return fleetNow }})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	cells := []ran.CellConfig{ran.Amarisoft(), ran.Amarisoft(), ran.Mosolabs()}
	sets := make([]*trace.Set, len(cells))
	for i, cell := range cells {
		set, body := sessionTrace(t, cell, uint64(40+i), 10*sim.Second)
		sets[i] = set
		resp, err := http.Post(fmt.Sprintf("%s/ingest?session=q%d", ts.URL, i), "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest q%d: %d", i, resp.StatusCode)
		}
	}

	// The stored records must equal FromReport over batch analysis,
	// stamped with the injected fleet clock.
	var recs struct {
		Records []rcastore.Record `json:"records"`
	}
	getJSON(t, ts.URL+"/query", &recs)
	if len(recs.Records) != 3 {
		t.Fatalf("/query returned %d records, want 3", len(recs.Records))
	}
	for i, set := range sets {
		batch, err := analyzer.Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		want := rcastore.FromReport(fmt.Sprintf("q%d", i), fleetNow-batch.Duration, batch)
		var got *rcastore.Record
		for j := range recs.Records {
			if recs.Records[j].Session == want.Session {
				got = &recs.Records[j]
			}
		}
		if got == nil {
			t.Fatalf("session %s missing from /query", want.Session)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("stored record for %s diverges from batch analysis:\ngot  %+v\nwant %+v", want.Session, *got, want)
		}
	}

	// Cell predicate narrows; the fleet clock drives last=.
	getJSON(t, ts.URL+"/query?cell="+url.QueryEscape(cells[2].Name), &recs)
	if len(recs.Records) != 1 || recs.Records[0].Session != "q2" {
		t.Fatalf("/query?cell= returned %+v", recs.Records)
	}
	getJSON(t, ts.URL+"/query?last=1h", &recs)
	if len(recs.Records) != 3 {
		t.Fatalf("/query?last=1h returned %d records", len(recs.Records))
	}

	var chains struct {
		TopChains []rcastore.ChainAgg `json:"top_chains"`
	}
	getJSON(t, ts.URL+"/query?agg=top_chains&k=5", &chains)
	if len(chains.TopChains) == 0 {
		t.Fatal("/query?agg=top_chains returned no chains (amarisoft sessions fire chains)")
	}
	var rates struct {
		CauseRates []rcastore.CauseBucket `json:"cause_rates"`
	}
	getJSON(t, ts.URL+"/query?agg=cause_rates&bucket=10m", &rates)
	if len(rates.CauseRates) == 0 {
		t.Fatal("/query?agg=cause_rates returned no buckets")
	}

	// q0 and q1 are same-cell same-duration amarisoft runs: each is the
	// other's nearest prior incident, and the probe session itself is
	// excluded.
	var sim0 struct {
		Fired   []string         `json:"fired"`
		Matches []rcastore.Match `json:"matches"`
	}
	getJSON(t, ts.URL+"/incidents/similar?session=q0&k=2", &sim0)
	if len(sim0.Fired) == 0 || len(sim0.Matches) == 0 {
		t.Fatalf("similar probe empty: %+v", sim0)
	}
	for _, m := range sim0.Matches {
		if m.Session == "q0" {
			t.Fatal("probe session listed as its own nearest incident")
		}
	}
	if sim0.Matches[0].Session != "q1" {
		t.Fatalf("nearest incident to q0 = %s, want its twin q1", sim0.Matches[0].Session)
	}

	// Parameter validation.
	for _, bad := range []string{
		"/query?from=notanumber", "/query?last=-5m", "/query?agg=bogus",
		"/query?agg=cause_rates&bucket=0s", "/query?agg=cause_rates&bucket=500ns", "/incidents/similar",
		"/query?cell=%zz", "/query?cell=tdd&limit=%zz", // a malformed escape, not a dropped filter
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/incidents/similar?session=unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("similar for unknown session: %d, want 404", resp.StatusCode)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if !strings.Contains(string(body), "dominod_rcastore_rows 3") {
		t.Fatalf("/metrics missing dominod_rcastore_rows 3:\n%s", body)
	}

	// Spill the live store as a checkpoint does and reload it: the
	// reloaded history must answer queries identically.
	var spill bytes.Buffer
	if err := st.Spill(&spill); err != nil {
		t.Fatal(err)
	}
	loaded, err := rcastore.Load(&spill, rcastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Query(rcastore.Query{}), st.Query(rcastore.Query{})) {
		t.Fatal("reloaded spill diverges from the live store")
	}
}
