package node_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
)

// TestMetricsExposition pins the /metrics contract: the output is
// spec-valid Prometheus text exposition (HELP/TYPE metadata, counters
// suffixed _total, well-formed histograms) as checked by the same
// linter the CI smoke runs, and it carries the build-info and
// session-table series.
func TestMetricsExposition(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, FlightRec: 1024})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		_, body := sessionTrace(t, ran.Amarisoft(), uint64(60+i), 8*sim.Second)
		resp, err := http.Post(fmt.Sprintf("%s/ingest?session=m%d", ts.URL, i), "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest m%d: %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	errs, stats := obs.Lint(bytes.NewReader(body))
	for _, e := range errs {
		t.Errorf("exposition: %v", e)
	}
	if t.Failed() {
		t.Fatalf("full scrape:\n%s", body)
	}
	if stats.Samples == 0 || stats.Families == 0 {
		t.Fatalf("lint saw %d families / %d samples", stats.Families, stats.Samples)
	}

	text := string(body)
	for _, want := range []string{
		"# HELP dominod_sessions_total ",
		"# TYPE dominod_sessions_total counter",
		"# TYPE dominod_ingest_decode_seconds histogram",
		"dominod_ingest_step_seconds_bucket{le=\"+Inf\"}",
		"dominod_sessions_done_total 2",
		"dominod_node_events_total{node=",
		"dominod_sessions_registered 2",
		"dominod_sessions_active 0",
		"domino_build_info{version=",
		fmt.Sprintf("go_version=%q", runtime.Version()),
		"dominod_analyzer_pool_hit_ratio ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestJSONLSlowLinesCounter pins what the node says about a producer
// whose lines the fast decoder does not take: nothing for the trace
// encoder's own output, with \n or \r\n line ends alike, and one count
// per line that went through encoding/json — here, lines with an escape
// in a string, then lines spaced after a colon.
func TestJSONLSlowLinesCounter(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()
	_, body := sessionTrace(t, ran.Amarisoft(), 62, 4*sim.Second)
	upload := func(id string, body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest?session="+id, "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: %d", id, resp.StatusCode)
		}
	}
	const name = "dominod_ingest_jsonl_slow_lines_total"
	upload("canonical", body)
	if got := metricValue(t, ts.URL, name); got != 0 {
		t.Fatalf("%s = %v after a canonical upload, want 0", name, got)
	}
	// The line scanner drops a \r before the \n: CRLF line ends are still
	// the encoder's layout, and the report is the same.
	upload("crlf", bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n")))
	if got := metricValue(t, ts.URL, name); got != 0 {
		t.Fatalf("%s = %v after a CRLF upload, want 0", name, got)
	}
	var want, got node.ReportPayload
	getJSON(t, ts.URL+"/report/canonical", &want)
	getJSON(t, ts.URL+"/report/crlf", &got)
	if got.Session = want.Session; !reflect.DeepEqual(got, want) {
		t.Fatalf("CRLF upload's report differs:\nLF:   %+v\nCRLF: %+v", want, got)
	}
	const planted = 7
	escaped := bytes.Replace(body, []byte(`"Note":""`), []byte(`"Note":"\u0041"`), planted)
	if bytes.Count(escaped, []byte(`\u0041`)) != planted {
		t.Fatalf("trace has fewer than %d gNB log lines", planted)
	}
	upload("foreign", escaped)
	if got := metricValue(t, ts.URL, name); got != planted {
		t.Fatalf("%s = %v after %d escaped lines, want %d", name, got, planted, planted)
	}
	const spacedLines = 5
	spaced := bytes.Replace(body, []byte(`{"type":"dci"`), []byte(`{"type": "dci"`), spacedLines)
	if bytes.Count(spaced, []byte(`": "`)) != spacedLines {
		t.Fatalf("trace has fewer than %d DCI lines", spacedLines)
	}
	upload("spaced", spaced)
	if got := metricValue(t, ts.URL, name); got != planted+spacedLines {
		t.Fatalf("%s = %v after %d more spaced lines, want %d", name, got, spacedLines, planted+spacedLines)
	}
}

// TestFlightRecorderDeterminism pins the flight-recorder replay-diff
// contract: two fresh servers fed the same fixed-seed session body
// produce byte-identical /debug/flightrec dumps once wall-clock
// timestamps are excluded (?wall=0). Everything else in an event —
// sequence, kind, sim time, name, count — is a pure function of the
// input stream.
func TestFlightRecorderDeterminism(t *testing.T) {
	const fleetNow = sim.Time(1_700_000_000_000_000)
	_, body := sessionTrace(t, ran.Amarisoft(), 40, 10*sim.Second)

	dump := func() string {
		srv := node.New(testAnalyzer(t), node.Options{
			MaxStreams: 2, FlightRec: 4096,
			Now: func() sim.Time { return fleetNow },
		})
		ts := httptest.NewServer(srv.Routes())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/ingest?session=det", "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %d", resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/debug/flightrec/det?wall=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flightrec: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	first, second := dump(), dump()
	if first != second {
		t.Fatalf("flight-recorder dumps diverge across identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, kind := range []string{
		`"kind":"ingest_chunk"`, `"kind":"window_evaluated"`,
		`"kind":"node_fired"`, `"kind":"chain_run_closed"`, `"kind":"report_stored"`,
	} {
		if !strings.Contains(first, kind) {
			t.Fatalf("dump missing %s:\n%s", kind, first)
		}
	}
	if strings.Contains(first, `"wall_ns"`) {
		t.Fatal("?wall=0 dump still carries wall_ns")
	}
}

// TestFlightRecDumpDuringIngest pins that a dump taken while its
// session ingests is exact: every dump of a 64-event ring, fetched in a
// loop over a 20 s upload, is valid JSONL whose seq values run
// consecutively from its first line, and a ring that has wrapped dumps
// all 64 events — none skipped because the writer lapped the reader.
func TestFlightRecDumpDuringIngest(t *testing.T) {
	const capacity = 64
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, FlightRec: capacity})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Amarisoft(), 21, 20*sim.Second)
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/ingest?session=rec", "application/jsonl", pr)
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("ingest: %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		done <- err
	}()
	go func() {
		for _, l := range bytes.SplitAfter(body, []byte("\n")) {
			pw.Write(l)
		}
		pw.Close()
	}()

	check := func(dump []byte) {
		t.Helper()
		lines := bytes.SplitAfter(dump, []byte("\n"))
		lines = lines[:len(lines)-1] // the empty tail after the last newline
		var first uint64
		for i, line := range lines {
			var ev struct {
				Seq  *uint64 `json:"seq"`
				Kind string  `json:"kind"`
				Sim  *int64  `json:"sim_us"`
			}
			if err := json.Unmarshal(line, &ev); err != nil || ev.Seq == nil || ev.Kind == "" || ev.Sim == nil {
				t.Fatalf("line %d of the dump is not an event (%v):\n%s", i, err, dump)
			}
			if i == 0 {
				first = *ev.Seq
			} else if *ev.Seq != first+uint64(i) {
				t.Fatalf("line %d has seq %d after seq %d on line 0:\n%s", i, *ev.Seq, first, dump)
			}
		}
		if first > 0 && len(lines) != capacity {
			t.Fatalf("a wrapped ring dumped %d events, want %d:\n%s", len(lines), capacity, dump)
		}
	}
	dumps := 0
	for ingesting := true; ingesting; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ingesting = false
		default:
		}
		resp, err := http.Get(ts.URL + "/debug/flightrec/rec?wall=0")
		if err != nil {
			t.Fatal(err)
		}
		dump, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			continue // not registered yet
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flightrec: %d %s", resp.StatusCode, dump)
		}
		check(dump)
		dumps++
	}
	if dumps < 2 {
		t.Fatalf("%d dumps, want some during the upload and one after it", dumps)
	}
}

// TestFlightRecEndpointEdges covers the non-happy flight-recorder
// paths: the default dump carries wall clocks and unknown sessions 404.
func TestFlightRecEndpointEdges(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, FlightRec: 256})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Mosolabs(), 9, 6*sim.Second)
	resp, err := http.Post(ts.URL+"/ingest?session=w", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/debug/flightrec/w")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"wall_ns":`) {
		t.Fatalf("default dump has no wall_ns:\n%s", b)
	}

	resp, err = http.Get(ts.URL + "/debug/flightrec/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", resp.StatusCode)
	}
}

// TestZeroOptionsServeTheShippedBounds: a zero node.Options is the node
// dominod runs with no bound flag set. It records every session, it
// admits DefaultOptions' MaxStreams uploads at once, and a saturated
// node sheds uploads past its held slots with 429 instead of parking
// them.
func TestZeroOptionsServeTheShippedBounds(t *testing.T) {
	ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{}).Routes())
	defer ts.Close()
	_, body := sessionTrace(t, ran.Mosolabs(), 9, 6*sim.Second)
	resp := postChunk(t, ts.URL, "w", "application/jsonl", -1, false, bytes.NewReader(body))
	drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/debug/flightrec/w")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(dump, []byte(`"report_stored"`)) {
		t.Fatalf("flightrec: %d %s", resp.StatusCode, dump)
	}
	if got, want := metricValue(t, ts.URL, "dominod_stream_slots"), float64(node.DefaultOptions().MaxStreams); got != want || want != 64 {
		t.Fatalf("dominod_stream_slots %v, want %v (64)", got, want)
	}

	// One slot, held by a stalled upload, and a short wait: both uploads
	// behind it are shed.
	shed := httptest.NewServer(node.New(testAnalyzer(t), node.Options{MaxStreams: 1, AdmitWait: 20 * time.Millisecond}).Routes())
	defer shed.Close()
	upload := func(id string, body io.Reader) int {
		resp, err := http.Post(shed.URL+"/ingest?session="+id, "application/jsonl", body)
		if err != nil {
			t.Error(err)
			return 0
		}
		drainClose(resp)
		return resp.StatusCode
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	go upload("holder", pr)
	if _, err := pw.Write(jsonlPrefix(t, body, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "holder admitted", func() bool { return slotsInUse(t, shed.URL) == 1 })
	codes := make(chan int, 2)
	for _, id := range []string{"late-1", "late-2"} {
		go func() { codes <- upload(id, bytes.NewReader(body)) }()
	}
	for range 2 {
		if code := <-codes; code != http.StatusTooManyRequests {
			t.Fatalf("upload past the held slot: %d, want 429", code)
		}
	}
}

// TestHealthzBuildInfo pins the /healthz payload: readiness plus the
// same build identity surfaced by domino_build_info.
func TestHealthzBuildInfo(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 1})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	var hz struct {
		Status    string `json:"status"`
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("status %q", hz.Status)
	}
	if hz.Version == "" {
		t.Fatal("empty version")
	}
	if hz.GoVersion != runtime.Version() {
		t.Fatalf("go_version %q, want %q", hz.GoVersion, runtime.Version())
	}
}
