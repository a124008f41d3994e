package node_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// binaryTrace encodes the set in the compact binary columnar format.
func binaryTrace(t testing.TB, set *trace.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postIngest(t testing.TB, url, session, contentType string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/ingest?session="+session, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestIngestFormatNegotiation pins the Content-Type dispatch on
// /ingest: the binary media type, the JSONL family, and the sniffing
// fallback (no Content-Type, or the generic octet-stream) must all
// decode — and for every preset the binary-ingested report must be
// identical to its JSONL-ingested twin.
func TestIngestFormatNegotiation(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 4})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	for i, cell := range []ran.CellConfig{ran.Amarisoft(), ran.TMobileFDD()} {
		set, jsonlBody := sessionTrace(t, cell, uint64(70+i), 8*sim.Second)
		binBody := binaryTrace(t, set)

		cases := []struct {
			id, ct string
			body   []byte
		}{
			{fmt.Sprintf("jsonl-%d", i), "application/jsonl", jsonlBody},
			{fmt.Sprintf("json-%d", i), "application/json; charset=utf-8", jsonlBody},
			{fmt.Sprintf("bin-%d", i), "application/x-domino-trace", binBody},
			{fmt.Sprintf("bin-sniffed-%d", i), "", binBody},
			{fmt.Sprintf("bin-octet-%d", i), "application/octet-stream", binBody},
			{fmt.Sprintf("jsonl-sniffed-%d", i), "", jsonlBody},
		}
		for _, c := range cases {
			if resp := postIngest(t, ts.URL, c.id, c.ct, c.body); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s (Content-Type %q): status %d, want 200", c.id, c.ct, resp.StatusCode)
			}
		}

		// Every decode path must produce the exact same report.
		var want node.ReportPayload
		getJSON(t, ts.URL+"/report/"+cases[0].id, &want)
		if want.State != "done" {
			t.Fatalf("%s: state %q (error %q)", cases[0].id, want.State, want.Error)
		}
		want.Session = ""
		for _, c := range cases[1:] {
			var got node.ReportPayload
			getJSON(t, ts.URL+"/report/"+c.id, &got)
			got.Session = ""
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s report diverges from its JSONL twin:\ngot  %+v\nwant %+v", c.id, got, want)
			}
		}
	}
}

// TestIngestUnsupportedContentType pins the 415 path: an unknown media
// type is rejected before a session is registered, the error lists the
// supported types, and the rejected session ID stays free.
func TestIngestUnsupportedContentType(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Mosolabs(), 9, 6*sim.Second)
	for _, ct := range []string{
		"text/plain",
		"application/x-www-form-urlencoded", // curl's silent default
		"application/xml",
		"multipart/form-data; boundary", // unparseable params
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest?session=ct415", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
		for _, want := range []string{"application/x-domino-trace", "application/jsonl", "application/x-ndjson"} {
			if !strings.Contains(string(msg), want) {
				t.Fatalf("415 body for %q does not list %q: %s", ct, want, msg)
			}
		}
	}

	// The rejection happened before registration: the ID is unused and
	// immediately available to a corrected retry.
	resp, err := http.Get(ts.URL + "/report/ct415")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected session registered anyway: %d, want 404", resp.StatusCode)
	}
	if resp := postIngest(t, ts.URL, "ct415", "application/jsonl", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry with supported type: %d, want 200", resp.StatusCode)
	}
}

// TestIngestPerFormatMetrics pins the per-wire-format observability:
// both format series are registered before any ingest, and each ingest
// bumps only its own format's records counter and decode histogram.
func TestIngestPerFormatMetrics(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	// Registered up front: both series scrape at zero pre-ingest.
	fresh := scrape()
	for _, want := range []string{
		`dominod_ingest_records_total{format="binary"} 0`,
		`dominod_ingest_records_total{format="jsonl"} 0`,
		`dominod_ingest_decode_seconds_count{format="binary"} 0`,
		`dominod_ingest_decode_seconds_count{format="jsonl"} 0`,
		`dominod_ingest_body_wait_seconds_count{format="binary"} 0`,
		`dominod_ingest_body_wait_seconds_count{format="jsonl"} 0`,
	} {
		if !strings.Contains(fresh, want) {
			t.Fatalf("fresh /metrics missing %q:\n%s", want, fresh)
		}
	}

	set, jsonlBody := sessionTrace(t, ran.Amarisoft(), 33, 6*sim.Second)
	c := set.Counts()
	records := c.DCI + c.GNBLog + c.Packets + c.WebRTC
	if resp := postIngest(t, ts.URL, "mj", "application/jsonl", jsonlBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl ingest: %d", resp.StatusCode)
	}
	if resp := postIngest(t, ts.URL, "mb", "application/x-domino-trace", binaryTrace(t, set)); resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest: %d", resp.StatusCode)
	}

	after := scrape()
	for _, want := range []string{
		fmt.Sprintf(`dominod_ingest_records_total{format="binary"} %d`, records),
		fmt.Sprintf(`dominod_ingest_records_total{format="jsonl"} %d`, records),
		fmt.Sprintf("dominod_records_total %d", 2*records),
	} {
		if !strings.Contains(after, want) {
			t.Fatalf("/metrics missing %q after ingest:\n%s", want, after)
		}
	}
	// Each format observed at least one decode chunk.
	for _, f := range []string{"jsonl", "binary"} {
		for _, family := range []string{"decode", "body_wait"} {
			zero := fmt.Sprintf(`dominod_ingest_%s_seconds_count{format=%q} 0`, family, f)
			if strings.Contains(after, zero) {
				t.Fatalf("%s histogram for %s never observed:\n%s", family, f, after)
			}
		}
	}
}

// stallingBody delivers a body in parts, sleeping before each.
type stallingBody struct {
	parts [][]byte
	stall time.Duration
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if len(b.parts) == 0 {
		return 0, io.EOF
	}
	time.Sleep(b.stall)
	n := copy(p, b.parts[0])
	if b.parts[0] = b.parts[0][n:]; len(b.parts[0]) == 0 {
		b.parts = b.parts[1:]
	}
	return n, nil
}

// TestDecodeHistogramLeavesOutBodyWait pins what the two decode-side
// histograms split: an upload whose client stalls before each part
// shows the stalls in dominod_ingest_body_wait_seconds, and the decode
// histogram, which leaves them out, stays below that.
func TestDecodeHistogramLeavesOutBodyWait(t *testing.T) {
	ts := httptest.NewServer(node.New(testAnalyzer(t), node.Options{MaxStreams: 1}).Routes())
	defer ts.Close()
	_, body := sessionTrace(t, ran.Amarisoft(), 9, 4*sim.Second)
	const parts, stall = 4, 50 * time.Millisecond
	sb := &stallingBody{stall: stall}
	for i := 0; i < parts; i++ {
		sb.parts = append(sb.parts, body[i*len(body)/parts:(i+1)*len(body)/parts])
	}
	resp, err := http.Post(ts.URL+"/ingest?session=stall", "application/jsonl", sb)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	text, _ := io.ReadAll(scrape.Body)
	sum := func(family string) float64 {
		prefix := fmt.Sprintf("dominod_ingest_%s_seconds_sum{format=\"jsonl\"} ", family)
		for _, line := range strings.Split(string(text), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no %s sum in:\n%s", family, text)
		return 0
	}
	wait, decode := sum("body_wait"), sum("decode")
	if wait < (parts-1)*stall.Seconds() || decode >= wait {
		t.Fatalf("body wait %.3fs, decode %.3fs; want the wait at least %v and the decode below it", wait, decode, (parts-1)*stall)
	}
}

// TestIngestBinaryTruncated pins fail-fast on a cut-off binary upload:
// the stream errors (no silent truncation), the session fails, and the
// partial analysis up to the cut survives.
func TestIngestBinaryTruncated(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	set, _ := sessionTrace(t, ran.Amarisoft(), 5, 10*sim.Second)
	body := binaryTrace(t, set)
	if resp := postIngest(t, ts.URL, "cut", "application/x-domino-trace", body[:len(body)*3/4]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated binary ingest: %d, want 400", resp.StatusCode)
	}
	var rep node.ReportPayload
	getJSON(t, ts.URL+"/report/cut", &rep)
	if rep.State != "failed" || rep.Error == "" {
		t.Fatalf("state %q error %q, want failed with its decode error", rep.State, rep.Error)
	}
	if rep.Records == 0 {
		t.Fatalf("no partial progress before the cut: %+v", rep.SessionInfo)
	}
}
