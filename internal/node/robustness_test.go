package node_test

// Fault-tolerance coverage for the ingest surface: load shedding,
// body caps, slot-leak regressions, the resumable-session contract
// (X-Domino-Seq / X-Domino-Eos / watermark), drain behavior, and the
// write-ahead journal wiring. The end-to-end chaos differential lives
// in chaos_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// postIngest issues one ingest request with the resumable-contract
// headers. seq < 0 omits X-Domino-Seq (the legacy one-shot contract).
func postChunk(t testing.TB, url, session, contentType string, seq int, eos bool, body io.Reader) *http.Response {
	t.Helper()
	resp, err := tryPostChunk(url, session, contentType, seq, eos, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// tryPostChunk is postChunk for a goroutine, which cannot end the test:
// it returns the error postChunk fails the test with.
func tryPostChunk(url, session, contentType string, seq int, eos bool, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/ingest?session="+session, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if seq >= 0 {
		ingest.Request{Seq: seq, Resumable: true, Eos: eos}.SetHeaders(req.Header)
	}
	return http.DefaultClient.Do(req)
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// jsonlPrefix returns the first n newline-terminated lines of body.
func jsonlPrefix(t testing.TB, body []byte, n int) []byte {
	t.Helper()
	rest := body
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			t.Fatalf("body has fewer than %d lines", n)
		}
		rest = rest[nl+1:]
	}
	return body[:len(body)-len(rest)]
}

func TestIngestBodyCapReleasesSlot(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, MaxBody: 2048})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Presets()[0], 7, 5*sim.Second)
	if len(body) <= 2048 {
		t.Fatalf("trace too small (%d bytes) to exercise the cap", len(body))
	}
	resp := postChunk(t, ts.URL, "big", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit upload got %d, want 413", resp.StatusCode)
	}
	drainClose(resp)
	if in := slotsInUse(t, ts.URL); in != 0 {
		t.Fatalf("413 leaked %v limiter slots", in)
	}

	// The ID is burned (failed session) but capacity is not: a fresh
	// under-limit session must sail through.
	small := jsonlPrefix(t, body, 3)
	if len(small) > 2048 {
		t.Fatalf("follow-up body %d bytes, does not fit the cap", len(small))
	}
	resp = postChunk(t, ts.URL, "ok", "application/jsonl", -1, false, bytes.NewReader(small))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up ingest got %d, want 200", resp.StatusCode)
	}
	drainClose(resp)
}

func TestIngestOverloadSheds429(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 1, AdmitWait: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Presets()[0], 8, 2*sim.Second)
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		resp, err := tryPostChunk(ts.URL, "holder", "application/jsonl", -1, false, pr)
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		defer drainClose(resp)
		done <- resp.StatusCode
	}()
	// Feed the header so the holder is admitted, then stall.
	if _, err := pw.Write(jsonlPrefix(t, body, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "holder admitted", func() bool { return slotsInUse(t, ts.URL) == 1 })

	resp := postChunk(t, ts.URL, "shed", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	drainClose(resp)
	// Shed before registration: the rejected ID must not exist.
	if r, _ := http.Get(ts.URL + "/report/shed"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("shed session was registered (report status %d)", r.StatusCode)
	}

	// Unblock the holder; it still completes.
	rest := body[len(jsonlPrefix(t, body, 1)):]
	if _, err := pw.Write(rest); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("holder finished with %d after shed", code)
	}
}

func TestLimiterSlotLeakAcrossFailures(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 4})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	for i := 0; i < 12; i++ {
		resp := postChunk(t, ts.URL, fmt.Sprintf("bad-%d", i), "application/jsonl", -1, false,
			strings.NewReader("this is not a trace\n"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed ingest %d got %d, want 400", i, resp.StatusCode)
		}
		drainClose(resp)
	}
	if in := slotsInUse(t, ts.URL); in != 0 {
		t.Fatalf("%v limiter slots leaked across failing sessions", in)
	}
	_, body := sessionTrace(t, ran.Presets()[0], 9, 2*sim.Second)
	resp := postChunk(t, ts.URL, "after", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after failures got %d, want 200", resp.StatusCode)
	}
	drainClose(resp)
}

func TestResumableJSONLChunksAndDedup(t *testing.T) {
	analyzer := testAnalyzer(t)
	srv := node.New(analyzer, node.Options{MaxStreams: 4})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	set, body := sessionTrace(t, ran.Presets()[0], 11, 5*sim.Second)

	// Chunk 1: records 0..9, no EOS — acked with the watermark.
	resp := postChunk(t, ts.URL, "res", "application/jsonl", 0, false, bytes.NewReader(jsonlPrefix(t, body, 10)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk got %d, want 202", resp.StatusCode)
	}
	var wm ingest.Watermark
	mustDecode(t, resp, &wm)
	if wm.Accepted != 10 || wm.State != "active" {
		t.Fatalf("watermark after chunk = %+v, want 10 accepted", wm)
	}

	// The watermark endpoint agrees.
	getJSON(t, ts.URL+"/sessions/res/watermark", &wm)
	if wm.Accepted != 10 {
		t.Fatalf("GET watermark = %+v", wm)
	}

	// Chunk 2 replays from record 6 (overlapping 4 records) through the
	// end: the overlap must dedup, not double-count.
	rest := body[len(jsonlPrefix(t, body, 6)):]
	resp = postChunk(t, ts.URL, "res", "application/jsonl", 6, true, bytes.NewReader(rest))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("final chunk got %d: %s", resp.StatusCode, b)
	}
	var rep node.ReportPayload
	mustDecode(t, resp, &rep)
	if rep.State != "done" {
		t.Fatalf("state %q, want done", rep.State)
	}
	if got := metricValue(t, ts.URL, "dominod_ingest_deduped_records_total"); got != 4 {
		t.Fatalf("deduped %v records, want the 4-record overlap", got)
	}

	// Differential: the chunked+overlapped session matches the batch
	// analyzer on the same trace.
	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != len(batch.Windows) || rep.ChainEvents != batch.TotalChainEvents() {
		t.Fatalf("resumed session diverged: %d windows / %d chain events, batch %d / %d",
			rep.Windows, rep.ChainEvents, len(batch.Windows), batch.TotalChainEvents())
	}

	// Idempotent completion replay: a client that lost the 200 resends
	// its final chunk and must get the report again, not a 409.
	resp = postChunk(t, ts.URL, "res", "application/jsonl", 6, true, bytes.NewReader(rest))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion replay got %d, want 200", resp.StatusCode)
	}
	drainClose(resp)
}

func TestResumableSeqGap412(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()
	_, body := sessionTrace(t, ran.Presets()[0], 12, 2*sim.Second)
	resp := postChunk(t, ts.URL, "gap", "application/jsonl", 5, true, bytes.NewReader(body))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("gapped upload got %d, want 412", resp.StatusCode)
	}
	drainClose(resp)
	// Nothing registered, nothing leaked: the client restarts from 0.
	if r, _ := http.Get(ts.URL + "/report/gap"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("gapped session was registered (report status %d)", r.StatusCode)
	}
	resp = postChunk(t, ts.URL, "gap", "application/jsonl", 0, true, bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart from 0 got %d", resp.StatusCode)
	}
	drainClose(resp)
}

func TestResumableBinaryInterruptAndResend(t *testing.T) {
	analyzer := testAnalyzer(t)
	srv := node.New(analyzer, node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	set, _ := sessionTrace(t, ran.Presets()[1], 13, 5*sim.Second)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, set); err != nil {
		t.Fatal(err)
	}

	// Interrupt a resumable binary upload mid-stream: the session must
	// suspend (stay active, watermark preserved), not fail.
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest?session=bres", pr)
		req.Header.Set("Content-Type", ingest.ContentTypeBinary)
		req.Header.Set(ingest.HeaderSeq, "0")
		req.Header.Set(ingest.HeaderEos, "1")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			drainClose(resp)
		}
		errc <- err
	}()
	if _, err := pw.Write(bin.Bytes()[:bin.Len()/2]); err != nil {
		t.Fatal(err)
	}
	pw.CloseWithError(fmt.Errorf("connection torn"))
	<-errc

	// The client saw the reset, but the interrupted handler may still be
	// consuming buffered bytes and advancing the watermark: sample it only
	// once that handler has released the session (it frees its admission
	// slot right after the session).
	var wm ingest.Watermark
	waitFor(t, "session suspended with progress", func() bool {
		if slotsInUse(t, ts.URL) != 0 {
			return false
		}
		resp, err := http.Get(ts.URL + "/sessions/bres/watermark")
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		mustDecode(t, resp, &wm)
		return wm.State == "active" && wm.Accepted > 0
	})

	// Binary clients cannot splice mid-stream: full resend at seq 0,
	// server dedups the accepted prefix.
	resp := postChunk(t, ts.URL, "bres", ingest.ContentTypeBinary, 0, true, bytes.NewReader(bin.Bytes()))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary resend got %d: %s", resp.StatusCode, b)
	}
	var rep node.ReportPayload
	mustDecode(t, resp, &rep)
	if rep.State != "done" {
		t.Fatalf("state %q, want done", rep.State)
	}
	if got := metricValue(t, ts.URL, "dominod_ingest_deduped_records_total"); int(got) != wm.Accepted {
		t.Fatalf("deduped %v, want the %d-record accepted prefix", got, wm.Accepted)
	}
	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != len(batch.Windows) || rep.ChainEvents != batch.TotalChainEvents() {
		t.Fatalf("resumed binary session diverged from batch analysis")
	}
}

// encodeBinaryRecords encodes a header and records as one DMNTRCB1
// stream, the way a collector's streaming writer would.
func encodeBinaryRecords(t testing.TB, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumableBinaryResumeMidBlock resumes a binary session from a
// watermark that falls inside a block of the resent stream — header
// plus 300 records accepted, so the resend's first 512-record block is
// deduplicated up to its 300th record and analyzed from there — and
// pins the watermark a failure in the middle of a block leaves behind.
func TestResumableBinaryResumeMidBlock(t *testing.T) {
	analyzer := testAnalyzer(t)
	_, body := sessionTrace(t, ran.Presets()[1], 13, 10*sim.Second)
	var recs []trace.Record // header first
	for sr := trace.NewStreamReader(bytes.NewReader(body)); ; {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	full := encodeBinaryRecords(t, recs)
	report := func(base, id string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/report/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /report/%s: %d %v", id, resp.StatusCode, err)
		}
		return b
	}

	// The reference: the same session ID, uploaded in one piece to a
	// node of its own.
	ref := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 2}).Routes())
	defer ref.Close()
	drainClose(postChunk(t, ref.URL, "mid", ingest.ContentTypeBinary, -1, false, bytes.NewReader(full)))

	ts := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 2}).Routes())
	defer ts.Close()
	const accepted = 1 + 300
	var wm ingest.Watermark
	resp := postChunk(t, ts.URL, "mid", ingest.ContentTypeBinary, 0, false, bytes.NewReader(encodeBinaryRecords(t, recs[:accepted])))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first chunk got %d", resp.StatusCode)
	}
	mustDecode(t, resp, &wm)
	if wm.Accepted != accepted {
		t.Fatalf("watermark %d after the first chunk, want %d", wm.Accepted, accepted)
	}
	resp = postChunk(t, ts.URL, "mid", ingest.ContentTypeBinary, 0, true, bytes.NewReader(full))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("resend got %d: %s", resp.StatusCode, b)
	}
	drainClose(resp)
	if got := metricValue(t, ts.URL, "dominod_ingest_deduped_records_total"); int(got) != accepted {
		t.Fatalf("deduped %v records, want exactly the %d accepted", got, accepted)
	}
	if got, want := report(ts.URL, "mid"), report(ref.URL, "mid"); !bytes.Equal(got, want) {
		t.Fatalf("report after a mid-block resume differs from the one-shot upload's:\n%s\n%s", got, want)
	}

	// A record that arrives after its window closed, 100 records into a
	// block: the session fails having analyzed exactly the records
	// before it (the header is not one of them), and its resume point is
	// a fresh session's.
	const late = 1 + 40*512 + 100 // header, 40 blocks, 100 records
	if late >= len(recs) {
		t.Fatalf("trace holds %d records, need more than %d", len(recs), late)
	}
	bad := append(append(append([]trace.Record(nil), recs[:late]...), recs[1]), recs[late:]...)
	resp = postChunk(t, ts.URL, "late", ingest.ContentTypeBinary, -1, false, bytes.NewReader(encodeBinaryRecords(t, bad)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("late record got %d, want 400", resp.StatusCode)
	}
	drainClose(resp)
	var failed node.ReportPayload
	getJSON(t, ts.URL+"/report/late", &failed)
	getJSON(t, ts.URL+"/sessions/late/watermark", &wm)
	if wm.State != "failed" || wm.Accepted != 0 || failed.Records != late-1 {
		t.Fatalf("after a late record at index %d: state %q, watermark %d, %d records analyzed", late, wm.State, wm.Accepted, failed.Records)
	}
}

// TestResumableJSONLResumeMidBlock is the same resume on JSONL, where
// the blocks are the server's own (256 lines of the request body): the
// client resends from a sequence number below the watermark, so the
// part to deduplicate ends inside the resend's first block.
func TestResumableJSONLResumeMidBlock(t *testing.T) {
	analyzer := testAnalyzer(t)
	_, body := sessionTrace(t, ran.Presets()[1], 13, 10*sim.Second)
	ref := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 2}).Routes())
	defer ref.Close()
	drainClose(postChunk(t, ref.URL, "mid", "application/jsonl", -1, false, bytes.NewReader(body)))

	ts := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 2}).Routes())
	defer ts.Close()
	const accepted, resendFrom = 1 + 300, 100 // lines, the header included
	var wm ingest.Watermark
	resp := postChunk(t, ts.URL, "mid", "application/jsonl", 0, false, bytes.NewReader(jsonlPrefix(t, body, accepted)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first chunk got %d", resp.StatusCode)
	}
	mustDecode(t, resp, &wm)
	if wm.Accepted != accepted {
		t.Fatalf("watermark %d after the first chunk, want %d", wm.Accepted, accepted)
	}
	resp = postChunk(t, ts.URL, "mid", "application/jsonl", resendFrom, true, bytes.NewReader(body[len(jsonlPrefix(t, body, resendFrom)):]))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("resend got %d: %s", resp.StatusCode, b)
	}
	drainClose(resp)
	if got := metricValue(t, ts.URL, "dominod_ingest_deduped_records_total"); int(got) != accepted-resendFrom {
		t.Fatalf("deduped %v records, want the %d resent below the watermark", got, accepted-resendFrom)
	}
	if got, want := fetchReport(t, ts.URL, "mid"), fetchReport(t, ref.URL, "mid"); !bytes.Equal(got, want) {
		t.Fatalf("report after a mid-block resume differs from the one-shot upload's:\n%s\n%s", got, want)
	}
}

// traceRecords decodes a JSONL trace into its records, the header first.
func traceRecords(t testing.TB, body []byte) []trace.Record {
	t.Helper()
	var recs []trace.Record
	for sr := trace.NewStreamReader(bytes.NewReader(body)); ; {
		rec, err := sr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// TestConcurrentUploadsPollsAndScrapes is the -race pin of the node's
// concurrency: requests are its only goroutines, so sixteen uploaders —
// four calls × both wire formats × one-shot or resumable in three
// chunks — a /sessions poller and a /metrics scraper share one session
// table and eight admission slots, and every report still equals batch
// analysis, with nothing left active and no slot held at the end.
func TestConcurrentUploadsPollsAndScrapes(t *testing.T) {
	analyzer := testAnalyzer(t)
	ts := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 8}).Routes())
	defer ts.Close()

	type part struct {
		seq  int // < 0: one-shot
		eos  bool
		body []byte
	}
	type upload struct {
		id, contentType string
		set             *trace.Set
		parts           []part
	}
	var uploads []upload
	for ci, cell := range ran.Presets() {
		set, body := sessionTrace(t, cell, uint64(40+ci), 6*sim.Second)
		recs := traceRecords(t, body)
		n := len(recs) // records, the header one of them: JSONL lines
		var jsonl, binary []part
		for k, prev := 0, 0; k < 3; k++ {
			cut := n * (k + 1) / 3
			// A JSONL chunk is the next lines; a binary chunk is a whole
			// stream from record 0 that the node skips the prefix of.
			jsonl = append(jsonl, part{prev, k == 2, body[len(jsonlPrefix(t, body, prev)):len(jsonlPrefix(t, body, cut))]})
			binary = append(binary, part{0, k == 2, encodeBinaryRecords(t, recs[:cut])})
			prev = cut
		}
		whole := binary[2].body
		uploads = append(uploads,
			upload{fmt.Sprintf("c%d-jsonl", ci), ingest.ContentTypeJSONL, set, []part{{-1, true, body}}},
			upload{fmt.Sprintf("c%d-binary", ci), ingest.ContentTypeBinary, set, []part{{-1, true, whole}}},
			upload{fmt.Sprintf("c%d-jsonl-chunked", ci), ingest.ContentTypeJSONL, set, jsonl},
			upload{fmt.Sprintf("c%d-binary-chunked", ci), ingest.ContentTypeBinary, set, binary})
	}

	stop := make(chan struct{})
	var readers, senders sync.WaitGroup
	for _, path := range []string{"/sessions", "/metrics"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				drainClose(resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d", path, resp.StatusCode)
				}
			}
		}()
	}
	for _, u := range uploads {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for _, p := range u.parts {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest?session="+u.id, bytes.NewReader(p.body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", u.contentType)
				if p.seq >= 0 {
					ingest.Request{Seq: p.seq, Resumable: true, Eos: p.eos}.SetHeaders(req.Header)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s: %v", u.id, err)
					return
				}
				drainClose(resp)
				if want := map[bool]int{false: http.StatusAccepted, true: http.StatusOK}[p.eos]; resp.StatusCode != want {
					t.Errorf("%s chunk at %d: %d, want %d", u.id, p.seq, resp.StatusCode, want)
					return
				}
			}
		}()
	}
	senders.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, u := range uploads {
		checkAgainstBatch(t, analyzer, ts.URL, u.id, u.set)
	}
	waitFor(t, "every admission slot to be released", func() bool { return slotsInUse(t, ts.URL) == 0 })
	if active, registered := metricValue(t, ts.URL, "dominod_sessions_active"), metricValue(t, ts.URL, "dominod_sessions_registered"); active != 0 || int(registered) != len(uploads) {
		t.Fatalf("%v sessions active of %v registered, want 0 of %d", active, registered, len(uploads))
	}
}

// dropFirstPost loses the first upload before it reaches the server, the
// way a keep-alive connection that died between calls does.
type dropFirstPost struct{ dropped bool }

func (d *dropFirstPost) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && !d.dropped {
		d.dropped = true
		return nil, errors.New("connection reset by peer")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRetryOfFailedSessionStartsOver pins that a failed session's
// watermark is the one its replacement is measured against: a client
// whose first attempt is lost probes it before retrying, and must be
// told 0 — not the dead session's count, which Admit answers with a 412
// that tells it to probe again — so the second attempt lands.
func TestRetryOfFailedSessionStartsOver(t *testing.T) {
	analyzer := testAnalyzer(t)
	ts := httptest.NewServer(node.New(analyzer, node.Options{MaxStreams: 2}).Routes())
	defer ts.Close()
	set, body := sessionTrace(t, ran.Presets()[0], 17, 5*sim.Second)

	broken := append(bytes.Clone(jsonlPrefix(t, body, 1000)), "not jsonl\n"...)
	resp := postChunk(t, ts.URL, "call", "application/jsonl", -1, false, bytes.NewReader(broken))
	drainClose(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken upload: %d, want 400", resp.StatusCode)
	}
	var wm ingest.Watermark
	getJSON(t, ts.URL+"/sessions/call/watermark", &wm)
	if wm.State != ingest.StateFailed || wm.Accepted != 0 {
		t.Fatalf("failed session's watermark = %+v, want failed at 0", wm)
	}

	c := ingest.New(ingest.Options{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: &dropFirstPost{}},
		Retries:    3,
		Sleep:      func(time.Duration) {},
	})
	stats, err := c.Upload(context.Background(), "call", ingest.ContentTypeJSONL, body)
	if err != nil || stats.Attempts != 2 || stats.Resumed != 0 {
		t.Fatalf("retry over a failed session: %+v, %v; want success on the second attempt, from record 0", stats, err)
	}
	checkAgainstBatch(t, analyzer, ts.URL, "call", set)
}

func TestTruncatedBinaryFailsSessionWithPartialReport(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	set, _ := sessionTrace(t, ran.Presets()[0], 14, 10*sim.Second)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, set); err != nil {
		t.Fatal(err)
	}
	// Legacy contract (no seq header): a truncated stream is a hard
	// failure, served as a partial report — never a hang.
	cut := bin.Bytes()[:bin.Len()*3/4]
	resp := postChunk(t, ts.URL, "trunc", ingest.ContentTypeBinary, -1, false, bytes.NewReader(cut))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated binary got %d, want 400", resp.StatusCode)
	}
	drainClose(resp)
	var rep node.ReportPayload
	getJSON(t, ts.URL+"/report/trunc", &rep)
	if rep.State != "failed" || rep.Error == "" {
		t.Fatalf("state %q error %q, want failed with cause", rep.State, rep.Error)
	}
	if rep.Records == 0 {
		t.Fatal("partial report retained no records from before the truncation")
	}

	// Same for a corrupted frame partway through.
	garbled := append([]byte(nil), bin.Bytes()...)
	copy(garbled[len(garbled)/2:], bytes.Repeat([]byte{0x01}, 16))
	resp = postChunk(t, ts.URL, "garbled", ingest.ContentTypeBinary, -1, false, bytes.NewReader(garbled))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbled binary got %d, want 400", resp.StatusCode)
	}
	drainClose(resp)
	getJSON(t, ts.URL+"/report/garbled", &rep)
	if rep.State != "failed" {
		t.Fatalf("state %q, want failed", rep.State)
	}
	if in := slotsInUse(t, ts.URL); in != 0 {
		t.Fatalf("%v slots leaked by mid-stream failures", in)
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	srv.Drain()
	_, body := sessionTrace(t, ran.Presets()[0], 15, 2*sim.Second)
	resp := postChunk(t, ts.URL, "late", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest during drain got %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	drainClose(resp)

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	mustDecode(t, hz, &health)
	if hz.StatusCode != http.StatusServiceUnavailable || health["status"] != "draining" {
		t.Fatalf("healthz during drain: %d %v, want 503 draining", hz.StatusCode, health)
	}
}

func TestJournalWiredThroughServer(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.spill")
	st, j, _, err := rcastore.Recover(ckpt, filepath.Join(dir, "store.wal"), rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Time(1_700_000_000_000_000)
	srv := node.New(testAnalyzer(t), node.Options{
		MaxStreams: 2, Store: st, Journal: j,
		CheckpointPath: ckpt, CheckpointEvery: 2,
		Now: func() sim.Time { return at },
	})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		_, body := sessionTrace(t, ran.Presets()[i], uint64(20+i), 2*sim.Second)
		resp := postChunk(t, ts.URL, fmt.Sprintf("j-%d", i), "application/jsonl", -1, false, bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d got %d", i, resp.StatusCode)
		}
		drainClose(resp)
	}
	if got := metricValue(t, ts.URL, "dominod_journal_appends_total"); got != 2 {
		t.Fatalf("journal recorded %v appends, want 2", got)
	}
	// CheckpointEvery=2 fires an async checkpoint after the second
	// report; it lands as an atomic rename.
	waitFor(t, "async checkpoint written", func() bool {
		if metricValue(t, ts.URL, "dominod_journal_checkpoints_total") == 0 {
			return false
		}
		loaded, err := rcastore.Load(mustOpen(t, ckpt), rcastore.Options{})
		return err == nil && loaded.Len() == 2
	})
}

// TestStoreAndJournalMetrics pins the store and journal families to the
// Stats they export: a crash-window recovery (the checkpoint holds the
// first three of five journaled reports), one upload, a read of each
// kind, and the shutdown checkpoint.
func TestStoreAndJournalMetrics(t *testing.T) {
	dir := t.TempDir()
	ckpt, wal := filepath.Join(dir, "store.spill"), filepath.Join(dir, "store.wal")
	checkpointed := rcastore.New(rcastore.Options{})
	j, err := rcastore.OpenJournal(wal, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec := rcastore.Record{Session: fmt.Sprintf("r%d", i), Cell: "c", Start: sim.Time(i) * sim.Second, End: sim.Time(i+1) * sim.Second, Fired: []string{"sinr_drop"}}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			checkpointed.Insert(rec)
		}
	}
	j.Close()
	var spill bytes.Buffer
	if err := checkpointed.Spill(&spill); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, spill.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, j, stats, err := rcastore.Recover(ckpt, wal, rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil || stats.Replayed != 2 || stats.Deduped != 3 {
		t.Fatalf("recovery %+v, %v; want 2 replayed, 3 deduped", stats, err)
	}
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, Store: st, Journal: j, CheckpointPath: ckpt, Recovery: &stats})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Presets()[0], 30, 2*sim.Second)
	resp := postChunk(t, ts.URL, "live", "application/jsonl", -1, false, bytes.NewReader(body))
	drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest got %d", resp.StatusCode)
	}
	// /incidents/similar?session= reads twice: the probe, then the ranking.
	for _, q := range []string{"/query", "/query?agg=top_chains", "/query?agg=cause_rates", "/incidents/similar?session=r0"} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", q, resp.StatusCode)
		}
	}
	if err := srv.Shutdown(context.Background(), &http.Server{}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dominod_journal_replayed_total":    2,
		"dominod_journal_deduped_total":     3,
		"dominod_journal_appends_total":     1,
		"dominod_journal_syncs_total":       1,
		"dominod_journal_checkpoints_total": 1,
		"dominod_rcastore_queries_total":    5,
		"dominod_rcastore_spills_total":     1,
	} {
		if got := metricValue(t, ts.URL, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// stallFS is the host filesystem with fsyncs held until release closes;
// the first one held reports on parked.
type stallFS struct {
	rcastore.OsFS
	parked, release chan struct{}
}

func (fs *stallFS) OpenFile(name string, flag int, perm os.FileMode) (rcastore.File, error) {
	f, err := fs.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return stallFile{f, fs}, nil
}

type stallFile struct {
	rcastore.File
	fs *stallFS
}

func (f stallFile) Sync() error {
	select {
	case f.fs.parked <- struct{}{}:
	default:
	}
	<-f.fs.release
	return f.File.Sync()
}

// TestScrapeDuringJournalFsync pins that a scrape never waits on an
// fsync: while an upload is parked in its journal fsync, /metrics answers
// within a second, showing the append and not yet the sync.
func TestScrapeDuringJournalFsync(t *testing.T) {
	fs := &stallFS{parked: make(chan struct{}, 1), release: make(chan struct{})}
	dir := t.TempDir()
	j, err := rcastore.OpenJournal(filepath.Join(dir, "store.wal"), rcastore.JournalOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, Journal: j, CheckpointPath: filepath.Join(dir, "store.spill")})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(fs.release) }) }
	defer release()

	_, body := sessionTrace(t, ran.Presets()[0], 31, 2*sim.Second)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/ingest?session=held", "application/jsonl", bytes.NewReader(body))
		if err == nil {
			drainClose(resp)
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	select {
	case <-fs.parked:
	case err := <-done:
		t.Fatalf("the upload finished (%v) without an fsync", err)
	}

	resp, err := (&http.Client{Timeout: time.Second}).Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape during a held fsync: %v", err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\ndominod_journal_appends_total 1\n", "\ndominod_journal_syncs_total 0\n"} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("scrape during a held fsync lacks %q", strings.TrimSpace(want))
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("held upload: %v", err)
	}
	if got := metricValue(t, ts.URL, "dominod_journal_syncs_total"); got != 1 {
		t.Fatalf("dominod_journal_syncs_total = %v after the fsync, want 1", got)
	}
}

// metricValue scrapes base's /metrics and returns the value of the
// unlabelled sample name.
func metricValue(t testing.TB, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return 0
}

// slotsInUse is how many admission slots base's node has handed out.
func slotsInUse(t testing.TB, base string) float64 {
	return metricValue(t, base, "dominod_stream_slots_in_use")
}

func mustOpen(t testing.TB, path string) io.Reader {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mustDecode(t testing.TB, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
