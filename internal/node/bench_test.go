package node_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// ingestFleet starts the node the ingest benchmarks and
// TestIngestAllocsPerRecord upload to and returns an upload of one whole
// call under a fresh session id.
func ingestFleet(tb testing.TB, sessions int) (upload func(id, contentType string, body []byte) error) {
	srv := node.New(testAnalyzer(tb), node.Options{MaxStreams: sessions, MaxSessions: 64})
	ts := httptest.NewServer(srv.Routes())
	tb.Cleanup(ts.Close)
	client := ts.Client()
	return func(id, contentType string, body []byte) error {
		resp, err := client.Post(ts.URL+"/ingest?session="+id, contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("ingest %s: status %d: %s", id, resp.StatusCode, msg)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
}

// benchIngest measures fleet-shaped ingest: many concurrent session
// uploads through the full HTTP path (Content-Type negotiation, the
// session table, pooled per-session analyzers, each block decoded and
// stepped on its request's goroutine). Each iteration POSTs `sessions`
// concurrent streams of one pre-generated 10 s trace in the given wire
// format; records/s counts every data record analyzed across the fleet
// per wall-clock second.
func benchIngest(b *testing.B, contentType string, body []byte, recordsPerSession int) {
	const sessions = 16
	upload := ingestFleet(b, sessions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for j := 0; j < sessions; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				errs[j] = upload(fmt.Sprintf("bench-%d-%d", i, j), contentType, body)
			}(j)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(recordsPerSession*sessions*b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(sessions*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// TestIngestAllocsPerRecord bounds what a whole-call upload allocates per
// record, HTTP client and server included, once the node's pools are
// warm: the analysis is pooled and the decode recycles its blocks, so
// what is left is per request and per window, not per record. One upload
// at a time, so the count does not depend on how uploads interleave.
// Ceilings are 1.3 × what was measured on the benchmarks' 10 s trace,
// with either reader on a ring borrowed from the node's pool.
func TestIngestAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts; the ring pool's misses then show as allocations")
	}
	// With the collector off, no cycle empties the pools mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	set, jsonl := sessionTrace(t, ran.Amarisoft(), 21, 10*sim.Second)
	records := float64(benchTraceRecords(set))
	upload := ingestFleet(t, 1)
	for _, format := range []struct {
		name, contentType string
		body              []byte
		ceiling           float64
	}{
		{"jsonl", "application/jsonl", jsonl, 0.0188},                         // measured 0.01452: 172 per upload of 11 849 records
		{"binary", "application/x-domino-trace", binaryTrace(t, set), 0.0204}, // measured 0.01570: 186 per upload
	} {
		i := 0
		got := testing.AllocsPerRun(8, func() {
			i++
			if err := upload(fmt.Sprintf("%s-%d", format.name, i), format.contentType, format.body); err != nil {
				t.Fatal(err)
			}
		}) / records
		if got > format.ceiling {
			t.Errorf("%s: %.5f allocs per record (%.0f per upload), ceiling %.5f", format.name, got, got*records, format.ceiling)
		} else {
			t.Logf("%s: %.5f allocs per record (%.0f per upload of %.0f records)", format.name, got, got*records, records)
		}
	}
}

// TestIngestBytesPerChunk bounds the bytes a live chunk costs the node
// beyond its records: a resumable JSONL session in twenty requests, as
// fleet-live sends a call, with the node's pools warm. A request borrows
// its block storage and its 64 KiB line buffer from the ring pool: the
// ceiling is 1.3 × the 42.5 KB PR 21 measured (HTTP client and report
// growth included), and a reader that makes its own line buffer measures
// 108 KB.
func TestIngestBytesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, jsonl := sessionTrace(t, ran.Amarisoft(), 21, 10*sim.Second)
	lines := bytes.SplitAfter(jsonl, []byte("\n"))
	lines = lines[:len(lines)-1] // nothing follows the last newline
	const chunks = 20
	var seq [chunks]int
	var body [chunks][]byte
	for c := range body {
		seq[c] = c * len(lines) / chunks
		body[c] = bytes.Join(lines[seq[c]:(c+1)*len(lines)/chunks], nil)
	}
	srv := node.New(testAnalyzer(t), node.Options{MaxStreams: 1, MaxSessions: 64})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()
	session := func(id string) {
		for c := 0; c < chunks; c++ {
			resp := postChunk(t, ts.URL, id, "application/jsonl", seq[c], c == chunks-1, bytes.NewReader(body[c]))
			drainClose(resp)
			if want := map[bool]int{false: http.StatusAccepted, true: http.StatusOK}[c == chunks-1]; resp.StatusCode != want {
				t.Fatalf("chunk %d: status %d, want %d", c, resp.StatusCode, want)
			}
		}
	}
	session("warm-0")
	session("warm-1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const sessions = 4
	for i := 0; i < sessions; i++ {
		session(fmt.Sprintf("live-%d", i))
	}
	runtime.ReadMemStats(&after)
	perChunk := float64(after.TotalAlloc-before.TotalAlloc) / (sessions * chunks)
	const ceiling = 55 << 10
	if perChunk > ceiling {
		t.Errorf("%.0f bytes allocated per chunk, ceiling %d", perChunk, ceiling)
	} else {
		t.Logf("%.0f bytes allocated per chunk (client and test included)", perChunk)
	}
}

// benchTraceRecords is the per-session data-record count of the
// benchmark trace.
func benchTraceRecords(set *trace.Set) int {
	c := set.Counts()
	return c.DCI + c.GNBLog + c.Packets + c.WebRTC
}

// BenchmarkDominodIngest is the JSONL compatibility-path ingest
// benchmark (the PR 5 baseline shape).
func BenchmarkDominodIngest(b *testing.B) {
	set, body := sessionTrace(b, ran.Amarisoft(), 21, 10*sim.Second)
	benchIngest(b, "application/jsonl", body, benchTraceRecords(set))
}

// BenchmarkDominodIngestBinary is the same fleet workload over the
// compact binary columnar format — the negotiated fast path.
func BenchmarkDominodIngestBinary(b *testing.B) {
	set, _ := sessionTrace(b, ran.Amarisoft(), 21, 10*sim.Second)
	benchIngest(b, "application/x-domino-trace", binaryTrace(b, set), benchTraceRecords(set))
}
