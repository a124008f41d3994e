package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// benchIngest measures fleet-shaped ingest: many concurrent session
// uploads through the full HTTP path (Content-Type negotiation, the
// session table, pooled per-session analyzers, each block decoded and
// stepped on its request's goroutine). Each iteration POSTs `sessions`
// concurrent streams of one pre-generated 10 s trace in the given wire
// format; records/s counts every data record analyzed across the fleet
// per wall-clock second.
func benchIngest(b *testing.B, contentType string, body []byte, recordsPerSession int) {
	const sessions = 16
	srv := node.New(testAnalyzer(b), node.Options{MaxStreams: sessions, MaxSessions: 64})
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for j := 0; j < sessions; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				id := fmt.Sprintf("bench-%d-%d", i, j)
				resp, err := client.Post(ts.URL+"/ingest?session="+id, contentType, bytes.NewReader(body))
				if err != nil {
					errs[j] = err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(resp.Body)
					errs[j] = fmt.Errorf("ingest %s: status %d: %s", id, resp.StatusCode, msg)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
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
