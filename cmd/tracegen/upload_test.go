package main

// Upload-mode coverage: tracegen -upload must survive a flaky dominod,
// retrying with backoff and eventually delivering the full trace.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// flakyIngest fails the first n upload attempts with a retryable
// status, then accepts, recording every delivered body.
type flakyIngest struct {
	mu       sync.Mutex
	failLeft int
	attempts int
	body     []byte
}

func (f *flakyIngest) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.attempts++
		if f.failLeft > 0 {
			f.failLeft--
			w.Header().Set("Retry-After", "0")
			http.Error(w, "simulated outage", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.body = body
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"state":"done"}`)
	})
	mux.HandleFunc("GET /sessions/{id}/watermark", func(w http.ResponseWriter, r *http.Request) {
		// Nothing accepted yet: clients restart from record 0.
		http.NotFound(w, r)
	})
	return mux
}

func TestUploadRetriesAgainstFlakyServer(t *testing.T) {
	flaky := &flakyIngest{failLeft: 2}
	ts := httptest.NewServer(flaky.handler())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	kept := filepath.Join(t.TempDir(), "call.jsonl")
	code := run([]string{
		"-cell", "mosolabs", "-duration", "2", "-seed", "9",
		"-upload", ts.URL, "-session", "flaky-call", "-o", kept,
		"-retries", "4", "-backoff", "1ms",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if flaky.attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 failures + success)", flaky.attempts)
	}
	if !strings.Contains(stderr.String(), "uploaded session flaky-call") {
		t.Fatalf("stderr missing upload summary: %s", stderr.String())
	}
	// The summary surfaces the full client Stats: both 503 rounds are
	// shed retries, and nothing resumed (the watermark stub reports 0).
	if !strings.Contains(stderr.String(), "(3 attempt(s), 0 resumed, 2 shed-retries)") {
		t.Fatalf("summary missing client stats: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("upload run wrote %d bytes to stdout", stdout.Len())
	}
	// -o beside -upload keeps the bytes that were uploaded.
	if file, err := os.ReadFile(kept); err != nil || !bytes.Equal(file, flaky.body) {
		t.Fatalf("kept file (%d bytes, %v) differs from the uploaded body (%d bytes)", len(file), err, len(flaky.body))
	}

	// The delivered body is the same trace a plain file run produces.
	var fileOut, fileErr bytes.Buffer
	if code := run([]string{"-cell", "mosolabs", "-duration", "2", "-seed", "9"}, &fileOut, &fileErr); code != 0 {
		t.Fatalf("file run exit %d: %s", code, fileErr.String())
	}
	if !bytes.Equal(flaky.body, fileOut.Bytes()) {
		t.Fatalf("uploaded body (%d bytes) differs from generated trace (%d bytes)",
			len(flaky.body), fileOut.Len())
	}
}

func TestUploadExhaustsRetries(t *testing.T) {
	flaky := &flakyIngest{failLeft: 99}
	ts := httptest.NewServer(flaky.handler())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-cell", "mosolabs", "-duration", "1",
		"-upload", ts.URL, "-retries", "2", "-backoff", "1ms",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "retries exhausted") {
		t.Fatalf("stderr missing retry diagnosis: %s", stderr.String())
	}
	if flaky.attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3 (initial + 2 retries)", flaky.attempts)
	}
}
