package ingest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubServer is a scripted dominod stand-in for client tests: it treats
// body lines as records, can be scripted to fail a request after
// swallowing k records, and serves the watermark. What a request means
// for the session is Session.Admit's and Request.Settle's call, exactly
// as on a real node.
type stubServer struct {
	mu      sync.Mutex
	sess    Session  // the one session, as the protocol sees it
	records []string // accepted record lines, in order
	posts   []post   // every POST observed
	script  []verdict
}

type post struct {
	seq   int
	eos   bool
	lines int
}

// verdict scripts one POST: swallow `take` records (-1 = all), then
// answer `status` (0 = whatever the protocol says).
type verdict struct {
	take       int
	status     int
	retryAfter int
}

func (s *stubServer) handler(t *testing.T) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		req, err := ParseRequest(r.Header)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		body, _ := io.ReadAll(r.Body)
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		if len(body) == 0 {
			lines = nil
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.posts = append(s.posts, post{seq: req.Seq, eos: req.Eos, lines: len(lines)})
		v := verdict{take: -1}
		if len(s.script) > 0 {
			v, s.script = s.script[0], s.script[1:]
		}
		d := s.sess.Admit(req)
		switch d.Action {
		case Reject:
			d.Code.Reject(w, "stub")
			return
		case Replay:
			w.WriteHeader(http.StatusOK)
			return
		}
		take := len(lines)
		if v.take >= 0 && v.take < take {
			take = v.take
		}
		s.sess.State = StateActive
		for _, line := range lines[min(d.Skip, take):take] {
			s.records = append(s.records, line)
			s.sess.Accepted++
		}
		if v.status != 0 {
			if v.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(v.retryAfter))
			}
			w.WriteHeader(v.status)
			return
		}
		if req.Settle(EndClean) == Complete {
			s.sess.State = StateDone
			w.WriteHeader(http.StatusOK)
			return
		}
		WriteJSON(w, http.StatusAccepted, Watermark{Session: r.URL.Query().Get("session"), Accepted: s.sess.Accepted, State: s.sess.State})
	})
	mux.HandleFunc("GET /sessions/{id}/watermark", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		WriteJSON(w, http.StatusOK, Watermark{Session: r.PathValue("id"), Accepted: s.sess.Accepted, State: StateActive})
	})
	return mux
}

func payloadLines(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"header":true}` + "\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"record":%d}`+"\n", i)
	}
	return b.Bytes()
}

func newTestClient(url string, retries int) *Client {
	return New(Options{
		BaseURL: url,
		Retries: retries,
		Backoff: time.Millisecond,
		Seed:    1,
		Sleep:   func(time.Duration) {},
	})
}

func TestUploadCleanFirstTry(t *testing.T) {
	stub := &stubServer{}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	c := newTestClient(srv.URL, 3)
	stats, err := c.Upload(context.Background(), "s1", ContentTypeJSONL, payloadLines(9))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 1 || stats.Resumed != 0 {
		t.Fatalf("stats = %+v, want one clean attempt", stats)
	}
	if stub.sess.Accepted != 10 || stub.sess.State != StateDone {
		t.Fatalf("server accepted %d records, state %q", stub.sess.Accepted, stub.sess.State)
	}
}

func TestUploadResumesFromWatermark(t *testing.T) {
	stub := &stubServer{script: []verdict{{take: 4, status: http.StatusServiceUnavailable}}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	c := newTestClient(srv.URL, 3)
	payload := payloadLines(9)
	stats, err := c.Upload(context.Background(), "s1", ContentTypeJSONL, payload)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 2 || stats.Resumed != 1 {
		t.Fatalf("stats = %+v, want one resume", stats)
	}
	if len(stub.posts) != 2 || stub.posts[1].seq != 4 || stub.posts[1].lines != 6 {
		t.Fatalf("retry POST = %+v, want seq 4 with the 6-record suffix", stub.posts)
	}
	// The reassembled stream must be the original, no dup no gap.
	want := strings.Split(strings.TrimSuffix(string(payload), "\n"), "\n")
	if strings.Join(stub.records, "|") != strings.Join(want, "|") {
		t.Fatalf("server assembled %v", stub.records)
	}
}

func TestUploadBinaryFullResendDedups(t *testing.T) {
	stub := &stubServer{script: []verdict{{take: 3, status: http.StatusServiceUnavailable}}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	c := newTestClient(srv.URL, 3)
	// The stub treats lines as records; the client must still resend
	// everything with seq 0 because the declared type is binary.
	payload := payloadLines(7)
	stats, err := c.Upload(context.Background(), "s1", ContentTypeBinary, payload)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stub.posts[1].seq != 0 || stub.posts[1].lines != 8 {
		t.Fatalf("binary retry must resend whole payload at seq 0, got %+v", stub.posts[1])
	}
	want := strings.Split(strings.TrimSuffix(string(payloadLines(7)), "\n"), "\n")
	if strings.Join(stub.records, "|") != strings.Join(want, "|") {
		t.Fatalf("dedup failed, server assembled %v", stub.records)
	}
}

func TestUploadHonorsRetryAfter(t *testing.T) {
	stub := &stubServer{script: []verdict{{take: 0, status: http.StatusTooManyRequests, retryAfter: 3}}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	var slept []time.Duration
	c := New(Options{
		BaseURL: srv.URL, Retries: 2, Backoff: time.Millisecond, Seed: 1,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if _, err := c.Upload(context.Background(), "s1", ContentTypeJSONL, payloadLines(3)); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want the server's 3s Retry-After", slept)
	}
}

// TestUploadBalancerShed503 is dominolb's one ingest rejection from the
// client's side: a balancer with no backend to take the request answers
// with a retryable 503 plus Retry-After, and the client must honor the
// hint, retry, land the payload — and account the round as a shed
// retry in UploadStats.
func TestUploadBalancerShed503(t *testing.T) {
	stub := &stubServer{script: []verdict{{take: 0, status: http.StatusServiceUnavailable, retryAfter: 2}}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	var slept []time.Duration
	c := New(Options{
		BaseURL: srv.URL, Retries: 2, Backoff: time.Millisecond, Seed: 1,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	stats, err := c.Upload(context.Background(), "s1", ContentTypeJSONL, payloadLines(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want the balancer's 2s Retry-After", slept)
	}
	if stats.Attempts != 2 || stats.ShedRetries != 1 {
		t.Fatalf("stats = %+v, want 2 attempts with 1 shed retry", stats)
	}
}

func TestUploadPermanentFailure(t *testing.T) {
	stub := &stubServer{script: []verdict{{take: 0, status: http.StatusRequestEntityTooLarge}}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	c := newTestClient(srv.URL, 5)
	stats, err := c.Upload(context.Background(), "s1", ContentTypeJSONL, payloadLines(3))
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("413 must fail permanently, got %v", err)
	}
	if stats.Attempts != 1 {
		t.Fatalf("413 must not be retried, attempts=%d", stats.Attempts)
	}
}

func TestUploadRetriesExhausted(t *testing.T) {
	stub := &stubServer{script: []verdict{
		{take: 0, status: 503}, {take: 0, status: 503}, {take: 0, status: 503},
	}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()
	c := newTestClient(srv.URL, 2)
	stats, err := c.Upload(context.Background(), "s1", ContentTypeJSONL, payloadLines(3))
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("want retries-exhausted error, got %v", err)
	}
	if stats.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", stats.Attempts)
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		c := New(Options{BaseURL: "http://x", Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: seed})
		var ds []time.Duration
		for n := 0; n < 6; n++ {
			ds = append(ds, c.backoff(n, 0))
		}
		return ds
	}
	a, b := delays(3), delays(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	for n, d := range a {
		base := 10 * time.Millisecond << uint(n)
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if d < base/2 || d > base {
			t.Fatalf("retry %d delay %v outside jitter window [%v, %v]", n, d, base/2, base)
		}
	}
	if a[5] > 80*time.Millisecond {
		t.Fatalf("delay %v exceeds MaxBackoff", a[5])
	}
}

func TestTrimRecords(t *testing.T) {
	payload := []byte("h\nr0\nr1\nr2\n")
	for n, want := range map[int]string{0: "h\nr0\nr1\nr2\n", 1: "r0\nr1\nr2\n", 3: "r2\n", 4: "", 9: ""} {
		if got := string(trimRecords(payload, n)); got != want {
			t.Fatalf("trimRecords(%d) = %q, want %q", n, got, want)
		}
	}
}
