package faultinject

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/rcastore"
)

// captureServer records whatever body bytes each request managed to
// deliver before succeeding or tearing.
type captureServer struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (c *captureServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body) // error expected on torn uploads
		c.mu.Lock()
		c.bodies = append(c.bodies, got)
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
}

func (c *captureServer) body(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= len(c.bodies) {
		return nil
	}
	return c.bodies[i]
}

// await returns once n requests are recorded. A torn upload's handler
// returns some time after its client saw the error — possibly after the
// next attempt's — and bodies are kept in the order handlers finish, so
// a test that reads them by attempt waits here between attempts.
func (c *captureServer) await(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		got := len(c.bodies)
		c.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server recorded %d requests, want %d", got, n)
		}
	}
}

func post(t *testing.T, cl *http.Client, url string, payload []byte) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return cl.Do(req)
}

func TestTransportFaultSchedule(t *testing.T) {
	capture := &captureServer{}
	srv := httptest.NewServer(capture.handler())
	defer srv.Close()

	payload := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	tr := NewTransport(TransportOptions{Seed: 42, MaxFaults: 3})
	cl := &http.Client{Transport: tr}

	// Attempt 1: reset — client-visible error, server gets a strict prefix.
	if resp, err := post(t, cl, srv.URL, payload); err == nil {
		resp.Body.Close()
		t.Fatal("reset attempt must error")
	}
	capture.await(t, 1)
	// Attempt 2: corrupt — client-visible error, server gets prefix + garbage.
	if resp, err := post(t, cl, srv.URL, payload); err == nil {
		resp.Body.Close()
		t.Fatal("corrupt attempt must error")
	}
	capture.await(t, 2)
	// Attempt 3: delay — slow but successful.
	resp, err := post(t, cl, srv.URL, payload)
	if err != nil {
		t.Fatalf("delay attempt must succeed: %v", err)
	}
	resp.Body.Close()
	// Attempt 4: past MaxFaults, clean.
	resp, err = post(t, cl, srv.URL, payload)
	if err != nil {
		t.Fatalf("post-fault attempt must succeed: %v", err)
	}
	resp.Body.Close()

	faults := tr.Faults()
	if len(faults) != 3 || tr.Attempts() != 4 {
		t.Fatalf("faults=%d attempts=%d, want 3 faults over 4 attempts", len(faults), tr.Attempts())
	}
	wantKinds := []Kind{KindReset, KindCorrupt, KindDelay}
	for i, f := range faults {
		if f.Kind != wantKinds[i] || f.Attempt != i+1 {
			t.Fatalf("fault %d = %+v, want kind %v", i, f, wantKinds[i])
		}
	}

	// Server-side view: reset delivered a strict prefix; corrupt a
	// prefix followed only by 0x01 garbage; the clean attempts the
	// whole payload.
	if got := capture.body(0); !bytes.HasPrefix(payload, got) || len(got) >= len(payload) {
		t.Fatalf("reset delivered %d bytes, want a strict prefix of %d", len(got), len(payload))
	}
	corrupt := capture.body(1)
	trimmed := bytes.TrimRight(corrupt, "\x01")
	if !bytes.HasPrefix(payload, trimmed) || len(trimmed) == len(corrupt) {
		t.Fatalf("corrupt upload must be prefix + 0x01 garbage, got %d bytes (%d after trim)", len(corrupt), len(trimmed))
	}
	for _, i := range []int{2, 3} {
		if !bytes.Equal(capture.body(i), payload) {
			t.Fatalf("attempt %d should deliver the full payload", i+1)
		}
	}
}

func TestTransportDeterministic(t *testing.T) {
	schedule := func() []Fault {
		capture := &captureServer{}
		srv := httptest.NewServer(capture.handler())
		defer srv.Close()
		tr := NewTransport(TransportOptions{Seed: 7, MaxFaults: 4})
		cl := &http.Client{Transport: tr}
		payload := bytes.Repeat([]byte("x"), 4096)
		for i := 0; i < 5; i++ {
			if resp, err := post(t, cl, srv.URL, payload); err == nil {
				resp.Body.Close()
			}
		}
		return tr.Faults()
	}
	a, b := schedule(), schedule()
	if len(a) != 4 {
		t.Fatalf("want 4 faults, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fault %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := NewTransport(TransportOptions{Seed: 8, MaxFaults: 4}); c.opts.Seed == 7 {
		t.Fatal("unreachable")
	}
}

func TestTransportPassesBodilessRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	tr := NewTransport(TransportOptions{Seed: 1, MaxFaults: 100})
	cl := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		resp, err := cl.Get(srv.URL)
		if err != nil {
			t.Fatalf("GET %d through saturated injector failed: %v", i, err)
		}
		resp.Body.Close()
	}
	if tr.Attempts() != 0 {
		t.Fatalf("bodiless requests were counted: attempts=%d", tr.Attempts())
	}
}

func rec(session string) rcastore.Record {
	return rcastore.Record{Session: session, Cell: "tdd", Fired: []string{"harq_retx"}}
}

func TestFSJournalWriteFaults(t *testing.T) {
	dir := t.TempDir()
	fs := &FS{}
	j, err := rcastore.OpenJournal(filepath.Join(dir, "w.wal"), rcastore.JournalOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	fs.FailWrites(1)
	if err := j.Append(rec("lost")); err == nil {
		t.Fatal("armed write fault did not surface")
	}
	if err := j.Append(rec("kept")); err != nil {
		t.Fatalf("journal must recover after a failed write: %v", err)
	}

	fs.FailSyncs(1)
	if err := j.Sync(); err == nil {
		t.Fatal("armed sync fault did not surface")
	}
}

// TestFSJournalFailedWriteDropsItsNames is the hazard a dictionary-
// coded journal adds: an append that fails takes its first-use names
// with it, so a later row must not refer to a dict frame that never
// reached the file. The journal starts a new segment after a failed
// write; recovery then sees exactly the appends that succeeded, with
// their own strings.
func TestFSJournalFailedWriteDropsItsNames(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "w.wal")
	fs := &FS{}
	j, err := rcastore.OpenJournal(wal, rcastore.JournalOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(session string) rcastore.Record {
		return rcastore.Record{Session: session, Cell: "fdd", Scenario: "grant-starvation",
			Fired:  []string{"ul_scheduling", "harq_retx"},
			Chains: []rcastore.ChainRuns{{Chain: "ul_scheduling --> target_bitrate_down", Runs: 2}},
			Causes: []rcastore.CauseRuns{{Cause: "ul_scheduling", Runs: 2}}}
	}
	if err := j.Append(rec("before")); err != nil {
		t.Fatal(err)
	}
	fs.FailWrites(1)
	if err := j.Append(fresh("lost")); err == nil {
		t.Fatal("armed write fault did not surface")
	}
	want := []rcastore.Record{rec("before"), fresh("kept-1"), rec("kept-2"), fresh("kept-3")}
	for _, r := range want[1:] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	st, j2, stats, err := rcastore.Recover(filepath.Join(dir, "none.ckpt"), wal, rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatalf("recovery after a failed append: %v", err)
	}
	j2.Close()
	if stats.TornTail || stats.Replayed != len(want) {
		t.Fatalf("stats = %+v, want %d rows replayed and no torn tail", stats, len(want))
	}
	for _, w := range want {
		got := st.Query(rcastore.Query{Session: w.Session})
		sort.Strings(w.Fired)
		if len(got) != 1 || !reflect.DeepEqual(got[0], w) {
			t.Fatalf("session %s recovered as %+v, want %+v", w.Session, got, w)
		}
	}
}

func TestFSCheckpointRenameFault(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.ckpt")
	fs := &FS{}
	st := rcastore.New(rcastore.Options{})
	j, err := rcastore.OpenJournal(filepath.Join(dir, "w.wal"), rcastore.JournalOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st.Insert(rec("s1"))
	if err := j.Append(rec("s1")); err != nil {
		t.Fatal(err)
	}

	fs.FailRenames(1)
	if err := j.Checkpoint(st, ckpt); err == nil {
		t.Fatal("armed rename fault did not surface")
	}
	// A failed checkpoint must leave both journal and store usable, and
	// a retry must succeed.
	if err := j.Append(rec("s2")); err != nil {
		t.Fatalf("journal unusable after failed checkpoint: %v", err)
	}
	st.Insert(rec("s2"))
	if err := j.Checkpoint(st, ckpt); err != nil {
		t.Fatalf("checkpoint retry failed: %v", err)
	}
}
