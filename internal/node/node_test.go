package node

// White-box coverage of what only the node knows: that every typed
// rejection it sends is the ingest package's (status, Retry-After, code)
// and lands in the right counter, the lock discipline around admit, and
// Shutdown. The HTTP-level acceptance suite — smoke, differentials,
// chaos — is package node_test, in the files beside this one.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
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

func sessionJSONL(t testing.TB, seed uint64, d sim.Time) []byte {
	t.Helper()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Presets()[0], seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, sess.Run(d)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstLines returns the first n newline-terminated lines of body.
func firstLines(body []byte, n int) []byte {
	return bytes.Join(bytes.SplitAfterN(body, []byte("\n"), n+1)[:n], nil)
}

// postTorn sends an ingest request whose chunked body stops partway: it
// promises a byte more than body and then shuts its sending half, so the
// node reads a torn transfer and can still answer.
func postTorn(t *testing.T, base, id string, req ingest.Request, contentType string, body []byte) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h := http.Header{"Content-Type": {contentType}, "Transfer-Encoding": {"chunked"}}
	req.SetHeaders(h)
	fmt.Fprintf(conn, "POST /ingest?session=%s HTTP/1.1\r\nHost: node\r\n", id)
	h.Write(conn)
	fmt.Fprintf(conn, "\r\n%x\r\n%s", len(body)+1, body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func post(t *testing.T, base, id string, req ingest.Request, body io.Reader) *http.Response {
	t.Helper()
	resp, err := tryPost(base, id, req, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// tryPost is post for a goroutine, which cannot end the test: it returns
// the error post fails the test with.
func tryPost(base, id string, req ingest.Request, body io.Reader) (*http.Response, error) {
	hr, err := http.NewRequest(http.MethodPost, base+"/ingest?session="+id, body)
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", ingest.ContentTypeJSONL)
	req.SetHeaders(hr.Header)
	return http.DefaultClient.Do(hr)
}

// waitAdmitted waits for an upload to take one of n's stream slots, and
// fails the test if none does within 5 s.
func waitAdmitted(t *testing.T, n *Node) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); n.limiter.InUse() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no upload took a stream slot within 5 s")
		}
	}
}

// TestZeroOptionsAreDefaults: New runs every bound a zero Options leaves
// at its DefaultOptions value, and keeps a bound that is set.
func TestZeroOptionsAreDefaults(t *testing.T) {
	n := New(testAnalyzer(t), Options{})
	got := n.opts
	got.Log, got.Now = nil, nil
	if def := DefaultOptions(); !reflect.DeepEqual(got, def) {
		t.Fatalf("zero Options runs %+v, want %+v", got, def)
	}
	if n.limiter.Cap() != 64 || cap(n.saPool.free) != 64 {
		t.Fatalf("%d stream slots and an analyzer pool of %d, want 64 each", n.limiter.Cap(), cap(n.saPool.free))
	}
	if n := New(testAnalyzer(t), Options{FlightRec: 16}); n.opts.FlightRec != 16 || n.opts.MaxBody != DefaultOptions().MaxBody {
		t.Fatalf("FlightRec 16 runs %+v", n.opts)
	}
}

// TestRejectionsAreTheProtocols drives each rejection the node can
// produce and checks the answer is exactly what the ingest code table
// says — status, Retry-After, the code field beside the error text —
// and that only the shed reasons are counted under
// dominod_ingest_rejected_total.
func TestRejectionsAreTheProtocols(t *testing.T) {
	body := sessionJSONL(t, 3, 2*sim.Second)
	oneShot, chunk := ingest.Request{Eos: true}, ingest.Request{Resumable: true}

	n := New(testAnalyzer(t), Options{MaxStreams: 1, MaxBody: int64(len(body)) + 1, AdmitWait: 20 * time.Millisecond})
	ts := httptest.NewServer(n.Routes())
	defer ts.Close()

	expect := func(what string, resp *http.Response, code ingest.Code) {
		t.Helper()
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var e ingest.ErrorBody
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: body %s: %v", what, raw, err)
		}
		want := httptest.NewRecorder()
		code.Reject(want, e.Error)
		if resp.StatusCode != want.Code || e.Code != code || e.Error == "" ||
			resp.Header.Get("Retry-After") != want.Header().Get("Retry-After") || !bytes.Equal(raw, want.Body.Bytes()) {
			t.Fatalf("%s: got %d Retry-After %q %s, want the %s rejection: %d Retry-After %q",
				what, resp.StatusCode, resp.Header.Get("Retry-After"), raw, code, want.Code, want.Header().Get("Retry-After"))
		}
	}

	resp := post(t, ts.URL, "s", oneShot, bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean ingest: %d", resp.StatusCode)
	}
	resp.Body.Close()
	expect("one-shot reuse of a done session", post(t, ts.URL, "s", oneShot, bytes.NewReader(body)), ingest.CodeConflict)
	expect("chunk starting past a fresh session's watermark",
		post(t, ts.URL, "gap", ingest.Request{Seq: 5, Resumable: true}, bytes.NewReader(body)), ingest.CodeSeqGap)
	expect("body over the cap",
		post(t, ts.URL, "big", oneShot, bytes.NewReader(append(body[:len(body):len(body)], body...))), ingest.CodeBodyTooLarge)
	bad := append(firstLines(body, 3), "not a record\n"...)
	expect("resumable chunk the decoder chokes on", post(t, ts.URL, "bad", chunk, bytes.NewReader(bad)), ingest.CodeMalformed)
	if wm := n.lookup("bad").protocol(); wm.State != ingest.StateFailed {
		t.Fatalf("session of a malformed chunk = %+v, want failed", wm)
	}
	expect("the same chunk torn after the bad line", postTorn(t, ts.URL, "torn", chunk, ingest.ContentTypeJSONL, bad), ingest.CodeInterrupted)
	if wm := n.lookup("torn").protocol(); wm.State != ingest.StateActive || wm.Accepted != 3 {
		t.Fatalf("suspended session = %+v, want active at 3", wm)
	}

	// Saturate the one slot, then knock.
	pr, pw := io.Pipe()
	held := make(chan *http.Response, 1)
	go func() {
		resp, err := tryPost(ts.URL, "holder", oneShot, pr)
		if err != nil {
			t.Error(err)
		}
		held <- resp
	}()
	pw.Write(firstLines(body, 1))
	waitAdmitted(t, n)
	expect("upload past a saturated limiter", post(t, ts.URL, "shed", oneShot, bytes.NewReader(body)), ingest.CodeOverload)
	pw.Close()
	if resp := <-held; resp != nil {
		resp.Body.Close()
	}

	n.Drain()
	expect("upload to a draining node", post(t, ts.URL, "late", oneShot, bytes.NewReader(body)), ingest.CodeDraining)

	for code, want := range map[ingest.Code]int64{
		ingest.CodeOverload: 1, ingest.CodeBodyTooLarge: 1, ingest.CodeDraining: 1, ingest.CodeSeqGap: 1, ingest.CodeBusy: 0,
	} {
		if got := n.m.ingestRejected[code].Value(); got != want {
			t.Errorf("dominod_ingest_rejected_total{reason=%q} = %d, want %d", code, got, want)
		}
	}
	if len(n.m.ingestRejected) != len(ingest.ShedCodes()) {
		t.Fatalf("rejected-reason series %d, want one per shed code", len(n.m.ingestRejected))
	}
	if got := n.m.ingestInterrupted.Value(); got != 1 {
		t.Fatalf("interrupted counter = %d, want 1", got)
	}
}

// TestMalformedChunkIsNotRetried pins what a retrying client sees of a
// resumable chunk whose bytes arrive whole but do not decode — a JSONL
// line that is not a record, a binary block overwritten with garbage: a
// 400 malformed after its first attempt, and a failed session. The same
// binary bytes torn mid-transfer still suspend the session with a 503.
func TestMalformedChunkIsNotRetried(t *testing.T) {
	n := New(testAnalyzer(t), Options{MaxStreams: 2})
	ts := httptest.NewServer(n.Routes())
	defer ts.Close()
	body := sessionJSONL(t, 5, 3*sim.Second)
	set, err := trace.ReadAuto(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, set); err != nil {
		t.Fatal(err)
	}
	garbled := bin.Bytes()
	copy(garbled[len(garbled)/2:], bytes.Repeat([]byte{0x01}, 16))

	for _, c := range []struct {
		id, contentType string
		payload         []byte
	}{
		{"jsonl", ingest.ContentTypeJSONL, append(firstLines(body, 40), "not a record\n"...)},
		{"binary", ingest.ContentTypeBinary, garbled},
	} {
		client := ingest.New(ingest.Options{BaseURL: ts.URL, Retries: 3, Sleep: func(time.Duration) {}})
		stats, err := client.Upload(context.Background(), c.id, c.contentType, c.payload)
		if err == nil || stats.Attempts != 1 || !strings.Contains(err.Error(), "permanent failure, server returned 400") {
			t.Fatalf("%s: upload of a malformed chunk: %+v, %v; want a permanent 400 on the first attempt", c.id, stats, err)
		}
		if p := n.lookup(c.id).protocol(); p.State != ingest.StateFailed {
			t.Fatalf("%s: session %+v, want failed", c.id, p)
		}
	}
	resp := postTorn(t, ts.URL, "binary-torn", ingest.Request{Resumable: true, Eos: true}, ingest.ContentTypeBinary, garbled)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte(`"code": "interrupted"`)) {
		t.Fatalf("torn binary chunk: %d %s, want 503 interrupted", resp.StatusCode, raw)
	}
	if p := n.lookup("binary-torn").protocol(); p.State != ingest.StateActive || p.Accepted == 0 {
		t.Fatalf("torn binary chunk left %+v, want active at its watermark", p)
	}
}

// TestAdmitHoldsTheFlagOnlyOnProceed pins the lock discipline around
// the protocol's decisions: a request that proceeds owns the session's
// upload slot; a replayed or rejected one holds nothing; a resume racing
// its interrupted predecessor gets in as soon as that lets go; a session
// whose interrupted upload never lets go is busy, not hung; and a client
// that gives up stops waiting.
func TestAdmitHoldsTheFlagOnlyOnProceed(t *testing.T) {
	n := New(testAnalyzer(t), Options{MaxStreams: 2})
	chunk := ingest.Request{Resumable: true}
	ctx := context.Background()
	held := func(sess *session) bool { return len(sess.upload) == 1 }

	sess, id, d := n.admit(ctx, "a", chunk)
	if d != (ingest.Decision{Action: ingest.Proceed}) || id != "a" || !held(sess) {
		t.Fatalf("fresh session: %+v, slot held %v", d, held(sess))
	}
	sess.mu.Lock()
	sess.proto.Accepted = 7
	sess.mu.Unlock()
	sess.release()

	if _, _, d := n.admit(ctx, "a", ingest.Request{Seq: 9, Resumable: true}); d.Code != ingest.CodeSeqGap || held(sess) {
		t.Fatalf("gapped resume: %+v, slot held %v", d, held(sess))
	}
	if _, _, d := n.admit(ctx, "a", ingest.Request{Eos: true}); d.Code != ingest.CodeConflict || held(sess) {
		t.Fatalf("one-shot reuse: %+v, slot held %v", d, held(sess))
	}
	got, _, d := n.admit(ctx, "a", ingest.Request{Seq: 4, Resumable: true})
	if got != sess || d != (ingest.Decision{Action: ingest.Proceed, Resume: true, Skip: 3}) || !held(sess) {
		t.Fatalf("resume below the watermark: %+v, slot held %v", d, held(sess))
	}

	// A resume racing the interrupted upload that still owns the session
	// waits for it, and is in the moment the owner lets go — well inside
	// the handover window.
	raced := make(chan ingest.Decision, 1)
	start := time.Now()
	go func() {
		_, _, d := n.admit(ctx, "a", ingest.Request{Seq: 7, Resumable: true})
		raced <- d
	}()
	select {
	case d := <-raced:
		t.Fatalf("resume of an owned session did not wait: %+v", d)
	case <-time.After(20 * time.Millisecond):
	}
	sess.release()
	if d := <-raced; d != (ingest.Decision{Action: ingest.Proceed, Resume: true}) || !held(sess) || time.Since(start) >= ingestHandoverWait {
		t.Fatalf("handed-over resume: %+v after %v, slot held %v", d, time.Since(start), held(sess))
	}

	// A client that gives up while waiting is released at once, with the
	// same answer and nothing held beyond the owner's slot.
	gone, cancel := context.WithCancel(ctx)
	cancel()
	start = time.Now()
	if _, _, d := n.admit(gone, "a", chunk); d.Code != ingest.CodeBusy || time.Since(start) >= ingestHandoverWait {
		t.Fatalf("cancelled wait: %+v after %v, want busy at once", d, time.Since(start))
	}

	// Still owned (the slot above was never released): the retry waits
	// out the handover window and is told busy.
	start = time.Now()
	if _, _, d := n.admit(ctx, "a", chunk); d.Code != ingest.CodeBusy || time.Since(start) < ingestHandoverWait {
		t.Fatalf("owned session: %+v after %v, want busy after the handover wait", d, time.Since(start))
	}

	n.fail(sess, "boom")
	sess.release()
	fresh, _, d := n.admit(ctx, "a", chunk)
	if d != (ingest.Decision{Action: ingest.Proceed}) || fresh == sess || n.lookup("a") != fresh {
		t.Fatalf("resume of a failed session: %+v, replaced %v", d, fresh != sess)
	}

	n.mustFinish(t, fresh)
	if got, _, d := n.admit(ctx, "a", chunk); d.Action != ingest.Replay || got != fresh || held(fresh) {
		t.Fatalf("resume of a done session: %+v, slot held %v", d, held(fresh))
	}
}

// mustFinish marks a session done the way complete does, minus the store.
func (n *Node) mustFinish(t *testing.T, sess *session) {
	t.Helper()
	sess.mu.Lock()
	n.detachLocked(sess, ingest.StateDone, "", nil)
	sess.mu.Unlock()
	sess.release()
}

// table reads the session table's size and how many of its sessions are
// finished.
func (n *Node) table() (registered, finished int) {
	live, total := n.sessions.Len()
	return total, total - live
}

// TestShutdownDrainsThenCheckpoints pins Shutdown's order: the node
// reports draining, the in-flight upload still completes, and only then
// is the journal folded into the checkpoint and closed.
func TestShutdownDrainsThenCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.spill")
	st, j, _, err := rcastore.Recover(ckpt, filepath.Join(dir, "store.wal"), rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := New(testAnalyzer(t), Options{MaxStreams: 2, Store: st, Journal: j, CheckpointPath: ckpt})
	ts := httptest.NewServer(n.Routes())
	defer ts.Close()

	body := sessionJSONL(t, 5, 2*sim.Second)
	pr, pw := io.Pipe()
	inflight := make(chan int, 1)
	go func() {
		resp, err := tryPost(ts.URL, "inflight", ingest.Request{Eos: true}, pr)
		if err != nil {
			t.Error(err)
			inflight <- 0
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	pw.Write(firstLines(body, 1))
	waitAdmitted(t, n)

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- n.Shutdown(ctx, ts.Config)
	}()
	for deadline := time.Now().Add(5 * time.Second); !n.draining.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown did not start draining within 5 s")
		}
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with an upload in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	pw.Write(body[len(firstLines(body, 1)):])
	pw.Close()
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight upload finished with %d during drain", code)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}

	data, err := filepath.Glob(ckpt)
	if err != nil || len(data) != 1 {
		t.Fatalf("no checkpoint at %s", ckpt)
	}
	st2, j2, stats, err := rcastore.Recover(ckpt, filepath.Join(dir, "store.wal"), rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st2.Len() != 1 || stats.CheckpointRows != 1 || stats.Replayed != 0 {
		t.Fatalf("after shutdown: %d rows, recovery %+v; want the drained report in the checkpoint, journal empty", st2.Len(), stats)
	}
}

// TestEvictionQueue pins retention at the cap: the sessions dropped are
// the ones that finished longest ago (not the ones registered first),
// an active session is never dropped however old, a failed session that
// a retry replaced leaves the queue with its ID.
func TestEvictionQueue(t *testing.T) {
	const max = 5
	n := New(testAnalyzer(t), Options{MaxStreams: 8, MaxSessions: max})
	reg := func(id string) *session {
		t.Helper()
		sess, _, ok := n.register(id)
		if !ok {
			t.Fatalf("register %q refused", id)
		}
		return sess
	}
	retained := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			if n.lookup(id) == nil {
				registered, _ := n.table()
				t.Fatalf("session %q evicted; table holds %d", id, registered)
			}
		}
	}

	sess := map[string]*session{}
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		sess[id] = reg(id)
	}
	// Six active sessions over a cap of five: nothing can go.
	retained("a", "b", "c", "d", "e", "f")

	// e, c, a finish in that order; the next registration is two over
	// the cap and drops the two that finished first — not a, which
	// registered before either.
	n.mustFinish(t, sess["e"])
	n.fail(sess["c"], "boom")
	n.mustFinish(t, sess["a"])
	reg("g")
	if n.lookup("e") != nil || n.lookup("c") != nil {
		t.Fatal("the two sessions that finished first were not the ones evicted")
	}
	retained("a", "b", "d", "f", "g")
	if got := n.sessions.Stats().Dropped; got != 2 {
		t.Fatalf("evicted %d sessions, want 2", got)
	}

	// A failed session replaced by a retry of its ID leaves the queue
	// (the table's finished count is its queue's length); its replacement is active and outlives the next overflow, which
	// takes a — the oldest finished — instead.
	n.fail(sess["b"], "boom")
	b2 := reg("b")
	if _, finished := n.table(); finished != 1 {
		t.Fatalf("queue holds %d sessions after the failed one was replaced, want only a", finished)
	}
	reg("h")
	if n.lookup("a") != nil || n.lookup("b") != b2 {
		t.Fatal("overflow after a replacement did not evict the oldest finished session")
	}
	retained("d", "f", "g", "h")
}

// TestEvictionConcurrentRegistrars runs eight registrars at once — under
// -race in CI — each finishing what it registers. The bound is exact:
// register inserts and evicts in one critical section, so with fewer
// sessions active than the cap the table never holds more than
// MaxSessions, at any observation (which also keeps it within
// MaxSessions of its active ones), and the session that stayed active
// throughout is still there at the end.
func TestEvictionConcurrentRegistrars(t *testing.T) {
	const max, registrars, each = 16, 8, 300
	n := New(testAnalyzer(t), Options{MaxStreams: registrars, MaxSessions: max})
	if _, _, ok := n.register("keep"); !ok {
		t.Fatal("register refused")
	}
	done := make(chan struct{})
	for r := 0; r < registrars; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				s, _, ok := n.register(fmt.Sprintf("r%d-%d", r, i%50)) // IDs recur: failed ones get replaced
				if !ok {
					continue // the ID's previous session completed and is still retained
				}
				if registered, finished := n.table(); registered > max {
					t.Errorf("table at %d with %d active, cap %d", registered, registered-finished, max)
				}
				if i%3 == 0 {
					n.fail(s, "boom")
				} else {
					n.mustFinish(t, s)
				}
			}
		}(r)
	}
	for r := 0; r < registrars; r++ {
		<-done
	}
	if _, _, ok := n.register("last"); !ok {
		t.Fatal("register refused")
	}
	if registered, finished := n.table(); registered > max || registered-finished != 2 {
		t.Fatalf("table at %d with %d active after the registrars stopped, cap %d with keep and last active", registered, registered-finished, max)
	}
	if n.lookup("keep") == nil || n.lookup("last") == nil {
		t.Fatal("an active session was evicted")
	}
}
