package balancer

// The ingest hop is a steer: a 307 to the session's owner, with none of
// the body read; the one failover path (re-pin, then client resend); and
// a torn client body.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// stalledBody is a request body whose Read counts the call and then
// blocks until the test ends: a handler that reads any of it hangs.
type stalledBody struct {
	reads atomic.Int64
	end   <-chan struct{}
}

func (s *stalledBody) Read([]byte) (int, error) {
	s.reads.Add(1)
	<-s.end
	return 0, io.ErrUnexpectedEOF
}

// lbEntry is one row of /lb/sessions.
type lbEntry struct {
	Session   string `json:"session"`
	Backend   string `json:"backend"`
	Done      bool   `json:"done"`
	Failovers int    `json:"failovers"`
}

// lbSessions decodes the balancer's routing table, failing on any member
// an entry does not have.
func lbSessions(t *testing.T, base string) []lbEntry {
	t.Helper()
	var table []lbEntry
	dec := json.NewDecoder(bytes.NewReader([]byte(readBody(t, mustGet(t, base+"/lb/sessions")))))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&table); err != nil {
		t.Fatal(err)
	}
	return table
}

// TestIngestSteersToOwner: the balancer answers an ingest request with a
// 307 to its pin's /ingest, under the client's ID (escaped) or a minted
// one, without reading a byte of the body — whose reader here would
// block — and retires the routing entry once it has steered the request
// that ends the session, a final chunk or a one-shot upload.
func TestIngestSteersToOwner(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	routes := lb.Routes()
	end := make(chan struct{})
	t.Cleanup(func() { close(end) })
	steered := func(target string, req ingest.Request) string {
		t.Helper()
		body := &stalledBody{end: end}
		r := httptest.NewRequest(http.MethodPost, target, body)
		r.Header.Set("Content-Type", ingest.ContentTypeJSONL)
		req.SetHeaders(r.Header)
		rec := httptest.NewRecorder()
		served := make(chan struct{})
		go func() { routes.ServeHTTP(rec, r); close(served) }()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatalf("POST %s: the balancer is reading the body", target)
		}
		if n := body.reads.Load(); n != 0 || rec.Code != http.StatusTemporaryRedirect || rec.Body.Len() != 0 {
			t.Fatalf("POST %s: %d reads of the body, status %d, body %q; want none, a 307 and no body", target, n, rec.Code, rec.Body)
		}
		return rec.Header().Get("Location")
	}
	doneIs := func(id string, want bool) {
		t.Helper()
		for _, e := range lbSessions(t, ts.URL) {
			if e.Session == id {
				if e.Done != want || e.Backend != lb.lookup(id).backend.url {
					t.Fatalf("/lb/sessions entry %+v, want done %v on its pin", e, want)
				}
				return
			}
		}
		t.Fatalf("/lb/sessions has no entry for %s", id)
	}

	const id = "steer me/1"
	first := steered("/ingest?session="+url.QueryEscape(id), ingest.Request{Resumable: true})
	owner := lb.lookup(id).backend.url
	if want := owner + "/ingest?session=steer+me%2F1"; first != want {
		t.Fatalf("first chunk steered to %q, want %q", first, want)
	}
	doneIs(id, false)
	if last := steered("/ingest?session="+url.QueryEscape(id), ingest.Request{Seq: 9, Resumable: true, Eos: true}); last != first {
		t.Fatalf("final chunk steered to %q, the first to %q", last, first)
	}
	doneIs(id, true)

	minted := steered("/ingest", ingest.Request{})
	if want := lb.lookup("lb-1").backend.url + "/ingest?session=lb-1"; minted != want {
		t.Fatalf("anonymous one-shot upload steered to %q, want %q", minted, want)
	}
	doneIs("lb-1", true)
	if n := a.sessions(t) + b.sessions(t); n != 0 {
		t.Fatalf("the nodes hold %d sessions after steers nobody followed", n)
	}
}

// TestReportSteersToOwner: a report read of a session the balancer
// pinned is a 307 to its owner's /report, and the report behind it is
// the completion's; a session the balancer never routed still takes the
// fan-out, answered through the balancer by the node that holds it.
func TestReportSteersToOwner(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)
	payload := sessionJSONL(t, ran.Presets()[0], 33, 2*sim.Second)
	get := func(id string) *http.Response {
		t.Helper()
		resp, err := noFollow.Get(ts.URL + "/report/" + id)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	const id = "pinned"
	completion := mustPost(t, ts.URL, id, 0, true, payload, http.StatusOK)
	resp := get(id)
	drainClose(resp)
	if want := lb.lookup(id).backend.url + "/report/" + id; resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != want {
		t.Fatalf("report of a pinned session: %d to %q, want 307 to %q", resp.StatusCode, resp.Header.Get("Location"), want)
	}
	if got := fetchReport(t, ts.URL, id); !bytes.Equal(got, completion) {
		t.Fatalf("steered report\n%s\ndiffers from the completion\n%s", got, completion)
	}

	direct := mustPost(t, b.ts.URL, "direct", 0, true, payload, http.StatusOK)
	resp = get("direct")
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != string(direct) {
		t.Fatalf("report of a session the balancer never routed: %d %s, want the node's 200", resp.StatusCode, body)
	}
	resp = get("nope")
	drainClose(resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report of an unknown session: %d, want 404", resp.StatusCode)
	}
}

// encodeBinary re-encodes a JSONL payload as one binary stream.
func encodeBinary(t *testing.T, payload []byte) []byte {
	t.Helper()
	set, err := trace.ReadAuto(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChunkedFailoverReplaysAcknowledgedPrefix is the one failover path
// on both wire formats: the acknowledged prefix is replayed by the
// client, since the balancer keeps no copy. The owner dies at a chunk
// boundary; the next chunk, steered to it, fails at the client's
// transport, and the balancer does not know yet; the client's watermark
// probe through the balancer finds the node gone and marks it down; the
// same chunk again is re-pinned to a node that has never seen the
// session; and the real client, probing the watermark and resending from
// there, ends with the report clean ingest gets. A JSONL chunk is the
// next lines at their seq, so on the fresh pin it is a 412 seq gap. A
// binary stream starts with its header, so a binary chunk is the whole
// stream so far at seq 0: the fresh pin takes it as the session's start.
func TestChunkedFailoverReplaysAcknowledgedPrefix(t *testing.T) {
	payload := sessionJSONL(t, ran.Presets()[0], 21, 3*sim.Second)
	jsonlChunks, jsonlSeqs := splitLines(payload, 3)
	var binChunks [][]byte
	for i := range jsonlChunks {
		binChunks = append(binChunks, encodeBinary(t, bytes.Join(jsonlChunks[:i+1], nil)))
	}
	for _, f := range []struct {
		name, contentType string
		chunks            [][]byte
		seqs              []int
		payload           []byte
		onFreshPin        int // the answer to the retried chunk
	}{
		{"jsonl", ingest.ContentTypeJSONL, jsonlChunks, jsonlSeqs, payload, http.StatusPreconditionFailed},
		{"binary", ingest.ContentTypeBinary, binChunks, make([]int, len(binChunks)), encodeBinary(t, payload), http.StatusAccepted},
	} {
		t.Run(f.name, func(t *testing.T) {
			a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
			lb, ts := newTestBalancer(t, Options{}, a, b)
			const id = "failover"
			post := func(i, want int) string {
				t.Helper()
				resp := postChunk(t, ts.URL, id, f.contentType, f.seqs[i], false, bytes.NewReader(f.chunks[i]))
				body := readBody(t, resp)
				if resp.StatusCode != want {
					t.Fatalf("chunk %d: status %d, want %d: %s", i, resp.StatusCode, want, body)
				}
				return body
			}
			post(0, http.StatusAccepted)
			owner, other := ownerAndOther(lb, id, a, b)
			if wm, ok := owner.watermark(t, id); !ok || wm.Accepted != jsonlSeqs[1] {
				t.Fatalf("owner watermark %+v (held %v), want %d accepted", wm, ok, jsonlSeqs[1])
			}

			owner.kill()
			if resp, err := tryChunk(ts.URL, id, f.contentType, f.seqs[1], false, bytes.NewReader(f.chunks[1])); err == nil {
				drainClose(resp)
				t.Fatalf("chunk against the dead owner: %d, want a transport error", resp.StatusCode)
			}
			if st := backendOf(t, lb, owner).State(); st != stateUp {
				t.Fatalf("the dead owner is %v before anything went through the balancer to it", st)
			}
			resp := mustGet(t, ts.URL+"/sessions/"+id+"/watermark")
			drainClose(resp)
			if resp.StatusCode != http.StatusBadGateway || backendOf(t, lb, owner).State() != stateDown {
				t.Fatalf("watermark probe after the failed chunk: %d, owner %v; want 502 and the owner down",
					resp.StatusCode, backendOf(t, lb, owner).State())
			}
			if body := post(1, f.onFreshPin); f.onFreshPin == http.StatusPreconditionFailed && errorCode([]byte(body)) != ingest.CodeSeqGap {
				t.Fatalf("chunk on the fresh pin: %s, want code seq_gap", body)
			}
			if lb.lookup(id).backend.url != other.ts.URL {
				t.Fatal("session not re-pinned to the survivor")
			}

			resend(t, ts.URL, id, f.contentType, f.payload)
			got := fetchReport(t, other.ts.URL, id)
			if want := cleanReport(t, id, payload); !bytes.Equal(got, want) {
				t.Fatalf("failed-over report diverged from clean ingest\nclean: %s\nfleet: %s", want, got)
			}
			if v := lb.m.failovers.Value(); v != 1 {
				t.Fatalf("failovers counter = %d, want 1", v)
			}
			if table := lbSessions(t, ts.URL); len(table) != 1 || !table[0].Done || table[0].Failovers != 1 {
				t.Fatalf("/lb/sessions %+v, want the session done after one failover", table)
			}
		})
	}
}

// TestClientResendFailoverWhenBufferOverflows leaves recovery wholly to
// the real client. The balancer holds no buffer, so every failover is
// the case an overflowing one used to be: after the owner dies
// mid-upload, ingest.Client.Upload meets the dead node at its own
// transport, backs off, probes the watermark through the balancer —
// which finds the node gone, so the retry re-pins — and resends the
// session, ending byte-identical to clean ingest.
func TestClientResendFailoverWhenBufferOverflows(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)

	const id = "resend-sess"
	payload := sessionJSONL(t, ran.Presets()[0], 22, 3*sim.Second)
	chunks, seqs := splitLines(payload, 3)
	mustPost(t, ts.URL, id, seqs[0], false, chunks[0], http.StatusAccepted)
	owner, other := ownerAndOther(lb, id, a, b)
	owner.kill()

	if stats := resend(t, ts.URL, id, ingest.ContentTypeJSONL, payload); stats.Attempts != 2 {
		t.Fatalf("stats = %+v, want the attempt at the dead node and the one on the re-pin", stats)
	}
	if got, want := fetchReport(t, other.ts.URL, id), cleanReport(t, id, payload); !bytes.Equal(got, want) {
		t.Fatalf("survivor's report diverged from clean ingest\nclean: %s\nfleet: %s", want, got)
	}
	if v := lb.m.failovers.Value(); v != 1 {
		t.Fatalf("failovers counter = %d, want 1", v)
	}
}

// TestTornClientBodyKeepsBackendUp sends FailThreshold resumable chunks
// in a row whose bodies the client tears mid-transfer, and a torn
// one-shot upload: the balancer, which reads none of a body, steers each
// to the owner all the same — the resumable sessions stay live, the
// one-shot one is ended by its only request — none counts against the
// backend, and it stays up.
func TestTornClientBodyKeepsBackendUp(t *testing.T) {
	a := newFleetNode(t, "a")
	const threshold = 3
	lb, ts := newTestBalancer(t, Options{FailThreshold: threshold}, a)
	chunk, _ := splitLines(sessionJSONL(t, ran.Presets()[0], 25, 2*sim.Second), 2)
	torn := func(id string, req ingest.Request) {
		t.Helper()
		resp := postTorn(t, ts.URL, id, req, ingest.ContentTypeJSONL, chunk[0])
		drainClose(resp)
		if want := a.ts.URL + "/ingest?session=" + id; resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != want {
			t.Fatalf("torn body of %s: %d to %q, want 307 to %q", id, resp.StatusCode, resp.Header.Get("Location"), want)
		}
	}
	for i := 0; i < threshold; i++ {
		torn(fmt.Sprintf("torn-%d", i), ingest.Request{Resumable: true})
	}
	torn("torn-one-shot", ingest.Request{})
	for _, e := range lbSessions(t, ts.URL) {
		if e.Done != (e.Session == "torn-one-shot") {
			t.Fatalf("/lb/sessions entry %+v: only the one-shot upload is ended", e)
		}
	}
	if st := backendOf(t, lb, a).State(); st != stateUp {
		t.Fatalf("torn client bodies moved the backend to %v", st)
	}
	if v := lb.m.proxyErrors.Value(); v != 0 {
		t.Fatalf("dominolb_proxy_errors_total = %d after torn client bodies, want 0", v)
	}
}
