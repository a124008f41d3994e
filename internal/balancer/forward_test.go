package balancer

// The ingest hop keeps no copy: what a forward retains, the one
// failover path (re-pin, then client resend), and a torn client body.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// TestForwardRetainsNothing pins that the balancer streams a chunk
// through and keeps none of it. Over a 40-chunk session against a real
// node, after every chunk the routing entry is the pin alone, and after
// every chunk past the tenth the live heap has not grown since the tenth
// by half the bytes forwarded since; the bytes the process allocates
// while any of the last ten chunks is forwarded stay within 1.5× of the
// second's. (Both include what the in-process node allocates and keeps
// for a chunk, a fraction of the chunk. The heap baseline waits for the
// node's window index and pools to reach their working size, which the
// first chunks grow by a few hundred kilobytes.)
func TestForwardRetainsNothing(t *testing.T) {
	// With the collector off, what a chunk allocates does not depend on
	// when a cycle last emptied the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := newFleetNode(t, "a")
	lb, ts := newTestBalancer(t, Options{}, a)
	const chunks, warm = 40, 10
	bodies, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 23, chunks*sim.Second), chunks)
	if len(bodies) != chunks || len(bodies[1]) < 256<<10 {
		t.Fatalf("%d chunks, the second of %d bytes", len(bodies), len(bodies[1]))
	}
	routes := lb.Routes()
	cost := make([]uint64, chunks)
	var heap0 uint64
	forwarded := 0
	for i, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/ingest?session=cost", bytes.NewReader(body))
		req.Header.Set("Content-Type", ingest.ContentTypeJSONL)
		ingest.Request{Seq: seqs[i], Resumable: true, Eos: i == chunks-1}.SetHeaders(req.Header)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		routes.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		cost[i] = after.TotalAlloc - before.TotalAlloc
		if want := map[bool]int{false: http.StatusAccepted, true: http.StatusOK}[i == chunks-1]; rec.Code != want {
			t.Fatalf("chunk %d: status %d: %s", i+1, rec.Code, rec.Body)
		}

		// An entry is the pin, done and failovers: any other member fails
		// the decode.
		var table []struct {
			Session   string `json:"session"`
			Backend   string `json:"backend"`
			Done      bool   `json:"done"`
			Failovers int    `json:"failovers"`
		}
		dec := json.NewDecoder(strings.NewReader(readBody(t, mustGet(t, ts.URL+"/lb/sessions"))))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&table); err != nil || len(table) != 1 {
			t.Fatalf("chunk %d: /lb/sessions %+v (%v), want one entry of pin, done and failovers", i+1, table, err)
		}
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		if i < warm {
			heap0 = live.HeapAlloc
			continue
		}
		forwarded += len(body)
		if grown := int64(live.HeapAlloc) - int64(heap0); grown > int64(forwarded)/2 {
			t.Fatalf("after chunk %d the live heap grew %d bytes since chunk %d, with %d bytes forwarded since", i+1, grown, warm, forwarded)
		}
	}
	for i := chunks - 10; i < chunks; i++ {
		if float64(cost[i]) > 1.5*float64(cost[1]) {
			t.Fatalf("forwarding chunk %d allocated %d bytes, chunk 2 %d: the cost grows with the session\nall: %v", i+1, cost[i], cost[1], cost)
		}
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
// boundary; the next chunk gets a retryable 503 with Retry-After (and
// marks the node down); the same chunk again is re-pinned to a node that
// has never seen the session; and the real client, probing the watermark
// and resending from there, ends with the report clean ingest gets. A
// JSONL chunk is the next lines at their seq, so on the fresh pin it is
// a 412 seq gap. A binary stream starts with its header, so a binary
// chunk is the whole stream so far at seq 0: the fresh pin takes it as
// the session's start.
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
			resp := postChunk(t, ts.URL, id, f.contentType, f.seqs[1], false, bytes.NewReader(f.chunks[1]))
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusServiceUnavailable || ingest.ErrorCode([]byte(body)) != ingest.CodeUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("chunk against the dead owner: %d %s (Retry-After %q), want 503 unavailable with Retry-After",
					resp.StatusCode, body, resp.Header.Get("Retry-After"))
			}
			if body := post(1, f.onFreshPin); f.onFreshPin == http.StatusPreconditionFailed && ingest.ErrorCode([]byte(body)) != ingest.CodeSeqGap {
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
			var table []struct {
				Done      bool `json:"done"`
				Failovers int  `json:"failovers"`
			}
			if err := json.Unmarshal([]byte(readBody(t, mustGet(t, ts.URL+"/lb/sessions"))), &table); err != nil || len(table) != 1 || !table[0].Done || table[0].Failovers != 1 {
				t.Fatalf("/lb/sessions %+v (%v), want the session done after one failover", table, err)
			}
		})
	}
}

// TestClientResendFailoverWhenBufferOverflows leaves recovery wholly to
// the real client. The balancer holds no buffer, so every failover is
// the case an overflowing one used to be: after the owner dies mid-upload,
// ingest.Client.Upload meets the 503 itself, backs off, probes the new
// pin's watermark (0) and resends the session, ending byte-identical to
// clean ingest.
func TestClientResendFailoverWhenBufferOverflows(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	lb, ts := newTestBalancer(t, Options{}, a, b)

	const id = "resend-sess"
	payload := sessionJSONL(t, ran.Presets()[0], 22, 3*sim.Second)
	chunks, seqs := splitLines(payload, 3)
	mustPost(t, ts.URL, id, seqs[0], false, chunks[0], http.StatusAccepted)
	owner, other := ownerAndOther(lb, id, a, b)
	owner.kill()

	if stats := resend(t, ts.URL, id, ingest.ContentTypeJSONL, payload); stats.ShedRetries == 0 {
		t.Fatalf("stats = %+v, expected shed retries through the failover", stats)
	}
	if got, want := fetchReport(t, other.ts.URL, id), cleanReport(t, id, payload); !bytes.Equal(got, want) {
		t.Fatalf("survivor's report diverged from clean ingest\nclean: %s\nfleet: %s", want, got)
	}
	if v := lb.m.failovers.Value(); v != 1 {
		t.Fatalf("failovers counter = %d, want 1", v)
	}
}

// TestTornClientBodyKeepsBackendUp sends FailThreshold resumable chunks
// in a row whose bodies the client tears mid-transfer: each is answered
// as the node answers a torn body (503 interrupted; a one-shot body's
// is a 400), none counts against the backend, and it stays up.
func TestTornClientBodyKeepsBackendUp(t *testing.T) {
	a := newFleetNode(t, "a")
	const threshold = 3
	lb, ts := newTestBalancer(t, Options{FailThreshold: threshold}, a)
	chunk, _ := splitLines(sessionJSONL(t, ran.Presets()[0], 25, 2*sim.Second), 2)
	torn := func(id string, req ingest.Request) (int, ingest.Code) {
		t.Helper()
		resp := postTorn(t, ts.URL, id, req, ingest.ContentTypeJSONL, chunk[0])
		return resp.StatusCode, ingest.ErrorCode([]byte(readBody(t, resp)))
	}
	for i := 0; i < threshold; i++ {
		if status, code := torn(fmt.Sprintf("torn-%d", i), ingest.Request{Resumable: true}); status != http.StatusServiceUnavailable || code != ingest.CodeInterrupted {
			t.Fatalf("torn body %d: %d %q, want 503 interrupted", i+1, status, code)
		}
	}
	if status, _ := torn("torn-one-shot", ingest.Request{}); status != http.StatusBadRequest {
		t.Fatalf("torn one-shot body: %d, want 400", status)
	}
	if st := backendOf(t, lb, a).State(); st != stateUp {
		t.Fatalf("torn client bodies moved the backend to %v", st)
	}
	if v := lb.m.proxyErrors.Value(); v != 0 {
		t.Fatalf("dominolb_proxy_errors_total = %d after torn client bodies, want 0", v)
	}
}
