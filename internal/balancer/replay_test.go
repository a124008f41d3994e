package balancer

// The replay buffer as a list of acknowledged chunks: what a chunk
// costs to keep, and what a failover sends.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
)

// lbEntry is one row of /lb/sessions.
type lbEntry struct {
	Session  string `json:"session"`
	Buffered int    `json:"buffered_bytes"`
	Overflow bool   `json:"overflow"`
}

func lbTableEntry(t *testing.T, base, id string) lbEntry {
	t.Helper()
	var table []lbEntry
	if err := json.Unmarshal([]byte(readBody(t, mustGet(t, base+"/lb/sessions"))), &table); err != nil {
		t.Fatal(err)
	}
	for _, e := range table {
		if e.Session == id {
			return e
		}
	}
	t.Fatalf("/lb/sessions has no %s", id)
	return lbEntry{}
}

// TestForwardCostIsPerChunk pins that acknowledging a chunk costs the
// balancer that chunk and not the session so far: over a 40-chunk
// session against a real node, the bytes the process allocates while
// any of the last ten chunks is forwarded stay within 1.5× of the
// second's. (Both include what the in-process node allocates for a
// chunk of that size, a fraction of the chunk; a replay buffer kept as
// one growing slice re-allocates the whole session, twenty chunks and
// more, once or twice in those ten.)
func TestForwardCostIsPerChunk(t *testing.T) {
	// With the collector off, what a chunk allocates does not depend on
	// when a cycle last emptied the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := newFleetNode(t, "a")
	lb, _ := newTestBalancer(t, Options{}, a)
	const chunks = 40
	bodies, seqs := splitLines(sessionJSONL(t, ran.Presets()[0], 23, chunks*sim.Second), chunks)
	if len(bodies) != chunks || len(bodies[1]) < 256<<10 {
		t.Fatalf("%d chunks, the second of %d bytes", len(bodies), len(bodies[1]))
	}
	routes := lb.Routes()
	cost := make([]uint64, chunks)
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
		if i == chunks-2 {
			sum := 0
			for _, b := range bodies[:chunks-1] {
				sum += len(b)
			}
			if s := lb.lookup("cost"); s.buffered != sum || len(s.chunks) != chunks-1 {
				t.Fatalf("replay list holds %d bytes in %d chunks, want %d in %d", s.buffered, len(s.chunks), sum, chunks-1)
			}
		}
	}
	for i := chunks - 10; i < chunks; i++ {
		if float64(cost[i]) > 1.5*float64(cost[1]) {
			t.Fatalf("forwarding chunk %d allocated %d bytes, chunk 2 %d: the cost grows with the session\nall: %v", i+1, cost[i], cost[1], cost)
		}
	}
}

// recordingNode is a real node whose POST /ingest requests are kept.
type recordingNode struct {
	*fleetNode
	mu      sync.Mutex
	bodies  [][]byte
	lengths []int64
}

func newRecordingNode(t *testing.T, nodeID string) *recordingNode {
	t.Helper()
	rn := &recordingNode{}
	n := node.New(testAnalyzer(t), node.Options{MaxStreams: 4, NodeID: nodeID, Now: func() sim.Time { return fleetNow }})
	routes := n.Routes()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/ingest" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			rn.mu.Lock()
			rn.bodies, rn.lengths = append(rn.bodies, body), append(rn.lengths, r.ContentLength)
			rn.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		routes.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rn.fleetNode = &fleetNode{node: n, ts: ts}
	return rn
}

// TestReplayListFailover kills the pinned node after n acknowledged
// chunks: the survivor receives them as one body, byte for byte, of
// declared length, and the session ends in the report a one-shot upload
// gets. Past ReplayMax the list is dropped and the client resends.
func TestReplayListFailover(t *testing.T) {
	payload := sessionJSONL(t, ran.Presets()[0], 24, 4*sim.Second)
	chunks, seqs := splitLines(payload, 20)
	want := cleanReport(t, "replay-list", payload)

	for _, n := range []int{1, 7, 19} {
		a, b := newRecordingNode(t, "a"), newRecordingNode(t, "b")
		lb, ts := newTestBalancer(t, Options{}, a.fleetNode, b.fleetNode)
		const id = "replay-list"
		for i := 0; i < n; i++ {
			mustPost(t, ts.URL, id, seqs[i], false, chunks[i], http.StatusAccepted)
		}
		prefix := bytes.Join(chunks[:n], nil)
		if e := lbTableEntry(t, ts.URL, id); e.Buffered != len(prefix) || e.Overflow {
			t.Fatalf("n=%d: /lb/sessions %+v, want %d buffered", n, e, len(prefix))
		}
		survivor := a
		if lb.lookup(id).backend.url == a.ts.URL {
			survivor = b
		}
		if survivor == a {
			b.kill()
		} else {
			a.kill()
		}
		// The first attempt finds the owner dead; the retry fails over.
		final := len(chunks) - 1
		drainClose(postChunk(t, ts.URL, id, ingest.ContentTypeJSONL, seqs[n], n == final, bytes.NewReader(chunks[n])))
		var last []byte
		for i := n; i <= final; i++ {
			status := http.StatusAccepted
			if i == final {
				status = http.StatusOK
			}
			last = mustPost(t, ts.URL, id, seqs[i], i == final, chunks[i], status)
		}
		if !bytes.Equal(last, want) {
			t.Fatalf("n=%d: failed-over report diverged from the one-shot upload's\nclean: %s\nfleet: %s", n, want, last)
		}
		survivor.mu.Lock()
		replayed, length := survivor.bodies[0], survivor.lengths[0]
		survivor.mu.Unlock()
		if !bytes.Equal(replayed, prefix) || length != int64(len(prefix)) {
			t.Fatalf("n=%d: survivor got a replay of %d bytes declared as %d, want the %d acknowledged bytes", n, len(replayed), length, len(prefix))
		}
		if v := lb.m.replayedBytes.Value(); v != int64(len(prefix)) {
			t.Fatalf("n=%d: dominolb_replayed_bytes_total = %d, want %d", n, v, len(prefix))
		}
	}

	t.Run("overflow", func(t *testing.T) {
		a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
		lb, ts := newTestBalancer(t, Options{ReplayMax: int64(len(chunks[0]) + len(chunks[1]) - 1)}, a, b)
		const id = "replay-list"
		mustPost(t, ts.URL, id, seqs[0], false, chunks[0], http.StatusAccepted)
		if e := lbTableEntry(t, ts.URL, id); e.Buffered != len(chunks[0]) || e.Overflow {
			t.Fatalf("under the cap: %+v", e)
		}
		mustPost(t, ts.URL, id, seqs[1], false, chunks[1], http.StatusAccepted)
		if e := lbTableEntry(t, ts.URL, id); e.Buffered != 0 || !e.Overflow {
			t.Fatalf("over the cap: %+v, want the list dropped", e)
		}

		// A chunk whose declared length alone is past the cap ends the same
		// way, and the balancer does not buffer it on the way through. With
		// the collector off, proxying it allocates under twice its size:
		// 1.4× measured, all of it the in-process node starting a session,
		// where an unsized tee doubling its way up added another 3.4×.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		req := httptest.NewRequest(http.MethodPost, "/ingest?session=oversize", bytes.NewReader(payload))
		req.Header.Set("Content-Type", ingest.ContentTypeJSONL)
		ingest.Request{Resumable: true}.SetHeaders(req.Header)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lb.Routes().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if e := lbTableEntry(t, ts.URL, "oversize"); rec.Code != http.StatusAccepted || e.Buffered != 0 || !e.Overflow {
			t.Fatalf("oversize chunk: status %d, %+v, want 202 and the list dropped", rec.Code, e)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(len(payload)) {
			t.Fatalf("proxying a %d-byte chunk that cannot be kept allocated %d bytes", len(payload), got)
		}

		owner, other := ownerAndOther(lb, id, a, b)
		owner.kill()
		client := ingest.New(ingest.Options{
			BaseURL: ts.URL, Retries: 4, Backoff: time.Millisecond, Seed: 7,
			Sleep: func(time.Duration) {},
		})
		if _, err := client.Upload(context.Background(), id, ingest.ContentTypeJSONL, payload); err != nil {
			t.Fatal(err)
		}
		if got := fetchReport(t, other.ts.URL, id); !bytes.Equal(got, want) {
			t.Fatalf("survivor's report diverged from clean ingest\nclean: %s\nfleet: %s", want, got)
		}
		if v := lb.m.replayedBytes.Value(); v != 0 {
			t.Fatalf("dominolb_replayed_bytes_total = %d after an overflowed session failed over, want 0", v)
		}
	})
}
