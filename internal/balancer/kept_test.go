package balancer

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// keptReads are reads of every kind the balancer fans out, each one a
// fleet merges exactly (top_chains with k=0), and probes owned by
// either node.
var keptReads = []string{
	"/query?limit=20",
	"/query?cause=a&limit=5&cell=fdd",
	"/query?agg=top_chains&k=0",
	"/query?agg=cause_rates&bucket=10m",
	"/incidents/similar?fired=a,b&k=5",
	"/incidents/similar?session=n0-003&k=5",
	"/incidents/similar?session=n1-004",
	"/sessions",
}

// keptRows are n stored calls of node name, drawn from rng.
func keptRows(rng *rand.Rand, name string, n int) []rcastore.Record {
	rows := make([]rcastore.Record, n)
	for i := range rows {
		start := fleetNow - sim.Time(1+rng.Intn(40))*sim.Minute
		r := rcastore.Record{
			Session: fmt.Sprintf("%s-%03d", name, i),
			Cell:    []string{"tdd", "fdd"}[rng.Intn(2)],
			Start:   start,
			End:     start + sim.Time(1+rng.Intn(3))*sim.Minute,
		}
		for _, f := range []string{"a", "b", "c"} {
			if rng.Intn(2) == 0 {
				r.Fired = append(r.Fired, f)
			}
		}
		if len(r.Fired) > 0 {
			r.Chains = []rcastore.ChainRuns{{Chain: r.Fired[0] + " --> x", Runs: 1 + rng.Intn(3)}}
			r.Causes = []rcastore.CauseRuns{{Cause: r.Fired[0], Runs: 1}}
		}
		rows[i] = r
	}
	return rows
}

// storeServer serves a node over a store it holds, which a test may
// swap for another node at the same URL, and counts the node's answers
// by status.
type storeServer struct {
	ts      *httptest.Server
	routes  atomic.Value // http.Handler
	mu      sync.Mutex
	status  map[int]int
	onAsked func(r *http.Request) // before each request is served, when set
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func newStoreServer(t *testing.T, st *rcastore.Store) *storeServer {
	s := &storeServer{status: map[int]int{}}
	s.serve(t, st)
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			s.routes.Load().(http.Handler).ServeHTTP(w, r)
			return
		}
		s.mu.Lock()
		onAsked := s.onAsked
		s.mu.Unlock()
		if onAsked != nil {
			onAsked(r)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.routes.Load().(http.Handler).ServeHTTP(sw, r)
		s.mu.Lock()
		s.status[sw.code]++
		s.mu.Unlock()
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// serve puts a node over st behind the server's URL.
func (s *storeServer) serve(t *testing.T, st *rcastore.Store) {
	s.routes.Store(http.Handler(node.New(testAnalyzer(t), node.Options{
		NodeID: "n", Store: st, Now: func() sim.Time { return fleetNow },
	}).Routes()))
}

func (s *storeServer) setOnAsked(f func(r *http.Request)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onAsked = f
}

// counts returns the answers by status since the last call.
func (s *storeServer) counts() map[int]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.status
	s.status = map[int]int{}
	return c
}

// keptFleet is two store nodes behind a balancer, and an oracle: one
// node over one store holding every row the fleet holds.
type keptFleet struct {
	nodes  []*storeServer
	stores []*rcastore.Store
	lb     *Balancer
	lbURL  string
}

func newKeptFleet(t *testing.T) *keptFleet {
	f := &keptFleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		st := rcastore.New(rcastore.Options{BlockRows: 16})
		for _, r := range keptRows(rand.New(rand.NewSource(int64(i))), fmt.Sprintf("n%d", i), 120) {
			st.Insert(r)
		}
		f.stores = append(f.stores, st)
		f.nodes = append(f.nodes, newStoreServer(t, st))
		urls = append(urls, f.nodes[i].ts.URL)
	}
	lb, err := New(Options{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	lbTS := httptest.NewServer(lb.Routes())
	t.Cleanup(lbTS.Close)
	f.lb, f.lbURL = lb, lbTS.URL
	return f
}

// oracle answers path as one store holding every node's rows does.
func (f *keptFleet) oracle(t *testing.T, path string) string {
	global := rcastore.New(rcastore.Options{})
	for _, st := range f.stores {
		for _, r := range st.Query(rcastore.Query{}) {
			global.Insert(r)
		}
	}
	n := node.New(testAnalyzer(t), node.Options{NodeID: "oracle", Store: global, Now: func() sim.Time { return fleetNow }})
	w := httptest.NewRecorder()
	n.Routes().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Body.String()
}

// round reads every keptRead through the balancer, requires each to be
// the oracle's 200, and returns the bodies and each node's answers by
// status.
func (f *keptFleet) round(t *testing.T) (bodies []string, counts []map[int]int) {
	t.Helper()
	for _, path := range keptReads {
		resp := mustGet(t, f.lbURL+path)
		body := readBody(t, resp)
		if want := f.oracle(t, path); resp.StatusCode != http.StatusOK || body != want {
			t.Errorf("GET %s: status %d\nfleet:\n%s\none store:\n%s", path, resp.StatusCode, body, want)
		}
		bodies = append(bodies, body)
	}
	for _, n := range f.nodes {
		counts = append(counts, n.counts())
	}
	return bodies, counts
}

func (f *keptFleet) notModified() int64 { return f.lb.m.notModified.Value() }

// TestConditionalFanout: a fan-out read is conditional on what the
// balancer kept, so a repeated read crosses the wire as 304s and is
// answered from the kept parts with the same bytes; a node whose answer
// changed (an insert, or another node at the same URL) answers 200 and
// only its part is read again. Every merged answer is one store's.
func TestConditionalFanout(t *testing.T) {
	f := newKeptFleet(t)
	first, counts := f.round(t)
	tagged := 0
	for i, c := range counts {
		if c[http.StatusNotModified] != 0 {
			t.Errorf("node %d answered 304 to a balancer that kept nothing: %v", i, c)
		}
		tagged += c[http.StatusOK]
	}

	second, counts := f.round(t)
	notModified := 0
	for i, c := range counts {
		if c[http.StatusOK] != 0 {
			t.Errorf("node %d answered 200 to a repeated read: %v", i, c)
		}
		notModified += c[http.StatusNotModified]
	}
	if notModified != tagged || f.notModified() != int64(tagged) {
		t.Errorf("second round: %d 304s, dominolb_fanout_not_modified_total %v; want %d, the first round's 200s",
			notModified, f.notModified(), tagged)
	}
	if strings.Join(second, "") != strings.Join(first, "") {
		t.Error("a repeated round answered other bytes")
	}

	// A row only n0 stores moves its answers; n1's stay 304s.
	f.stores[0].Insert(rcastore.Record{Session: "late", Cell: "fdd", Start: fleetNow - sim.Minute, End: fleetNow,
		Fired: []string{"a", "b"}, Chains: []rcastore.ChainRuns{{Chain: "a --> x", Runs: 5}}, Causes: []rcastore.CauseRuns{{Cause: "a", Runs: 5}}})
	_, counts = f.round(t)
	if counts[0][http.StatusOK] == 0 || counts[1][http.StatusOK] != 0 || counts[1][http.StatusNotModified] == 0 {
		t.Errorf("after an insert into n0: n0 answered %v, n1 %v; want n0 some 200s, n1 only 304s", counts[0], counts[1])
	}

	// The cache empties while a conditional GET is in flight: the read
	// still has the parts it sent the tags for.
	empty := func(r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			f.lb.kept.mu.Lock()
			f.lb.kept.parts, f.lb.kept.merged, f.lb.kept.bytes = nil, nil, 0
			f.lb.kept.mu.Unlock()
		}
	}
	for _, n := range f.nodes {
		n.setOnAsked(empty)
	}
	resp := mustGet(t, f.lbURL+keptReads[0])
	if got, want := readBody(t, resp), f.oracle(t, keptReads[0]); resp.StatusCode != http.StatusOK || got != want {
		t.Errorf("GET %s with the cache emptied under it: %d\n%s\nwant\n%s", keptReads[0], resp.StatusCode, got, want)
	}
	for i, n := range f.nodes {
		n.setOnAsked(nil)
		if c := n.counts(); c[http.StatusOK] != 0 || c[http.StatusNotModified] != 1 {
			t.Errorf("node %d answered %v to a repeated read, want one 304", i, c)
		}
	}

	// n1 is replaced at its URL by a node holding other rows, once the
	// emptied cache is full again.
	f.round(t)
	st := rcastore.New(rcastore.Options{})
	for _, r := range keptRows(rand.New(rand.NewSource(99)), "n1", 80) {
		st.Insert(r)
	}
	f.stores[1] = st
	f.nodes[1].serve(t, st)
	// Its one 304 is /sessions: neither node holds a session, and "[]"
	// is the same bytes from either.
	_, counts = f.round(t)
	if counts[1][http.StatusNotModified] != 1 || counts[1][http.StatusOK] == 0 {
		t.Errorf("the node replaced at n1's URL answered %v, want 200s and one 304", counts[1])
	}
}

// TestConditionalFanoutDuringInserts reads every kind through the
// balancer from several clients while both nodes store new rows, so
// kept parts and merged answers are shared, replaced and emptied under
// concurrent reads; -race holds the sharing to reading only. Once the
// inserts stop, every answer is one store's again.
func TestConditionalFanoutDuringInserts(t *testing.T) {
	f := newKeptFleet(t)
	stop := make(chan struct{})
	var inserter sync.WaitGroup
	inserter.Add(1)
	go func() {
		defer inserter.Done()
		rng := rand.New(rand.NewSource(5))
		for i, r := range keptRows(rng, "live", 60) {
			f.stores[i%2].Insert(r)
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	var readers sync.WaitGroup
	for c := 0; c < 4; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(f.lbURL + keptReads[i%len(keptReads)])
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
					t.Errorf("GET %s during inserts: %d %v %s", keptReads[i%len(keptReads)], resp.StatusCode, err, body)
					return
				}
			}
		}(c)
	}
	inserter.Wait()
	readers.Wait()
	f.round(t)
	f.round(t)
	if f.notModified() == 0 {
		t.Error("no fan-out part was reused")
	}
}

// TestKeptBounds reaches both of kept's caps: the entry cap with small
// parts and merged answers, the byte cap with one key replaced by parts
// of a full share each; either empties the whole cache. A part over its
// share is not kept at all.
func TestKeptBounds(t *testing.T) {
	const share = keptBytes / keptEntries
	var k kept
	small := &part{body: make([]byte, 0, 8), etag: `"1"`}
	for i := 0; i < keptEntries-1; i++ {
		k.keepPart(fmt.Sprint("/p", i), small)
	}
	k.keepAnswer("/merged", []*part{small, small}, []byte("{}\n"))
	if n := len(k.parts) + len(k.merged); n != keptEntries || k.answer("/merged", []*part{small, small}) == nil {
		t.Fatalf("%d entries kept, want %d with the merged answer among them", n, keptEntries)
	}
	if k.answer("/merged", []*part{small}) != nil || k.answer("/merged", []*part{small, {}}) != nil {
		t.Error("a merged answer was given for other parts than it was merged from")
	}
	k.keepPart("/one-more", small)
	if len(k.parts) != 1 || len(k.merged) != 0 || k.part("/one-more") != small {
		t.Errorf("past the entry cap: %d parts and %d answers kept, want the cache emptied and the new part", len(k.parts), len(k.merged))
	}

	full := &part{body: make([]byte, 0, share), etag: `"2"`}
	for i := 0; i < keptEntries-1; i++ {
		k.keepPart("/full", full)
	}
	if want := 8 + (keptEntries-1)*share; k.bytes != want || len(k.parts) != 2 {
		t.Fatalf("%d bytes in %d parts, want %d in 2", k.bytes, len(k.parts), want)
	}
	k.keepPart("/full", full)
	if k.bytes != share || len(k.parts) != 1 || k.part("/one-more") != nil {
		t.Errorf("past the byte cap: %d bytes in %d parts, want the cache emptied and %d in 1", k.bytes, len(k.parts), share)
	}

	over := &part{body: make([]byte, 0, share+1), etag: `"3"`}
	k.keepPart("/over", over)
	k.keepAnswer("/over", []*part{full}, make([]byte, share+1))
	untagged := &part{}
	k.keepAnswer("/untagged", []*part{full, untagged}, []byte("{}\n"))
	if k.part("/over") != nil || k.answer("/over", []*part{full}) != nil || k.answer("/untagged", []*part{full, untagged}) != nil {
		t.Error("kept a part or an answer over its share, or an answer merged from an untagged part")
	}
}
