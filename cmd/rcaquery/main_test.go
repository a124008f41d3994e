package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// fixtureStore is internal/rcastore's on-disk fixture: 21 rows over four
// cells (one needing escaping), starts before and after the epoch, rows
// that fired nothing and causes listed with zero runs.
const fixtureStore = "../../internal/rcastore/testdata/checkpoint.rcas"

// writeFixtureStore spills a small three-session fleet to disk.
func writeFixtureStore(t *testing.T) string {
	t.Helper()
	st := rcastore.New(rcastore.Options{})
	mk := func(session, cell, scen string, minute int, fired []string, chain, cause string, runs int) {
		start := sim.Time(minute) * sim.Minute
		rec := rcastore.Record{
			Session: session, Cell: cell, Scenario: scen,
			Start: start, End: start + sim.Minute, Fired: fired,
		}
		if chain != "" {
			rec.Chains = []rcastore.ChainRuns{{Chain: chain, Runs: runs}}
			rec.Causes = []rcastore.CauseRuns{{Cause: cause, Runs: runs}}
		}
		st.Insert(rec)
	}
	mk("s1", "tdd", "harq-storm", 0, []string{"harq_retx", "jitter_buffer_drain"},
		"harq_retx --> jitter_buffer_drain", "harq_retx", 4)
	mk("s2", "tdd", "grant-starvation", 30, []string{"ul_scheduling", "target_bitrate_down"},
		"ul_scheduling --> target_bitrate_down", "ul_scheduling", 7)
	mk("s3", "fdd", "harq-storm", 60, []string{"harq_retx"},
		"harq_retx --> jitter_buffer_drain", "harq_retx", 1)
	path := filepath.Join(t.TempDir(), "fleet.spill")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Spill(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// storeNode serves the checkpoint at path from a node whose clock stands
// at the store's newest start, where rcaquery anchors last=.
func storeNode(t *testing.T, path string) http.Handler {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := rcastore.Load(f, rcastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	newest := st.Stats().MaxStart
	return node.New(a, node.Options{Store: st, Now: func() sim.Time { return newest }}).Routes()
}

// get answers one GET from h.
func get(h http.Handler, read string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, read, nil))
	return rec.Code, rec.Body.String()
}

// TestReadsMatchNode pins the one read grammar: for every read, rcaquery
// over a checkpoint prints the body a node holding that checkpoint
// answers the GET with, byte for byte; a read the node refuses with a 400
// exits 2 and an unknown probe, the node's 404, exits 1, each with the
// node's message.
func TestReadsMatchNode(t *testing.T) {
	h := storeNode(t, fixtureStore)
	for _, read := range []string{
		"/query",
		"/query?cell=tdd",
		"/query?cell=cell+%22q%22+%C3%BC",
		"/query?scenario=harq-storm",
		"/query?session=fx008",
		"/query?cause=harq_retx",
		"/query?cause=ul_scheduling",
		"/query?fired=harq_retx,node_22",
		"/query?from=-60000000",
		"/query?to=60003702",
		"/query?from=-119988894&to=120004936&cell=fdd",
		"/query?last=2m",
		"/query?limit=4",
		"/query?cell=nope",
		"/query?agg=top_chains",
		"/query?agg=top_chains&k=3",
		"/query?agg=top_chains&k=2&last=5m&cell=fdd",
		"/query?agg=cause_rates",
		"/query?agg=cause_rates&bucket=30m",
		"/query?agg=cause_rates&bucket=1m&from=-60000000&scenario=grant-starvation",
		"/incidents/similar?session=fx008",
		"/incidents/similar?session=fx008&k=2&cell=tdd",
		"/incidents/similar?session=fx005&k=3",
		"/incidents/similar?fired=harq_retx,node_22&k=3",
		"/incidents/similar?fired=&cell=fdd&k=0",
		"/incidents/similar?fired=harq_retx&scenario=harq-storm",
	} {
		code, body := get(h, read)
		out, errOut, exit := runCLI(t, "-store", fixtureStore, read)
		if code != http.StatusOK || exit != 0 || out != body {
			t.Errorf("%s: node %d, rcaquery exit %d (stderr %q); bodies differ: %v\nnode:     %s\nrcaquery: %s",
				read, code, exit, errOut, out != body, body, out)
		}
	}
	refusals := []struct {
		read   string
		status int
		exit   int
	}{
		{"/query?limit=abc", http.StatusBadRequest, 2},
		{"/query?agg=top_chains&k=-1", http.StatusBadRequest, 2},
		{"/query?agg=cause_rates&bucket=0", http.StatusBadRequest, 2},
		{"/query?agg=cause_rates&bucket=500ns", http.StatusBadRequest, 2},
		{"/query?last=bogus", http.StatusBadRequest, 2},
		{"/query?agg=bogus", http.StatusBadRequest, 2},
		{"/incidents/similar?fired=a&k=-1", http.StatusBadRequest, 2},
		{"/incidents/similar", http.StatusBadRequest, 2},
		{"/incidents/similar?session=fx008&k=-1", http.StatusBadRequest, 2},
		{"/query?cell=%zz", http.StatusBadRequest, 2},
		{"/query?cell=tdd&limit=%zz", http.StatusBadRequest, 2},
		{"/incidents/similar?session=nope", http.StatusNotFound, 1},
	}
	for _, c := range refusals {
		code, body := get(h, c.read)
		var e ingest.ErrorBody
		if err := json.Unmarshal([]byte(body), &e); err != nil || code != c.status {
			t.Fatalf("%s: node answers %d %s, want %d with an error body", c.read, code, body, c.status)
		}
		out, errOut, exit := runCLI(t, "-store", fixtureStore, c.read)
		if exit != c.exit || out != "" || errOut != "rcaquery: "+e.Error+"\n" {
			t.Errorf("%s: rcaquery exit %d, stdout %q, stderr %q; want exit %d and the node's %q",
				c.read, exit, out, errOut, c.exit, e.Error)
		}
	}
}

// rows runs a read over path (the default read when empty) and lists the key member of each row of
// the answer's rows member.
func rows(t *testing.T, path, read, member, key string) []string {
	t.Helper()
	args := []string{"-store", path}
	if read != "" {
		args = append(args, read)
	}
	out, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("%s: exit %d, stderr: %s", read, code, errOut)
	}
	var answer map[string]json.RawMessage
	var list []map[string]any
	if err := json.Unmarshal([]byte(out), &answer); err != nil {
		t.Fatalf("%s: %v in %s", read, err, out)
	}
	if err := json.Unmarshal(answer[member], &list); err != nil {
		t.Fatalf("%s: %s: %v in %s", read, member, err, out)
	}
	var got []string
	for _, r := range list {
		got = append(got, r[key].(string))
	}
	return got
}

// checkRows runs each read over the three-session fleet of
// writeFixtureStore — s1 (tdd, minute 0, harq_retx chain ×4), s2 (tdd,
// minute 30, ul_scheduling chain ×7), s3 (fdd, minute 60, harq_retx
// chain ×1) — and compares the key member of its rows.
func checkRows(t *testing.T, cases []rowsCase) {
	t.Helper()
	store := writeFixtureStore(t)
	for _, c := range cases {
		if got := rows(t, store, c.read, c.member, c.key); !slices.Equal(got, c.want) {
			t.Errorf("%s: %s %s = %q, want %q", c.read, c.member, c.key, got, c.want)
		}
	}
}

type rowsCase struct {
	read, member, key string
	want              []string
}

func TestListRecords(t *testing.T) {
	checkRows(t, []rowsCase{
		{"", "records", "session", []string{"s1", "s2", "s3"}},
		{"/query?cell=fdd", "records", "session", []string{"s3"}},
		{"/query?cause=ul_scheduling", "records", "session", []string{"s2"}},
		// last= is anchored at the newest record (minute 60), not the wall clock.
		{"/query?last=45m", "records", "session", []string{"s2", "s3"}},
	})
}

func TestTopChainsAction(t *testing.T) {
	// The ul_scheduling chain's 7 runs outrank harq's 5, and k cuts.
	checkRows(t, []rowsCase{
		{"/query?agg=top_chains&k=1", "top_chains", "chain", []string{"ul_scheduling --> target_bitrate_down"}},
		{"/query?agg=top_chains", "top_chains", "chain", []string{"ul_scheduling --> target_bitrate_down", "harq_retx --> jitter_buffer_drain"}},
	})
}

func TestCauseRatesAction(t *testing.T) {
	checkRows(t, []rowsCase{
		{"/query?agg=cause_rates&bucket=30m", "cause_rates", "cell", []string{"fdd", "tdd", "tdd"}},
		{"/query?agg=cause_rates&bucket=30m", "cause_rates", "cause", []string{"harq_retx", "harq_retx", "ul_scheduling"}},
	})
}

func TestSimilarAction(t *testing.T) {
	// s3 shares harq_retx (distance 1), s2 nothing (distance 4); the probe
	// s1 is not its own match.
	checkRows(t, []rowsCase{
		{"/incidents/similar?session=s1&k=1", "matches", "session", []string{"s3"}},
		{"/incidents/similar?session=s1", "matches", "session", []string{"s3", "s2"}},
		{"/incidents/similar?fired=ul_scheduling,target_bitrate_down&k=1", "matches", "session", []string{"s2"}},
	})
	_, errOut, code := runCLI(t, "-store", writeFixtureStore(t), "/incidents/similar?session=nope")
	if code != 1 || errOut != "rcaquery: session \"nope\" has no stored report\n" {
		t.Fatalf("unknown probe session: exit %d, stderr %q", code, errOut)
	}
}

func TestStatsAction(t *testing.T) {
	store := writeFixtureStore(t)
	out, _, code := runCLI(t, "-store", store, "-stats")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := "rows 3 (inserted 3, evicted 0 in 0 blocks)\ndictionaries: 4 nodes, 2 chains, 2 causes, 2 cells, 2 scenarios\ntimeline: start 0..3600000000 µs\n"
	if out != want {
		t.Fatalf("stats output:\n%s\nwant:\n%s", out, want)
	}
}

func TestBadInvocations(t *testing.T) {
	store := writeFixtureStore(t)
	if _, _, code := runCLI(t); code != 2 {
		t.Fatalf("missing -store: exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-store", "does-not-exist.spill"); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.spill")
	if err := os.WriteFile(bad, []byte("not a store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCLI(t, "-store", bad); code != 1 {
		t.Fatalf("corrupt store: exit %d, want 1", code)
	}
	if _, _, code := runCLI(t, "-bogus-flag"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-store", store, "/query", "/query"); code != 2 {
		t.Fatalf("two reads: exit %d, want 2", code)
	}
	for _, read := range []string{"/nope", "query", "/qu%zzery"} {
		if out, _, code := runCLI(t, "-store", store, read); code != 2 || out != "" {
			t.Fatalf("read %q: exit %d, stdout %q; want exit 2", read, code, out)
		}
	}
}
