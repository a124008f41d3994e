package rcastore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// parseTarget parses a request target as both tiers' handlers do: the
// path, and the raw query string after it.
func parseTarget(target string, now sim.Time) (Read, error) {
	path, raw, _ := strings.Cut(target, "?")
	return ParseRead(path, raw, now)
}

// TestParseRead pins the grammar's defaults and what each parameter
// lands in; the error wording is pinned by the node's and the fleet's
// HTTP tests, which compare the two tiers' 400s.
func TestParseRead(t *testing.T) {
	const now = sim.Time(1_000_000_000)
	for target, want := range map[string]Read{
		"/query": {Kind: KindRecords},
		"/query?cell=tdd&cause=a&fired=a,b&limit=3&to=9": {Kind: KindRecords, Query: Query{Cell: "tdd", Cause: "a", FiredAll: []string{"a", "b"}, Limit: 3, To: 9}},
		"/query?last=1s&from=5":                          {Kind: KindRecords, Query: Query{From: now - sim.Second}},
		"/query?agg=top_chains":                          {Kind: KindTopChains, K: 10},
		"/query?agg=top_chains&k=0":                      {Kind: KindTopChains},
		"/query?agg=cause_rates":                         {Kind: KindCauseRates, Bucket: 10 * sim.Minute},
		"/query?agg=cause_rates&bucket=1500ns":           {Kind: KindCauseRates, Bucket: 1},
		"/incidents/similar?fired=a,b&cell=tdd":          {Kind: KindSimilar, K: 5, Fired: []string{"a", "b"}, Query: Query{Cell: "tdd"}},
		"/incidents/similar?fired=":                      {Kind: KindSimilar, K: 5, Fired: []string{}},
		"/incidents/similar?session=s&fired=a&k=2":       {Kind: KindSimilar, K: 2, Probe: "s", Query: Query{NotSession: "s"}},
	} {
		got, err := parseTarget(target, now)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, %v; want %+v", target, got, err, want)
		}
	}
	for _, target := range []string{"/query?limit=-1", "/query?k=x&agg=top_chains", "/incidents/similar?session=", "/report/s",
		// A malformed escape refuses the read, whichever pair holds it.
		"/query?cell=%zz", "/query?cell=tdd&limit=%zz", "/incidents/similar?fired=a&k=%2", "/query?a;b",
	} {
		if got, err := parseTarget(target, now); err == nil {
			t.Errorf("%s: accepted as %+v", target, got)
		}
	}
}

// FuzzParseRead: ParseRead faces the network on both tiers. For any
// request target it must not panic, it refuses every query string
// url.ParseQuery does, and a read it accepts is one the
// store can answer: a known kind, no negative count, a bucket of at
// least the store's microsecond on cause_rates, and on similar exactly
// one of a probe session and a signature. Its answer is JSON.
func FuzzParseRead(f *testing.F) {
	for _, target := range []string{
		// The shapes of the fleet read differential's good reads.
		"/query?from=1753998200000000&cause=a&limit=7",
		"/query?cell=fdd&from=1753998200000000&cause=a&limit=0",
		"/query?agg=cause_rates&bucket=10m&from=1753998200000000",
		"/query?agg=top_chains&k=0&cell=never_seen&from=1753998200000000",
		"/incidents/similar?cell=fdd&k=5&fired=a%2Cb%2Cc",
		"/incidents/similar?k=40&fired=a%2Cnever_seen",
		"/incidents/similar?k=1&session=n0-007",
		"/incidents/similar?fired=", "/query?last=1h&agg=top_chains&k=5",
		// Its bad reads, and the node's.
		"/query?limit=abc", "/query?agg=top_chains&k=-1", "/query?agg=cause_rates&bucket=0",
		"/query?last=bogus", "/query?agg=bogus", "/incidents/similar?fired=a&k=-1", "/incidents/similar",
		"/incidents/similar?session=n0-007&k=-1", "/query?to=later&from=earlier", "/query?last=-5m",
		"/query?agg=cause_rates&bucket=500ns", "/query?from=%zz", "/sessions",
		"/query?cell=%zz", "/query?cell=tdd&limit=%zz",
	} {
		f.Add(target, int64(1_754_000_000_000_000))
	}
	st := New(Options{BlockRows: 2})
	for i, fired := range [][]string{nil, {"a"}, {"a", "b"}} {
		start := sim.Time(i) * sim.Minute
		st.Insert(Record{Session: "s" + string(rune('0'+i)), Cell: "tdd", Start: start, End: start + sim.Minute,
			Fired: fired, Chains: []ChainRuns{{Chain: "a --> b", Runs: 1}}, Causes: []CauseRuns{{Cause: "a", Runs: 1}}})
	}
	f.Fuzz(func(t *testing.T, target string, now int64) {
		r, err := parseTarget(target, sim.Time(now))
		path, raw, _ := strings.Cut(target, "?")
		if _, bad := url.ParseQuery(raw); bad != nil && err == nil {
			t.Fatalf("%q: accepted with a malformed query string (%v) on path %q", target, bad, path)
		}
		if err != nil {
			if r.Kind != "" {
				t.Fatalf("%q refused (%v) with a read: %+v", target, err, r)
			}
			return
		}
		switch r.Kind {
		case KindRecords, KindTopChains, KindCauseRates:
		case KindSimilar:
			if (r.Probe != "") == (r.Fired != nil) || r.Query.NotSession != r.Probe {
				t.Fatalf("%q: a similar read wants one of a probe and a signature: %+v", target, r)
			}
		default:
			t.Fatalf("%q: accepted as kind %q", target, r.Kind)
		}
		if r.K < 0 || r.Query.Limit < 0 || r.Kind == KindCauseRates && r.Bucket < 1 {
			t.Fatalf("%q: accepted with k %d, limit %d, bucket %d", target, r.K, r.Query.Limit, r.Bucket)
		}
		if ans := st.Answer(nil, r); !json.Valid(ans) {
			t.Fatalf("%q: the store's answer is not JSON: %s", target, ans)
		}
	})
}

// askTwice asks r twice and requires both answers to be the store's
// rendering, the first a miss and the second a hit when kept.
func askTwice(t *testing.T, s *Store, r Read, kept bool) {
	t.Helper()
	for ask := 0; ask < 2; ask++ {
		before := s.Stats().AnswerHits
		got := s.Answer(nil, r)
		if want := renderAnswer(s, nil, r); !bytes.Equal(got, want) {
			t.Fatalf("Answer(%+v), ask %d:\n%.300s\nthe store renders:\n%.300s", r, ask, got, want)
		}
		if hit, want := s.Stats().AnswerHits > before, ask == 1 && kept; hit != want {
			t.Fatalf("Answer(%+v), ask %d: hit %v, want %v (memo: %d answers, %d bytes)", r, ask, hit, want, len(s.memo.answers), s.memo.bytes)
		}
	}
}

// TestAnswerMemoBounds: the memo keeps answers until it holds memoEntries
// of them, or until the next would take it past memoBytes; an answer past
// either bound, or over memoBytes on its own, is served and not kept.
func TestAnswerMemoBounds(t *testing.T) {
	s := storeOf(synthRecords(40))
	for k := 1; k <= memoEntries+2; k++ { // each k= is a read of its own
		askTwice(t, s, Read{Kind: KindTopChains, K: k}, k <= memoEntries)
	}
	if len(s.memo.answers) != memoEntries {
		t.Fatalf("the memo holds %d answers, want the cap, %d", len(s.memo.answers), memoEntries)
	}

	// Rows of an eighth of the byte cap each: limit=k answers k eighths.
	big := strings.Repeat("x", memoBytes/8)
	s = New(Options{})
	for i := range 16 {
		s.Insert(Record{Session: fmt.Sprint(i, big), Cell: "c", Start: sim.Time(i)})
	}
	askTwice(t, s, Read{Kind: KindRecords, Query: Query{Limit: 9}}, false) // over the cap alone
	for k := 1; k <= 4; k++ {
		askTwice(t, s, Read{Kind: KindRecords, Query: Query{Limit: k}}, k <= 3) // 1+2+3 eighths fit, 4 more do not
	}
	if len(s.memo.answers) != 3 || s.memo.bytes > memoBytes || s.memo.bytes < 6*len(big) {
		t.Fatalf("the memo holds %d answers of %d bytes, want 3 of 6/8 of %d", len(s.memo.answers), s.memo.bytes, memoBytes)
	}
}

// TestAnswerMemoInvalidation: each row Insert appends, evicting or not,
// and each dictionary and row frame Load's decoder applies moves the
// store on, so the next ask of every read is answered afresh: the memo
// never serves what the store would no longer render.
func TestAnswerMemoInvalidation(t *testing.T) {
	recs := synthRecords(30)
	reads := []Read{
		{Kind: KindRecords, Query: Query{Limit: 5}},
		{Kind: KindTopChains, K: 3},
		{Kind: KindCauseRates, Bucket: 10 * sim.Minute},
		{Kind: KindSimilar, K: 2, Fired: recs[0].Fired},
	}
	askAll := func(s *Store) {
		t.Helper()
		for _, r := range reads {
			askTwice(t, s, r, true)
		}
	}
	s := New(Options{BlockRows: 4, MaxBlocks: 3})
	for _, rec := range recs[:20] {
		s.Insert(rec)
		askAll(s)
	}
	if s.Stats().EvictedRows == 0 {
		t.Fatal("no Insert evicted")
	}

	// Load is New and this loop over a spill's frames; into a store that
	// holds rows, the decoder does not refuse names it already has.
	var spill bytes.Buffer
	if err := storeOf(recs[20:]).Spill(&spill); err != nil {
		t.Fatal(err)
	}
	fr, d := newFrameReader(&spill), decoder{st: s}
	for {
		kind, p, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.frame(kind, p); err != nil {
			t.Fatal(err)
		}
		if kind == frameDict || kind == frameRow {
			askAll(s)
		}
	}
	if d.rows != 10 {
		t.Fatalf("the decoder appended %d rows, want 10", d.rows)
	}
}
