package rcastore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/sim"
)

// stdAnswer is the oracle: what ingest.WriteJSON puts on the wire for v.
func stdAnswer(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkward are strings encoding/json does something to: HTML escapes,
// the short and the \u00XX control escapes, invalid UTF-8, the two line
// separators JavaScript chokes on, and plain multi-byte text.
var awkward = []string{
	"", "plain", `a --> b`, `<&>`, `"quoted\"`, "\x00\x01\b\f\n\r\t\x1f\x7f",
	"bad\xff\xfeutf8", "cut\xe2\x82", "sep\u2028and\u2029", "héllo wörld ✓ 🎥", "\ufffd",
}

var awkwardFloats = []float64{0, 1e-9, 1e21, -0.000001, 1e-6, 1e-7, 999999999999999900000, 0.1, -2.5, 123456789.125, 1e20, 5e-324}

// answerFixtures seeds the answer shapes: every awkward string in every
// string position, every awkward float in both float positions, nil
// against empty at every level, scenario present and omitted.
func answerFixtures() (recs []Record, chains []ChainAgg, rates []CauseBucket) {
	for i, s := range awkward {
		recs = append(recs, Record{
			Session: s, Cell: s, Scenario: s, Start: sim.Time(-i), End: sim.Time(i) * sim.Minute,
			Fired:  []string{s, "x" + s},
			Chains: []ChainRuns{{Chain: s, Runs: i}, {Chain: s + s, Runs: -i}},
			Causes: []CauseRuns{{Cause: s, Runs: i}},
		})
		chains = append(chains, ChainAgg{Chain: s, Runs: i, Sessions: i * i})
	}
	for i, f := range awkwardFloats {
		s := awkward[i%len(awkward)]
		rates = append(rates, CauseBucket{Cell: s, Bucket: sim.Time(i) * 60 * sim.Minute, Cause: s, Runs: i, Sessions: 2 * i, Minutes: f, RunsPerMin: -f})
	}
	recs = append(recs,
		Record{}, // everything omittable omitted
		Record{Session: "nil-lists", Cell: "c"},
		Record{Session: "empty-lists", Cell: "c", Fired: []string{}, Chains: []ChainRuns{}, Causes: []CauseRuns{}},
		Record{Session: "scenario", Cell: "c", Scenario: "rush-hour"},
		Record{Session: "one-of-each", Fired: []string{"a"}, Chains: []ChainRuns{{}}, Causes: []CauseRuns{{}}},
	)
	return recs, chains, rates
}

// TestAnswerEncodersZeroAlloc: rendering an aggregation's answer into a
// buffer that has grown to its size allocates nothing, whatever escapes,
// floats and omissions the rows hold — a node's pooled answer buffer is
// such a buffer from its second query on. Records and matches are
// rendered by Store.Answer from the columns; TestAnswerAllocs bounds it.
func TestAnswerEncodersZeroAlloc(t *testing.T) {
	_, chains, rates := answerFixtures()
	for name, render := range map[string]func(dst []byte) []byte{
		"top_chains":  func(dst []byte) []byte { return AppendTopChainsAnswer(dst, chains) },
		"cause_rates": func(dst []byte) []byte { return AppendCauseRatesAnswer(dst, rates) },
	} {
		buf := render(nil)
		if allocs := testing.AllocsPerRun(20, func() { buf = render(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: %v allocs per answer, want 0", name, allocs)
		}
	}
}

// storeOf holds recs, three rows to a block, so the fixtures sit in
// sealed blocks and the open one.
func storeOf(recs []Record) *Store {
	s := New(Options{BlockRows: 3})
	for _, r := range recs {
		s.Insert(r)
	}
	return s
}

// everything is the predicate no stored row fails, negative starts too.
var everything = Query{From: math.MinInt64}

func TestAnswerEncodersMatchEncodingJSON(t *testing.T) {
	sameRecords := func(recs []Record) bool {
		s := storeOf(recs)
		return bytes.Equal(s.Answer(nil, Read{Kind: KindRecords, Query: everything}), stdAnswer(t, map[string]any{"records": s.Query(everything)}))
	}
	sameChains := func(rows []ChainAgg) bool {
		return bytes.Equal(AppendTopChainsAnswer(nil, rows), stdAnswer(t, map[string]any{"top_chains": rows}))
	}
	sameRates := func(rows []CauseBucket) bool {
		return bytes.Equal(AppendCauseRatesAnswer(nil, rows), stdAnswer(t, map[string]any{"cause_rates": rows}))
	}
	sameSimilar := func(fired []string, recs []Record) bool {
		s := storeOf(recs)
		return bytes.Equal(s.Answer(nil, Read{Kind: KindSimilar, Fired: fired, Query: everything}),
			stdAnswer(t, map[string]any{"fired": fired, "matches": s.Similar(fired, everything, 0)}))
	}
	recs, chains, rates := answerFixtures()
	for name, ok := range map[string]bool{
		"records":             sameRecords(recs),
		"records none":        sameRecords(nil),
		"records one":         sameRecords(recs[:1]),
		"top_chains":          sameChains(chains),
		"top_chains nil":      sameChains(nil),
		"top_chains empty":    sameChains([]ChainAgg{}),
		"cause_rates":         sameRates(rates),
		"cause_rates nil":     sameRates(nil),
		"cause_rates empty":   sameRates([]CauseBucket{}),
		"similar":             sameSimilar(awkward, recs),
		"similar nil nil":     sameSimilar(nil, nil),
		"similar empty":       sameSimilar([]string{}, nil),
		"similar nil fired":   sameSimilar(nil, recs[:2]),
		"similar empty fired": sameSimilar([]string{}, recs),
		"similar no match":    sameSimilar([]string{"a"}, nil),
	} {
		if !ok {
			t.Errorf("%s: encoder and encoding/json differ", name)
		}
	}
	s := storeOf(recs)
	if t.Failed() {
		t.Logf("records:\n%s\nwant:\n%s", s.Answer(nil, Read{Kind: KindRecords, Query: everything}), stdAnswer(t, map[string]any{"records": s.Query(everything)}))
	}

	// A Match's distance comes after every member of the embedded record.
	one := s.Answer(nil, Read{Kind: KindSimilar, K: 1, Fired: []string{"a"}, Query: Query{Session: "one-of-each"}})
	if d, m := bytes.Index(one, []byte(`"distance"`)), bytes.LastIndex(one, []byte(`"causes"`)); m < 0 || d < m {
		t.Errorf("distance at %d, causes at %d: distance must come last\n%s", d, m, one)
	}

	// An encoder appends: what the buffer held stays.
	if got := AppendTopChainsAnswer([]byte("kept"), nil); !bytes.HasPrefix(got, []byte("kept{")) {
		t.Errorf("AppendTopChainsAnswer dropped the buffer's contents: %q", got)
	}
	if got := s.Answer([]byte("kept"), Read{Kind: KindRecords}); !bytes.HasPrefix(got, []byte("kept{")) {
		t.Errorf("Answer dropped the buffer's contents: %q", got)
	}

	// Random values of every shape.
	for name, f := range map[string]any{"records": sameRecords, "top_chains": sameChains, "cause_rates": sameRates, "similar": sameSimilar} {
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// BenchmarkRCAStoreEncode measures each answer shape of Store.Answer,
// rendered as when the memo lacks it, over a 50-row store into a buffer
// the caller reuses, as the node does per query: the store's rendering
// more than its selection.
func BenchmarkRCAStoreEncode(b *testing.B) {
	recs := synthRecords(50)
	s := storeOf(recs)
	for _, shape := range []struct {
		name string
		read Read
	}{
		{"records50", Read{Kind: KindRecords}},
		{"top_chains", Read{Kind: KindTopChains, K: 5}},
		{"cause_rates", Read{Kind: KindCauseRates, Bucket: 10 * sim.Minute}},
		{"similar_k5", Read{Kind: KindSimilar, K: 5, Fired: recs[0].Fired}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			buf := s.Answer(nil, shape.read)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = renderAnswer(s, buf[:0], shape.read)
			}
		})
	}
}

// TestAnswerDuringInserts: readers ask the same reads again and again
// while inserts grow every dictionary — each row a new cell, scenario,
// node, chain and cause, spelled awkwardly — and widen the fired matrix,
// so they are answered from the memo between inserts and afresh after
// each. A read touches the spelling cache, the name order and the memo's
// generation under the read lock only, so under make test's -race this
// fails if any is written outside the write lock (the memo's own map:
// outside its mutex) or read outside the read lock. Every answer is
// JSON, and the last, asked twice, equals encoding/json's.
func TestAnswerDuringInserts(t *testing.T) {
	s := New(Options{BlockRows: 4})
	reads := []Read{
		{Kind: KindRecords, Query: everything},
		{Kind: KindRecords, Query: Query{From: math.MinInt64, Limit: 3}},
		{Kind: KindSimilar, K: 5, Fired: []string{awkward[3] + "7", awkward[0] + "70"}, Query: everything},
		{Kind: KindTopChains, K: 5, Query: everything},
		{Kind: KindCauseRates, Bucket: sim.Minute, Query: everything},
	}
	var started, stopped sync.WaitGroup
	done := make(chan struct{})
	for _, r := range reads {
		started.Add(1)
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			var buf []byte
			for n := 0; ; n++ {
				if buf = s.Answer(buf[:0], r); !json.Valid(buf) {
					t.Errorf("%+v: the answer is not JSON: %s", r, buf)
				}
				if n == 0 {
					started.Done()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	for i := 0; i < 100; i++ {
		name := fmt.Sprint(awkward[i%len(awkward)], i)
		s.Insert(Record{Session: name, Cell: name, Scenario: name, Start: sim.Time(100 - i), End: sim.Time(200 - i),
			Fired: []string{name, awkward[0] + "7"}, Chains: []ChainRuns{{Chain: name, Runs: i}}, Causes: []CauseRuns{{Cause: name, Runs: i}}})
		runtime.Gosched()
	}
	close(done)
	stopped.Wait()
	hits := s.Stats().AnswerHits
	for _, r := range reads {
		want := map[string]any{"records": s.Query(r.Query)}
		switch r.Kind {
		case KindSimilar:
			want = map[string]any{"fired": r.Fired, "matches": s.Similar(r.Fired, r.Query, r.K)}
		case KindTopChains:
			want = map[string]any{"top_chains": s.TopChains(r.Query, r.K)}
		case KindCauseRates:
			want = map[string]any{"cause_rates": s.CauseRates(r.Query, r.Bucket)}
		}
		for range 2 {
			if got, want := s.Answer(nil, r), stdAnswer(t, want); !bytes.Equal(got, want) {
				t.Errorf("%+v: Answer\n%s\nencoding/json\n%s", r, got, want)
			}
		}
	}
	// The readers may have asked the first time already: at least every
	// second ask is the memo's.
	if got := s.Stats().AnswerHits - hits; got < len(reads) {
		t.Errorf("the memo answered %d of the %d final asks, want at least %d", got, 2*len(reads), len(reads))
	}
}
