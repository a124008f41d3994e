package rcastore

import (
	"bytes"
	"encoding/json"
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

// answerFixtures seeds the four answer shapes: every awkward string in
// every string position, every awkward float in both float positions,
// nil against empty at every level, scenario present and omitted.
func answerFixtures() (recs []Record, chains []ChainAgg, rates []CauseBucket, matches []Match) {
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
	matches = make([]Match, len(recs))
	for i, r := range recs {
		matches[i] = Match{Record: r, Distance: i - 3}
	}
	return recs, chains, rates, matches
}

// TestAnswerEncodersZeroAlloc: rendering an answer into a buffer that
// has grown to its size allocates nothing, whatever escapes, floats and
// omissions the rows hold — a node's pooled answer buffer is such a
// buffer from its second query on.
func TestAnswerEncodersZeroAlloc(t *testing.T) {
	recs, chains, rates, matches := answerFixtures()
	for name, render := range map[string]func(dst []byte) []byte{
		"records":     func(dst []byte) []byte { return AppendRecordsAnswer(dst, recs) },
		"top_chains":  func(dst []byte) []byte { return AppendTopChainsAnswer(dst, chains) },
		"cause_rates": func(dst []byte) []byte { return AppendCauseRatesAnswer(dst, rates) },
		"similar":     func(dst []byte) []byte { return AppendSimilarAnswer(dst, awkward, matches) },
	} {
		buf := render(nil)
		if allocs := testing.AllocsPerRun(20, func() { buf = render(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: %v allocs per answer, want 0", name, allocs)
		}
	}
}

func TestAnswerEncodersMatchEncodingJSON(t *testing.T) {
	sameRecords := func(recs []Record) bool {
		return bytes.Equal(AppendRecordsAnswer(nil, recs), stdAnswer(t, map[string]any{"records": recs}))
	}
	sameChains := func(rows []ChainAgg) bool {
		return bytes.Equal(AppendTopChainsAnswer(nil, rows), stdAnswer(t, map[string]any{"top_chains": rows}))
	}
	sameRates := func(rows []CauseBucket) bool {
		return bytes.Equal(AppendCauseRatesAnswer(nil, rows), stdAnswer(t, map[string]any{"cause_rates": rows}))
	}
	sameSimilar := func(fired []string, matches []Match) bool {
		return bytes.Equal(AppendSimilarAnswer(nil, fired, matches), stdAnswer(t, map[string]any{"fired": fired, "matches": matches}))
	}
	recs, chains, rates, matches := answerFixtures()
	for name, ok := range map[string]bool{
		"records":           sameRecords(recs),
		"records nil":       sameRecords(nil),
		"records empty":     sameRecords([]Record{}),
		"records one":       sameRecords(recs[:1]),
		"top_chains":        sameChains(chains),
		"top_chains nil":    sameChains(nil),
		"top_chains empty":  sameChains([]ChainAgg{}),
		"cause_rates":       sameRates(rates),
		"cause_rates nil":   sameRates(nil),
		"cause_rates empty": sameRates([]CauseBucket{}),
		"similar":           sameSimilar(awkward, matches),
		"similar nil nil":   sameSimilar(nil, nil),
		"similar empty":     sameSimilar([]string{}, []Match{}),
		"similar nil fired": sameSimilar(nil, matches[:2]),
		"similar no match":  sameSimilar([]string{"a"}, nil),
	} {
		if !ok {
			t.Errorf("%s: encoder and encoding/json differ", name)
		}
	}
	if t.Failed() {
		t.Logf("records:\n%s\nwant:\n%s", AppendRecordsAnswer(nil, recs), stdAnswer(t, map[string]any{"records": recs}))
	}

	// A Match's distance comes after every member of the embedded record.
	one := AppendSimilarAnswer(nil, []string{"a"}, matches[:1])
	if d, m := bytes.Index(one, []byte(`"distance"`)), bytes.LastIndex(one, []byte(`"causes"`)); m < 0 || d < m {
		t.Errorf("distance at %d, causes at %d: distance must come last\n%s", d, m, one)
	}

	// An encoder appends: what the buffer held stays.
	if got := AppendTopChainsAnswer([]byte("kept"), nil); !bytes.HasPrefix(got, []byte("kept{")) {
		t.Errorf("AppendTopChainsAnswer dropped the buffer's contents: %q", got)
	}

	// Random values of every shape.
	for name, f := range map[string]any{"records": sameRecords, "top_chains": sameChains, "cause_rates": sameRates, "similar": sameSimilar} {
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// BenchmarkRCAStoreEncode measures rendering each answer shape into a
// buffer the caller reuses, as the node does per query.
func BenchmarkRCAStoreEncode(b *testing.B) {
	recs := synthRecords(50)
	matches := make([]Match, 5)
	for i := range matches {
		matches[i] = Match{Record: recs[i], Distance: i}
	}
	var chains []ChainAgg
	var rates []CauseBucket
	for i := 0; i < 5; i++ {
		chains = append(chains, ChainAgg{Chain: recs[i].Chains[0].Chain, Runs: 100 - i, Sessions: 40 - i})
	}
	for i := 0; i < 60; i++ {
		rates = append(rates, CauseBucket{Cell: recs[i%50].Cell, Bucket: sim.Time(i/5) * 60 * sim.Minute, Cause: recs[i%50].Causes[0].Cause,
			Runs: i, Sessions: 3 * i, Minutes: float64(i) * 1.5, RunsPerMin: 1 / 1.5})
	}
	for _, shape := range []struct {
		name   string
		append func(dst []byte) []byte
	}{
		{"records50", func(dst []byte) []byte { return AppendRecordsAnswer(dst, recs) }},
		{"top_chains", func(dst []byte) []byte { return AppendTopChainsAnswer(dst, chains) }},
		{"cause_rates", func(dst []byte) []byte { return AppendCauseRatesAnswer(dst, rates) }},
		{"similar_k5", func(dst []byte) []byte { return AppendSimilarAnswer(dst, recs[0].Fired, matches) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			buf := shape.append(nil)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = shape.append(buf[:0])
			}
		})
	}
}
