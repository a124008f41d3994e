package balancer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// wireJSON is a body as a node writes it (ingest.WriteJSON's layout) or,
// compact, as some other encoder might — which the scan rejects.
func wireJSON(t testing.TB, v any, compact bool) []byte {
	t.Helper()
	if compact {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rec := httptest.NewRecorder()
	ingest.WriteJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// scanRows are rows whose merge is delicate: session ids that need
// escaping or are not ASCII, few distinct starts and distances, and
// sessions that recur (in one backend and across them). None is invalid
// UTF-8: a node writes that as \ufffd, which the old merge decoded and
// wrote back as the character itself — the one place where the bytes it
// gave were not the bytes one store gives, and the splice's are.
func scanRows(rng *rand.Rand, n int) []rcastore.Match {
	sessions := []string{"s-1", "s-2", "s-3", `q"uo\te`, "tab\there", "<a --> b>", "héllo ✓", "sep ", "repl\ufffdaced", "🎥", ""}
	rows := make([]rcastore.Match, n)
	for i := range rows {
		start := sim.Time(rng.Intn(3)) * sim.Minute
		r := rcastore.Record{Session: sessions[rng.Intn(len(sessions))], Cell: "fdd", Start: start, End: start + sim.Minute}
		if rng.Intn(2) == 0 {
			r.Session = fmt.Sprintf("%s#%d", r.Session, rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			r.Scenario = "rush-hour"
			r.Fired = []string{"a", "<b>"}
			r.Chains = []rcastore.ChainRuns{{Chain: "a --> b", Runs: 1 + rng.Intn(3)}}
			r.Causes = []rcastore.CauseRuns{{Cause: "a", Runs: 1}}
		}
		rows[i] = rcastore.Match{Record: r, Distance: rng.Intn(3)}
	}
	return rows
}

// spliced is the balancer's merge of the given backend bodies, nil when
// one does not scan.
func spliced(t testing.TB, bodies [][]byte, rowsKey string, merge func(answers []*part) []byte) []byte {
	t.Helper()
	var answers []*part
	for _, body := range bodies {
		p := &part{body: body}
		if err := scanAnswer(p.body, rowsKey, &p.scanned); err != nil {
			t.Fatalf("a body laid out as json.Encoder's indent lays it out does not scan: %v\n%s", err, body)
		}
		answers = append(answers, p)
	}
	return merge(answers)
}

// checkSpliceDifferential builds a small fleet's answers from seed and
// holds the splice to the path it replaced: decode every body, rank with
// the store's comparator, drop what is dropped, cut, ingest.WriteJSON.
func checkSpliceDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	backends := 1 + rng.Intn(3)
	limit := []int{0, 1, 3, 100}[rng.Intn(4)]
	probe := []string{"", "s-1", `q"uo\te`}[rng.Intn(3)]

	var recordBodies, similarBodies [][]byte
	var records []rcastore.Record
	var matches []rcastore.Match
	fired := []string{"a", "<b>", "c\td"}
	for i := 0; i < backends; i++ {
		rows := scanRows(rng, rng.Intn(8))
		var recs []rcastore.Record // nil: a node's "records": null
		for _, m := range rows {
			recs = append(recs, m.Record)
		}
		recordBodies = append(recordBodies, wireJSON(t, map[string]any{"records": recs}, false))
		similarBodies = append(similarBodies, wireJSON(t, map[string]any{"fired": fired, "matches": rows}, false))
		var gotRecs struct{ Records []rcastore.Record }
		var gotRows struct{ Matches []rcastore.Match }
		if err := json.Unmarshal(recordBodies[i], &gotRecs); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(similarBodies[i], &gotRows); err != nil {
			t.Fatal(err)
		}
		records = append(records, gotRecs.Records...)
		matches = append(matches, gotRows.Matches...)
	}

	sort.SliceStable(records, func(i, j int) bool { return rcastore.RecordLess(&records[i], &records[j]) })
	if limit > 0 && len(records) > limit {
		records = records[:limit]
	}
	if records == nil {
		records = []rcastore.Record{}
	}
	want := wireJSON(t, map[string]any{"records": records}, false)
	got := spliced(t, recordBodies, "records", func(answers []*part) []byte { return mergeRecords(nil, answers, limit) })
	if !bytes.Equal(got, want) {
		t.Errorf("seed %d: records splice\n%s\ndecode, sort, encode\n%s", seed, got, want)
	}

	seen := map[string]bool{}
	kept := []rcastore.Match{}
	for _, m := range matches {
		if m.Session == probe || seen[m.Session] {
			continue
		}
		seen[m.Session] = true
		kept = append(kept, m)
	}
	sort.SliceStable(kept, func(i, j int) bool { return rcastore.MatchLess(&kept[i], &kept[j]) })
	if limit > 0 && len(kept) > limit {
		kept = kept[:limit]
	}
	want = wireJSON(t, map[string]any{"fired": fired, "matches": kept}, false)
	got = spliced(t, similarBodies, "matches", func(answers []*part) []byte {
		return mergeSimilar(nil, answers[0].fired, answers, probe, limit)
	})
	if !bytes.Equal(got, want) {
		t.Errorf("seed %d: similar splice\n%s\ndecode, dedup, sort, encode\n%s", seed, got, want)
	}

	var sessionBodies [][]byte
	infos := []node.SessionInfo{}
	for i := 0; i < backends; i++ {
		rows := []node.SessionInfo{} // a node's empty /sessions is [], not null
		for _, m := range scanRows(rng, rng.Intn(6)) {
			rows = append(rows, node.SessionInfo{Session: m.Session, Cell: m.Cell, Scenario: m.Scenario, State: ingest.StateDone, Records: m.Distance})
		}
		sessionBodies = append(sessionBodies, wireJSON(t, rows, false))
		infos = append(infos, rows...)
	}
	sort.SliceStable(infos, func(i, j int) bool { return infos[i].Session < infos[j].Session })
	want = wireJSON(t, infos, false)
	got = spliced(t, sessionBodies, arrayBody, func(answers []*part) []byte { return mergeSessions(nil, answers) })
	if !bytes.Equal(got, want) {
		t.Errorf("seed %d: /sessions splice\n%s\ndecode, sort, encode\n%s", seed, got, want)
	}
}

// FuzzFanoutScan: the scanner parses whatever a backend returns. For any
// bytes it must not panic, and when it accepts a body, the body is JSON
// in the one layout a node writes — so a body that differs from an
// accepted one only in whitespace is rejected — and what it kept of the
// body is what decoding it keeps. For bodies encoding/json built from
// seeded rows, the splice is the old decode-and-re-encode merge, byte
// for byte. A /sessions body, the array itself, is held to the same.
func FuzzFanoutScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	rows := scanRows(rng, 6)
	for _, compact := range []bool{false, true} {
		f.Add(wireJSON(f, map[string]any{"fired": []string{"a", "b"}, "matches": rows}, compact), int64(1))
		f.Add(wireJSON(f, map[string]any{"fired": []string(nil), "matches": rows[:1]}, compact), int64(5))
		f.Add(wireJSON(f, map[string]any{"records": []rcastore.Record{rows[0].Record, rows[1].Record}}, compact), int64(2))
		f.Add(wireJSON(f, map[string]any{"top_chains": []rcastore.ChainAgg{{Chain: "a --> b", Runs: 3, Sessions: 2}}}, compact), int64(3))
		f.Add(wireJSON(f, map[string]any{"cause_rates": []rcastore.CauseBucket{{Cell: "fdd", Cause: "a", Runs: 1, Sessions: 1, Minutes: 1.5, RunsPerMin: 1 / 1.5}}}, compact), int64(4))
	}
	for i, body := range []string{
		`{"records": null}`, `{"records": []}`, `{ "records" : [ ] , "x" : { } }`, `{"records":[{"session":"🎥\ud800x\/","start_us":-5}]}`,
		`{"records":[{"start_us":1.0}]}`, `{"records":[{"start_us":1e3}]}`, `{"records":[{"session":null}]}`, `{"records":[1]}`, `{"records":{}}`,
		`{"records":[{}]} x`, `[{"session":"a"}]`, `{"records":[{"session":"a"}`, `{"records":[{"session":"a\`, `{"fired":"a","matches":[]}`,
		`{"records":[{"session":"a\u12"}]}`, `{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a":tru}`, "{\"a\":\"\x01\"}", "{\"a\":\"\xff\"}", ``, `{`, `{"a"}`, `{"a":1,}`,
		`{"records":[{"minutes":1e999}]}`, `{"records":[{"distance":9223372036854775808}]}`, `{"records":` + string(bytes.Repeat([]byte("["), 100)),
	} {
		f.Add([]byte(body), int64(10+i))
	}
	f.Add([]byte("{\n  \"records\": [\n    {\n      \"session\": \"a\"\n    }\n  ]\n}\n"), int64(40))
	f.Add([]byte("{\n\t\"records\": [\n\t\t{\n\t\t\t\"session\": \"a\"\n\t\t}\n\t]\n}\n"), int64(41))
	infos := []node.SessionInfo{{Session: `q"uo<te>`, Cell: "fdd", State: ingest.StateDone, Records: 3}, {Session: "héllo ✓", State: ingest.StateActive}}
	for i, compact := range []bool{false, true} {
		f.Add(wireJSON(f, infos, compact), int64(42+i))
	}
	for i, body := range []string{"[]\n", "null\n", "[\n  {\n    \"session\": \"a\"\n  }\n]\n", "[\n  {\n    \"session\": 1\n  }\n]\n", "[\n  1\n]\n"} {
		f.Add([]byte(body), int64(44+i))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		for _, rowsKey := range []string{"records", "matches", "top_chains", "cause_rates", arrayBody} {
			var a scanned
			if err := scanAnswer(body, rowsKey, &a); err != nil {
				continue
			}
			var compact, canon bytes.Buffer
			if json.Compact(&compact, body) != nil {
				t.Fatalf("scanned as %s, but is not JSON: %q", rowsKey, body)
			}
			if _ = json.Indent(&canon, compact.Bytes(), "", "  "); canon.String()+"\n" != string(body) {
				t.Fatalf("scanned as %s, but is not laid out as json.Encoder's indent lays it out: %q", rowsKey, body)
			}
			for _, r := range a.rows {
				if !json.Valid(r.raw) || r.raw[0] != '{' {
					t.Fatalf("row span %q of %q is not an object", r.raw, body)
				}
			}
			if a.fired != nil && (!json.Valid(a.fired) || a.fired[0] != '[' && string(a.fired) != "null") {
				t.Fatalf("fired span %q of %q is neither null nor an array", a.fired, body)
			}
			if rowsKey == "matches" && a.fired == nil {
				t.Fatalf("scanned as matches without a fired member: %q", body)
			}
			// What the scan kept is what decoding keeps (by exact member
			// name: encoding/json also matches names case-folded into a
			// struct, which the scanner, like every dominod, does not).
			array := body
			if rowsKey != arrayBody {
				var members map[string]json.RawMessage
				if json.Unmarshal(body, &members) != nil {
					t.Fatalf("scanned as %s, but does not decode: %q", rowsKey, body)
				}
				array = members[rowsKey]
			}
			var rows []map[string]json.RawMessage
			if array != nil && json.Unmarshal(array, &rows) != nil {
				t.Fatalf("scanned as %s, but its rows do not decode: %q", rowsKey, body)
			}
			if len(rows) != len(a.rows) {
				t.Fatalf("%d rows scanned under %s, %d decoded: %q", len(a.rows), rowsKey, len(rows), body)
			}
			for i, r := range rows {
				var session string
				var start, distance int64
				for name, dst := range map[string]any{"session": &session, "start_us": &start, "distance": &distance} {
					if raw, ok := r[name]; ok && json.Unmarshal(raw, dst) != nil {
						t.Fatalf("row %d scanned, but its %s does not decode: %q", i, name, body)
					}
				}
				if got := a.rows[i]; string(got.session) != session || got.start != start || int64(got.distance) != distance {
					t.Fatalf("row %d scanned as (%q, %d, %d), decoded as (%q, %d, %d): %q",
						i, got.session, got.start, got.distance, session, start, distance, body)
				}
			}
		}
		checkSpliceDifferential(t, seed)
	})
}

// TestQueryAnswersCarryContentLength: a query answer is rendered into
// one buffer on either tier, so it goes out with its length and not in
// chunks — which is also what lets the balancer size its read.
func TestQueryAnswersCarryContentLength(t *testing.T) {
	st := rcastore.New(rcastore.Options{})
	for _, m := range scanRows(rand.New(rand.NewSource(3)), 200) { // past the 2 KiB net/http would buffer and measure by itself
		st.Insert(m.Record)
	}
	n := node.New(testAnalyzer(t), node.Options{MaxStreams: 2, NodeID: "n", Store: st, Now: func() sim.Time { return fleetNow }})
	nodeTS := httptest.NewServer(n.Routes())
	defer nodeTS.Close()
	lb, err := New(Options{Backends: []string{nodeTS.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lbTS := httptest.NewServer(lb.Routes())
	defer lbTS.Close()

	for _, path := range []string{
		"/query", "/query?limit=3", "/query?cell=never_seen", "/query?agg=top_chains", "/query?agg=cause_rates&bucket=1m",
		"/incidents/similar?fired=a&k=50", "/incidents/similar?session=s-1&k=50",
	} {
		for tier, base := range map[string]string{"node": nodeTS.URL, "balancer": lbTS.URL} {
			resp := mustGet(t, base+path)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) ||
				resp.Header.Get("Content-Length") != fmt.Sprint(len(body)) {
				t.Errorf("%s GET %s: status %d, Transfer-Encoding %v, Content-Length %d (header %q), body %d bytes",
					tier, path, resp.StatusCode, resp.TransferEncoding, resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
			}
		}
	}

	// Each of those reads through the balancer was timed once, under its
	// kind; a read the balancer rejects is not a merged read.
	drainClose(mustGet(t, lbTS.URL+"/query?limit=abc"))
	metrics := readBody(t, mustGet(t, lbTS.URL+"/metrics"))
	for kind, reads := range map[string]int{"records": 3, "top_chains": 1, "cause_rates": 1, "similar": 2} {
		if line := fmt.Sprintf("dominolb_fanout_seconds_count{kind=%q} %d\n", kind, reads); !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestPartReadIsBounded: a fan-out part holds at most partMaxBody bytes.
// A longer answer fails its part, whether the node sized it or sent it
// without a length; one of exactly partMaxBody bytes is read whole.
func TestPartReadIsBounded(t *testing.T) {
	for _, c := range []struct {
		name   string
		n, cl  int64 // bytes sent, Content-Length declared
		failed bool
	}{
		{"unsized, past the bound", partMaxBody + 2, -1, true},
		{"sized, past the bound", partMaxBody + 1, partMaxBody + 1, true},
		{"sized, at the bound", partMaxBody, partMaxBody, false},
	} {
		p := &part{}
		err := p.read(&http.Response{ContentLength: c.cl, Body: io.NopCloser(io.LimitReader(zeros{}, c.n))})
		if (err != nil) != c.failed || (err == nil && int64(len(p.body)) != c.n) {
			t.Errorf("%s: read kept %d bytes, error %v; want failed %v", c.name, len(p.body), err, c.failed)
		}
	}
}

// mergeReads are the balancer's share of a merged read once the bodies
// are in — scanning two backends' 50-row answers and writing the fleet's,
// into buffers reused from one read to the next — one func per answer
// shape, with 1.3 × the allocations per fan-out it measured: records 1
// (the row-pointer slice that is sorted), similar 103 (that slice, and
// the session-dedup map with a key per row). The fresh ones scan as fan
// does on a miss: each answer into a new part (newPart), its rows sized
// from the part it replaces, which adds the part, its rows and (similar)
// its fired names per answer: records 5, similar 109. Grown by doubling
// instead, a 50-row part's rows cost 7.
func mergeReads(tb testing.TB) []mergeRead {
	rng := rand.New(rand.NewSource(7))
	var recordBodies, similarBodies [][]byte
	for i := 0; i < 2; i++ {
		rows := scanRows(rng, 50)
		var recs []rcastore.Record
		for j := range rows {
			rows[j].Session = fmt.Sprintf("p%d-%05d", i, j)
			recs = append(recs, rows[j].Record)
		}
		recordBodies = append(recordBodies, wireJSON(tb, map[string]any{"records": recs}, false))
		similarBodies = append(similarBodies, wireJSON(tb, map[string]any{"fired": []string{"a", "b"}, "matches": rows}, false))
	}
	var reads []mergeRead
	for _, read := range []struct {
		name, rowsKey string
		fresh         bool
		maxAllocs     float64
		bodies        [][]byte
		merge         func(dst []byte, answers []*part) []byte
	}{
		{"records", "records", false, 1.3, recordBodies, mergeRecords50},
		{"similar", "matches", false, 133.9, similarBodies, mergeSimilar5},
		{"records/fresh", "records", true, 6.5, recordBodies, mergeRecords50},
		{"similar/fresh", "matches", true, 141.7, similarBodies, mergeSimilar5},
	} {
		answers := []*part{{body: read.bodies[0]}, {body: read.bodies[1]}}
		var out []byte
		once := func() []byte {
			for i, p := range answers {
				if read.fresh {
					p = newPart(nil, "", p)
					p.body, answers[i] = answers[i].body, p
				}
				if err := scanAnswer(p.body, read.rowsKey, &p.scanned); err != nil {
					tb.Fatal(err)
				}
			}
			out = read.merge(out[:0], answers)
			return out
		}
		once() // the buffers grow here, and are reused from then on
		reads = append(reads, mergeRead{read.name, read.maxAllocs, len(read.bodies[0]) + len(read.bodies[1]), once})
	}
	return reads
}

func mergeRecords50(dst []byte, answers []*part) []byte { return mergeRecords(dst, answers, 50) }

func mergeSimilar5(dst []byte, answers []*part) []byte {
	return mergeSimilar(dst, answers[0].fired, answers, "p0-00007", 5)
}

type mergeRead struct {
	name      string
	maxAllocs float64
	bytesIn   int
	once      func() []byte
}

// TestFanoutMergeAllocs: a merged read allocates per answer, not per row
// scanned or byte copied.
func TestFanoutMergeAllocs(t *testing.T) {
	const reads = 64
	for _, read := range mergeReads(t) {
		got := testing.AllocsPerRun(5, func() {
			for i := 0; i < reads; i++ {
				read.once()
			}
		}) / reads
		if got > read.maxAllocs {
			t.Errorf("%s: %.2f allocs per fan-out, ceiling %.2f", read.name, got, read.maxAllocs)
		} else {
			t.Logf("%s: %.2f allocs per fan-out", read.name, got)
		}
	}
}

// BenchmarkFanoutMerge measures the same reads' time and bytes per second.
func BenchmarkFanoutMerge(b *testing.B) {
	for _, read := range mergeReads(b) {
		b.Run(read.name, func(b *testing.B) {
			b.SetBytes(int64(read.bytesIn))
			b.ReportAllocs()
			b.ResetTimer()
			var out []byte
			for i := 0; i < b.N; i++ {
				out = read.once()
			}
			if !json.Valid(out) {
				b.Fatalf("merged answer is not JSON:\n%s", out)
			}
		})
	}
}
