package rcastore

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/sim"
)

// rec builds a synthetic record at minute m with the given identity and
// payload.
func rec(session, cell, scen string, m int, fired []string, chains []ChainRuns, causes []CauseRuns) Record {
	start := sim.Time(m) * sim.Minute
	return Record{
		Session: session, Cell: cell, Scenario: scen,
		Start: start, End: start + sim.Minute,
		Fired: fired, Chains: chains, Causes: causes,
	}
}

func sessions(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Session
	}
	return out
}

func TestFromReport(t *testing.T) {
	chain := core.Chain{ID: 1, Nodes: []string{"harq_retx", "forward_delay_up", "jitter_buffer_drain"}}
	rep := &core.Report{
		CellName: "tdd",
		Scenario: "harq-storm",
		Duration: 60 * sim.Second,
		NodeEvents: map[string][]core.EventRun{
			"harq_retx":           {{Node: "harq_retx"}, {Node: "harq_retx"}},
			"jitter_buffer_drain": {{Node: "jitter_buffer_drain"}},
			"never_fired":         {},
		},
		ChainEvents: map[int][]core.ChainRun{
			1: {{Chain: chain}, {Chain: chain}, {Chain: chain}},
			2: {},
		},
	}
	r := FromReport("s1", 10*sim.Minute, rep)
	if r.Cell != "tdd" || r.Scenario != "harq-storm" || r.Session != "s1" {
		t.Fatalf("identity columns wrong: %+v", r)
	}
	if r.Start != 10*sim.Minute || r.End != 10*sim.Minute+60*sim.Second {
		t.Fatalf("time columns wrong: %+v", r)
	}
	if want := []string{"harq_retx", "jitter_buffer_drain"}; !reflect.DeepEqual(r.Fired, want) {
		t.Fatalf("Fired = %v, want %v (sorted, empty runs excluded)", r.Fired, want)
	}
	if want := []ChainRuns{{Chain: chain.String(), Runs: 3}}; !reflect.DeepEqual(r.Chains, want) {
		t.Fatalf("Chains = %v, want %v", r.Chains, want)
	}
	if want := []CauseRuns{{Cause: "harq_retx", Runs: 3}}; !reflect.DeepEqual(r.Causes, want) {
		t.Fatalf("Causes = %v, want %v", r.Causes, want)
	}
}

func TestEmptyStoreQueries(t *testing.T) {
	s := New(Options{})
	if got := s.Query(Query{}); len(got) != 0 {
		t.Fatalf("empty store Query returned %d records", len(got))
	}
	if got := s.TopChains(Query{}, 5); len(got) != 0 {
		t.Fatalf("empty store TopChains returned %v", got)
	}
	if got := s.CauseRates(Query{}, sim.Minute); len(got) != 0 {
		t.Fatalf("empty store CauseRates returned %v", got)
	}
	if got := s.Similar([]string{"harq_retx"}, Query{}, 3); len(got) != 0 {
		t.Fatalf("empty store Similar returned %v", got)
	}
	if _, ok := s.Fired("nope"); ok {
		t.Fatal("empty store Fired reported a record")
	}
	st := s.Stats()
	if st.Rows != 0 || st.Blocks != 0 || st.MinStart != 0 || st.MaxStart != 0 {
		t.Fatalf("empty store Stats = %+v", st)
	}
	if s.Len() != 0 {
		t.Fatalf("empty store Len = %d", s.Len())
	}
	var buf bytes.Buffer
	if err := s.Spill(&buf); err != nil {
		t.Fatalf("empty store Spill: %v", err)
	}
	if loaded, err := Load(&buf, Options{}); err != nil || loaded.Len() != 0 {
		t.Fatalf("empty store spill reloads as %v, %v; want an empty store", loaded, err)
	}
}

func TestQueryPredicates(t *testing.T) {
	s := New(Options{BlockRows: 2})
	s.Insert(rec("a", "tdd", "harq-storm", 0,
		[]string{"harq_retx", "jitter_buffer_drain"},
		[]ChainRuns{{Chain: "harq_retx --> jitter_buffer_drain", Runs: 2}},
		[]CauseRuns{{Cause: "harq_retx", Runs: 2}}))
	s.Insert(rec("b", "fdd", "grant-starvation", 1,
		[]string{"ul_scheduling"},
		[]ChainRuns{{Chain: "ul_scheduling --> target_bitrate_down", Runs: 1}},
		[]CauseRuns{{Cause: "ul_scheduling", Runs: 1}}))
	s.Insert(rec("c", "tdd", "grant-starvation", 2,
		[]string{"ul_scheduling", "harq_retx"},
		[]ChainRuns{{Chain: "ul_scheduling --> target_bitrate_down", Runs: 4}},
		[]CauseRuns{{Cause: "ul_scheduling", Runs: 4}}))

	cases := []struct {
		name string
		q    Query
		want []string
	}{
		{"all", Query{}, []string{"a", "b", "c"}},
		{"cell", Query{Cell: "tdd"}, []string{"a", "c"}},
		{"unknown cell", Query{Cell: "nope"}, nil},
		{"scenario", Query{Scenario: "grant-starvation"}, []string{"b", "c"}},
		{"session", Query{Session: "b"}, []string{"b"}},
		{"time range", Query{From: sim.Minute, To: 2 * sim.Minute}, []string{"b"}},
		{"from only", Query{From: sim.Minute}, []string{"b", "c"}},
		{"cause", Query{Cause: "ul_scheduling"}, []string{"b", "c"}},
		{"unknown cause", Query{Cause: "nope"}, nil},
		{"fired all", Query{FiredAll: []string{"harq_retx", "ul_scheduling"}}, []string{"c"}},
		{"fired unknown", Query{FiredAll: []string{"never_seen"}}, nil},
		{"limit", Query{Limit: 2}, []string{"a", "b"}},
		{"combined", Query{Cell: "tdd", Cause: "ul_scheduling"}, []string{"c"}},
	}
	for _, tc := range cases {
		if got := sessions(s.Query(tc.q)); !reflect.DeepEqual(got, tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("%s: Query = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOutOfOrderInsertion(t *testing.T) {
	s := New(Options{BlockRows: 2})
	for _, m := range []int{7, 2, 9, 0, 5, 4} {
		s.Insert(rec(fmt.Sprintf("s%d", m), "tdd", "", m, []string{"harq_retx"}, nil, nil))
	}
	got := sessions(s.Query(Query{}))
	want := []string{"s0", "s2", "s4", "s5", "s7", "s9"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-order query order = %v, want %v (sorted by start)", got, want)
	}
	// A range crossing block boundaries must still see the bubble-sorted
	// truth: minutes [2,6) = s2, s4, s5 even though they sit in
	// different arrival-order blocks.
	got = sessions(s.Query(Query{From: 2 * sim.Minute, To: 6 * sim.Minute}))
	if want := []string{"s2", "s4", "s5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-order ranged query = %v, want %v", got, want)
	}
	st := s.Stats()
	if st.MinStart != 0 || st.MaxStart != 9*sim.Minute {
		t.Fatalf("Stats bounds = [%v, %v], want [0, 9m]", st.MinStart, st.MaxStart)
	}
}

func TestEvictionBoundary(t *testing.T) {
	s := New(Options{BlockRows: 2, MaxBlocks: 2})
	for m := 0; m < 7; m++ {
		s.Insert(rec(fmt.Sprintf("s%d", m), "tdd", "", m, []string{"harq_retx"}, nil,
			[]CauseRuns{{Cause: "harq_retx", Runs: 1}}))
	}
	// 7 rows at 2 rows/block = 4 blocks; retention 2 blocks keeps rows
	// s4..s6 (the open block holds s6 alone).
	st := s.Stats()
	if st.Rows != 3 || st.InsertedRows != 7 || st.EvictedRows != 4 || st.EvictedBlocks != 2 {
		t.Fatalf("retention stats = %+v, want rows=3 inserted=7 evictedRows=4 evictedBlocks=2", st)
	}
	// A query spanning evicted history returns only the retained tail.
	got := sessions(s.Query(Query{From: 0, To: 10 * sim.Minute}))
	if want := []string{"s4", "s5", "s6"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("query across evicted blocks = %v, want %v", got, want)
	}
	// A query entirely inside the evicted range finds nothing.
	if got := s.Query(Query{From: 0, To: 4 * sim.Minute}); len(got) != 0 {
		t.Fatalf("query inside evicted range returned %v", sessions(got))
	}
	// Aggregations see only retained rows too.
	tc := s.TopChains(Query{}, 0)
	if len(tc) != 0 {
		t.Fatalf("TopChains over chainless records = %v", tc)
	}
	cr := s.CauseRates(Query{}, 0)
	if len(cr) != 1 || cr[0].Runs != 3 || cr[0].Sessions != 3 {
		t.Fatalf("CauseRates after eviction = %+v, want one bucket with runs=3 sessions=3", cr)
	}
	if st.MinStart != 4*sim.Minute {
		t.Fatalf("retained MinStart = %v, want 4m", st.MinStart)
	}
}

func TestStrideGrowthRepack(t *testing.T) {
	s := New(Options{BlockRows: 64})
	s.Insert(rec("small", "tdd", "", 0, []string{"n0", "n1"}, nil, nil))
	// Blow the node universe past one word while the block is open.
	var wide []string
	for i := 0; i < 70; i++ {
		wide = append(wide, fmt.Sprintf("n%d", i))
	}
	s.Insert(rec("wide", "tdd", "", 1, wide, nil, nil))
	s.Insert(rec("tail", "tdd", "", 2, []string{"n69"}, nil, nil))

	if got := s.Query(Query{Session: "small"})[0].Fired; !reflect.DeepEqual(got, []string{"n0", "n1"}) {
		t.Fatalf("repacked early row Fired = %v", got)
	}
	if got := s.Query(Query{Session: "wide"})[0].Fired; len(got) != 70 {
		t.Fatalf("wide row has %d fired nodes, want 70", len(got))
	}
	if got := sessions(s.Query(Query{FiredAll: []string{"n69"}})); !reflect.DeepEqual(got, []string{"wide", "tail"}) {
		t.Fatalf("FiredAll over grown universe = %v", got)
	}
	// Hamming similarity across strides: probe beyond the early row's
	// original word count.
	m := s.Similar([]string{"n0", "n1"}, Query{}, 1)
	if len(m) != 1 || m[0].Session != "small" || m[0].Distance != 0 {
		t.Fatalf("Similar across strides = %+v", m)
	}
}

func TestTopChainsAndCauseRates(t *testing.T) {
	s := New(Options{})
	chainA := "harq_retx --> jitter_buffer_drain"
	chainB := "ul_scheduling --> target_bitrate_down"
	s.Insert(rec("a", "tdd", "", 0, nil,
		[]ChainRuns{{Chain: chainA, Runs: 2}, {Chain: chainB, Runs: 5}},
		[]CauseRuns{{Cause: "harq_retx", Runs: 2}, {Cause: "ul_scheduling", Runs: 5}}))
	s.Insert(rec("b", "tdd", "", 1, nil,
		[]ChainRuns{{Chain: chainA, Runs: 4}},
		[]CauseRuns{{Cause: "harq_retx", Runs: 4}}))
	s.Insert(rec("c", "fdd", "", 1, nil,
		[]ChainRuns{{Chain: chainB, Runs: 1}},
		[]CauseRuns{{Cause: "ul_scheduling", Runs: 1}}))
	// −90 s belongs to the minute bucket at −120 s, not to the one at −60 s.
	s.Insert(Record{Session: "d", Cell: "tdd", Start: -90 * sim.Second, End: -30 * sim.Second,
		Causes: []CauseRuns{{Cause: "harq_retx", Runs: 1}}})

	top := s.TopChains(Query{}, 1)
	if len(top) != 1 || top[0].Chain != chainA || top[0].Runs != 6 || top[0].Sessions != 2 {
		t.Fatalf("TopChains k=1 = %+v, want %s runs=6 sessions=2", top, chainA)
	}
	top = s.TopChains(Query{Cell: "fdd"}, 0)
	if len(top) != 1 || top[0].Chain != chainB || top[0].Runs != 1 {
		t.Fatalf("TopChains cell=fdd = %+v", top)
	}

	rates := s.CauseRates(Query{From: -10 * sim.Minute}, sim.Minute) // From 0 would leave d out
	// Expect (fdd,1m,ul), (tdd,-2m,harq), (tdd,0,harq), (tdd,0,ul),
	// (tdd,1m,harq) in (cell, bucket, cause) order.
	want := []CauseBucket{
		{Cell: "fdd", Bucket: sim.Minute, Cause: "ul_scheduling", Runs: 1, Sessions: 1, Minutes: 1, RunsPerMin: 1},
		{Cell: "tdd", Bucket: -2 * sim.Minute, Cause: "harq_retx", Runs: 1, Sessions: 1, Minutes: 1, RunsPerMin: 1},
		{Cell: "tdd", Bucket: 0, Cause: "harq_retx", Runs: 2, Sessions: 1, Minutes: 1, RunsPerMin: 2},
		{Cell: "tdd", Bucket: 0, Cause: "ul_scheduling", Runs: 5, Sessions: 1, Minutes: 1, RunsPerMin: 5},
		{Cell: "tdd", Bucket: sim.Minute, Cause: "harq_retx", Runs: 4, Sessions: 1, Minutes: 1, RunsPerMin: 4},
	}
	if !reflect.DeepEqual(rates, want) {
		t.Fatalf("CauseRates = %+v\nwant %+v", rates, want)
	}
}

func TestSimilar(t *testing.T) {
	s := New(Options{})
	s.Insert(rec("old", "tdd", "", 0, []string{"a", "b", "c"}, nil, nil))
	s.Insert(rec("near", "tdd", "", 1, []string{"a", "b"}, nil, nil))
	s.Insert(rec("twin", "fdd", "", 2, []string{"a", "b", "c"}, nil, nil))
	s.Insert(rec("far", "tdd", "", 3, []string{"x"}, nil, nil))

	m := s.Similar([]string{"a", "b", "c"}, Query{}, 3)
	if len(m) != 3 {
		t.Fatalf("Similar returned %d matches, want 3", len(m))
	}
	// Exact matches first, most recent exact match before the older one.
	if m[0].Session != "twin" || m[0].Distance != 0 {
		t.Fatalf("best match = %s d=%d, want twin d=0", m[0].Session, m[0].Distance)
	}
	if m[1].Session != "old" || m[1].Distance != 0 {
		t.Fatalf("second match = %s d=%d, want old d=0 (recency tiebreak)", m[1].Session, m[1].Distance)
	}
	if m[2].Session != "near" || m[2].Distance != 1 {
		t.Fatalf("third match = %s d=%d, want near d=1", m[2].Session, m[2].Distance)
	}
	// Unknown probe nodes add constant distance but preserve order; a
	// cell filter narrows candidates.
	m = s.Similar([]string{"a", "b", "c", "never_seen"}, Query{Cell: "tdd"}, 1)
	if len(m) != 1 || m[0].Session != "old" || m[0].Distance != 1 {
		t.Fatalf("filtered Similar = %+v, want old d=1", m)
	}
	// Fired() returns the latest record for a session.
	r, ok := s.Fired("near")
	if !ok || !reflect.DeepEqual(r.Fired, []string{"a", "b"}) {
		t.Fatalf("Fired(near) = %+v ok=%v", r, ok)
	}
}

func TestSpillReloadRoundTrip(t *testing.T) {
	s := New(Options{BlockRows: 2})
	s.Insert(rec("a", "tdd", "harq-storm", 0,
		[]string{"harq_retx", "jitter_buffer_drain"},
		[]ChainRuns{{Chain: "harq_retx --> jitter_buffer_drain", Runs: 2}},
		[]CauseRuns{{Cause: "harq_retx", Runs: 2}}))
	s.Insert(rec("b", "fdd", "", 3, []string{"ul_scheduling"},
		[]ChainRuns{{Chain: "ul_scheduling --> target_bitrate_down", Runs: 1}},
		[]CauseRuns{{Cause: "ul_scheduling", Runs: 1}}))
	s.Insert(rec("c", "tdd", "grant-starvation", 1, []string{"ul_scheduling", "harq_retx"}, nil, nil))

	var first bytes.Buffer
	if err := s.Spill(&first); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()), Options{BlockRows: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var second bytes.Buffer
	if err := loaded.Spill(&second); err != nil {
		t.Fatalf("re-Spill: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("spill -> load -> spill is not byte-identical:\n--- first ---\n%x\n--- second ---\n%x",
			first.Bytes(), second.Bytes())
	}
	if !reflect.DeepEqual(loaded.Query(Query{}), s.Query(Query{})) {
		t.Fatal("loaded store's records differ from the source store's")
	}
}

func TestLoadReEvicts(t *testing.T) {
	s := New(Options{BlockRows: 1})
	for m := 0; m < 5; m++ {
		s.Insert(rec(fmt.Sprintf("s%d", m), "tdd", "", m, nil, nil, nil))
	}
	var buf bytes.Buffer
	if err := s.Spill(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{BlockRows: 1, MaxBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := sessions(loaded.Query(Query{}))
	if want := []string{"s3", "s4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Load with tighter retention kept %v, want %v", got, want)
	}
}

// frames builds a byte stream with the package's own encoder.
func frames(build func(e *encoder)) string {
	var e encoder
	build(&e)
	return string(e.out)
}

// flipLast inverts the last byte: of a frame, a byte of its checksum.
func flipLast(s string) string { return s[:len(s)-1] + string([]byte{s[len(s)-1] ^ 0xFF}) }

func TestLoadErrors(t *testing.T) {
	whole := frames(func(e *encoder) {
		e.start()
		e.dict(dictCells, []string{"tdd"})
		e.dict(dictScens, []string{""})
		e.row(&row{session: "x"})
		e.end(1)
	})
	if _, err := Load(strings.NewReader(whole), Options{}); err != nil {
		t.Fatalf("the well-formed control does not load: %v", err)
	}
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "without an end frame"},
		{"not a segment", "hello\n", "unknown frame kind"},
		{"wrong magic", frames(func(e *encoder) { e.p = append(e.p, "DMNTRCB1"...); e.frame(frameStart) }), "not an rcastore segment"},
		{"wrong version", frames(func(e *encoder) { e.p = append(e.p, segmentMagic+"\x63"...); e.frame(frameStart) }), "version 99"},
		{"row before start", frames(func(e *encoder) { e.row(&row{session: "x"}) }), "outside a segment"},
		{"cell out of range", frames(func(e *encoder) { e.start(); e.row(&row{session: "x", cell: 7}); e.end(1) }), "cell ID out of range"},
		{"node out of range", frames(func(e *encoder) {
			e.start()
			e.dict(dictCells, []string{"tdd"})
			e.dict(dictScens, []string{""})
			e.row(&row{session: "x", fired: []uint32{3}})
			e.end(1)
		}), "node ID out of range"},
		{"duplicate dict entry", frames(func(e *encoder) { e.start(); e.dict(dictNodes, []string{"a", "a"}); e.end(0) }), "duplicate node"},
		{"unknown dictionary", frames(func(e *encoder) { e.start(); e.dict(numDicts, []string{"a"}); e.end(0) }), "unknown dictionary"},
		{"trailing bytes in a row", frames(func(e *encoder) { e.start(); e.p = append(e.p, 0); e.end(0) }), "trailing bytes"},
		{"missing end frame", whole[:len(whole)-7], "without an end frame"},
		{"wrong end count", frames(func(e *encoder) { e.start(); e.end(3) }), "counts 3 rows"},
		{"data after end", whole + frames(func(e *encoder) { e.start() }), "after the end frame"},
		{"bad checksum", flipLast(whole), "checksum"},
		{"cut mid-frame", whole[:len(whole)-3], "ends inside a frame"},
	}
	for _, tc := range cases {
		_, err := Load(strings.NewReader(tc.in), Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%s) = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestInsertReport(t *testing.T) {
	chain := core.Chain{ID: 1, Nodes: []string{"cross_traffic", "forward_delay_up", "jitter_buffer_drain"}}
	rep := &core.Report{
		CellName: "fdd",
		Duration: 30 * sim.Second,
		NodeEvents: map[string][]core.EventRun{
			"cross_traffic": {{Node: "cross_traffic"}},
		},
		ChainEvents: map[int][]core.ChainRun{1: {{Chain: chain}}},
	}
	s := New(Options{})
	s.Insert(FromReport("sess-9", 5*sim.Minute, rep))
	got := s.Query(Query{Cause: "cross_traffic"})
	if len(got) != 1 || got[0].Session != "sess-9" {
		t.Fatalf("inserted report not queryable: %+v", got)
	}
}

// TestStoreHooks pins the store's activity totals in Stats: inserts and
// whole-block evictions, one query per read entry point, one spill per
// Spill.
func TestStoreHooks(t *testing.T) {
	s := New(Options{BlockRows: 2, MaxBlocks: 2})
	for i := 0; i < 7; i++ {
		s.Insert(rec(fmt.Sprintf("s%d", i), "cell", "scen", i, []string{"sinr_drop"}, nil, nil))
	}
	if st := s.Stats(); st.InsertedRows != 7 || st.EvictedRows != 4 || st.Queries != 0 || st.Spills != 0 {
		t.Fatalf("after 7 inserts into 2 blocks of 2: %+v", st)
	}

	s.Query(Query{})
	s.TopChains(Query{}, 3)
	s.CauseRates(Query{}, sim.Minute)
	s.Similar([]string{"sinr_drop"}, Query{}, 1)
	s.Fired("s6")
	if got := s.Stats().Queries; got != 5 {
		t.Fatalf("Queries = %d, want 5 (one per entry point)", got)
	}

	var buf bytes.Buffer
	if err := s.Spill(&buf); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Spills != 1 || st.Queries != 5 {
		t.Fatalf("after one Spill: %d spills, %d queries; want 1 and 5", st.Spills, st.Queries)
	}
}
