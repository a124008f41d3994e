package rcastore

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// The read path selects the rows of a sealed block through its (cell,
// start) order, keeps k of them in a heap and looks sessions up in an
// index. The oracles below share none of that: they materialise every
// retained row once, test each Record against the whole predicate as
// Query's doc states it, and then do what the read path replaced —
// collect every match, sort.SliceStable, cut; aggregate into maps keyed
// by name; count a Hamming distance over sets of strings.

// retainedRows materialises the store's rows in insertion order.
func retainedRows(s *Store) []Record {
	var rows []Record
	for _, b := range s.blocks {
		for _, i := range byInsertion(b) {
			rows = append(rows, s.materializeLocked(b, i))
		}
	}
	return rows
}

// byInsertion lists a block's rows in the order they were inserted.
func byInsertion(b *block) []int {
	at := make([]int, b.n)
	for i, k := range b.order {
		at[k] = i
	}
	return at
}

func refMatch(r *Record, q Query) bool {
	if r.Start < q.From || (q.To != 0 && r.Start >= q.To) {
		return false
	}
	if (q.Cell != "" && r.Cell != q.Cell) || (q.Scenario != "" && r.Scenario != q.Scenario) || (q.Session != "" && r.Session != q.Session) {
		return false
	}
	for _, node := range q.FiredAll {
		if !slices.Contains(r.Fired, node) {
			return false
		}
	}
	return q.Cause == "" || slices.ContainsFunc(r.Causes, func(c CauseRuns) bool { return c.Cause == q.Cause && c.Runs > 0 })
}

// refScan is the reference scan: every retained row, in insertion order,
// against the whole predicate.
func refScan(rows []Record, q Query, visit func(r *Record)) {
	for i := range rows {
		if refMatch(&rows[i], q) {
			visit(&rows[i])
		}
	}
}

// visited is every row of q's spans, put in insertion order. A sealed
// block's rows are in (cell, start) order, so what the reference scan can
// check is the set: each matching row exactly once.
func visited(s *Store, q Query) []rowAt {
	var out []rowAt
	s.scanLocked(q, func(b *block, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			out = append(out, rowAt{b, i})
		}
		return true
	})
	slices.SortFunc(out, func(x, y rowAt) int { return cmp.Compare(x.b.seq+int(x.b.order[x.i]), y.b.seq+int(y.b.order[y.i])) })
	return out
}

func oracleQuery(rows []Record, q Query) []Record {
	var out []Record
	refScan(rows, q, func(r *Record) {
		if q.NotSession == "" || r.Session != q.NotSession {
			out = append(out, *r)
		}
	})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Session < out[j].Session
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

func oracleSimilar(rows []Record, fired []string, q Query, k int) []Match {
	probe := map[string]bool{}
	for _, n := range fired {
		probe[n] = true
	}
	out := []Match{} // never nil: an empty answer encodes as [], not null
	refScan(rows, q, func(r *Record) {
		if q.NotSession != "" && r.Session == q.NotSession {
			return
		}
		d := len(probe)
		for _, n := range r.Fired {
			if probe[n] {
				d--
			} else {
				d++
			}
		}
		out = append(out, Match{Record: *r, Distance: d})
	})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		if out[i].Start != out[j].Start {
			return out[i].Start > out[j].Start
		}
		return out[i].Session < out[j].Session
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func oracleFired(s *Store, session string) (Record, bool) {
	for bi := len(s.blocks) - 1; bi >= 0; bi-- {
		b := s.blocks[bi]
		at := byInsertion(b)
		for k := b.n - 1; k >= 0; k-- {
			if i := at[k]; b.sessions[i] == session {
				return s.materializeLocked(b, i), true
			}
		}
	}
	return Record{}, false
}

func oracleTopChains(rows []Record, q Query, k int) []ChainAgg {
	by := map[string]*ChainAgg{}
	refScan(rows, q, func(r *Record) {
		for _, c := range r.Chains {
			if by[c.Chain] == nil {
				by[c.Chain] = &ChainAgg{Chain: c.Chain}
			}
			by[c.Chain].Runs += c.Runs
			by[c.Chain].Sessions++
		}
	})
	out := make([]ChainAgg, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		return out[i].Chain < out[j].Chain
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func oracleCauseRates(rows []Record, q Query, bucket sim.Time) []CauseBucket {
	type groupKey struct {
		cell   string
		bucket sim.Time
	}
	type cellKey struct {
		groupKey
		cause string
	}
	runs := map[cellKey]int{}
	sessions := map[groupKey]int{}
	micros := map[groupKey]sim.Time{}
	listed := map[groupKey]bool{}
	refScan(rows, q, func(r *Record) {
		g := groupKey{cell: r.Cell}
		if bucket > 0 {
			g.bucket = r.Start - (r.Start%bucket+bucket)%bucket // floored, negative starts too
		}
		sessions[g]++
		micros[g] += r.End - r.Start
		for _, c := range r.Causes {
			runs[cellKey{groupKey: g, cause: c.Cause}] += c.Runs
			listed[g] = true
		}
	})
	for g := range sessions {
		if !listed[g] { // every call in the group was clean
			runs[cellKey{groupKey: g}] = 0
		}
	}
	out := make([]CauseBucket, 0, len(runs))
	for k, n := range runs {
		cb := CauseBucket{
			Cell: k.cell, Bucket: k.bucket, Cause: k.cause,
			Runs: n, Sessions: sessions[k.groupKey], Minutes: float64(micros[k.groupKey]) / float64(sim.Minute),
		}
		if cb.Minutes > 0 {
			cb.RunsPerMin = float64(n) / cb.Minutes
		}
		out = append(out, cb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		if out[i].Bucket != out[j].Bucket {
			return out[i].Bucket < out[j].Bucket
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

// wideNodes outnumber a bitset word: the row that fires them all widens
// the open block's fired matrix under the rows already in it, and leaves
// the blocks sealed before it at the narrower stride.
var wideNodes = func() []string {
	names := make([]string, 70)
	for i := range names {
		names[i] = fmt.Sprintf("x%02d", i)
	}
	return names
}()

// randomRecords draws n rows from a universe small enough that every
// kind of tie occurs: sessions repeat (some with the same Start — a
// full-key tie only insertion position breaks — some with a later one),
// starts collide across sessions and arrive in no order, a few of them
// negative, and fired sets repeat so distances tie. Row n/2 fires
// wideNodes, and later rows a few of them. Every dictionary also holds
// the awkward names, so answers escape in every position: a row has an
// awkward scenario, one cell in four is awkward, and half the rows fire
// an awkward node, listed out of name order.
func randomRecords(rng *rand.Rand, n int) []Record {
	cells := []string{"tdd", "fdd", "amarisoft", awkward[rng.Intn(len(awkward))]}
	nodes := []string{"a", "b", "c", "d", "e", "f", "g"}
	chains := append([]string{"a --> b", "c --> d", "e --> f --> g", "a --> g"}, awkward...)
	out := make([]Record, n)
	for i := range out {
		start := sim.Time(rng.Intn(n/2+1)-4) * sim.Minute
		r := Record{
			Session:  fmt.Sprintf("s%03d", rng.Intn(n*2/3+1)),
			Cell:     cells[rng.Intn(len(cells))],
			Scenario: awkward[rng.Intn(len(awkward))],
			Start:    start,
			End:      start + sim.Time(1+rng.Intn(3*int(sim.Minute))), // session minutes that do not sum exactly
		}
		if rng.Intn(2) == 0 {
			r.Fired = append(r.Fired, awkward[rng.Intn(len(awkward))])
		}
		for _, name := range nodes {
			if rng.Intn(2) == 0 {
				r.Fired = append(r.Fired, name)
			}
		}
		switch {
		case i == n/2:
			r.Fired = append(r.Fired, wideNodes...)
		case i > n/2 && rng.Intn(3) == 0:
			r.Fired = append(r.Fired, wideNodes[rng.Intn(len(wideNodes))])
		}
		// A chain or cause may be listed with zero runs: it still belongs
		// in the aggregations' answers.
		for _, ci := range rng.Perm(len(chains))[:rng.Intn(3)] {
			cause, _, _ := strings.Cut(chains[ci], " ")
			r.Chains = append(r.Chains, ChainRuns{Chain: chains[ci], Runs: rng.Intn(4)})
			r.Causes = append(r.Causes, CauseRuns{Cause: cause, Runs: rng.Intn(4)})
		}
		out[i] = r
	}
	return out
}

// readGrid is the predicates checkReads asks: every time range — open
// ends, To = 0, From > To, bounds on a stored start, negative and extreme
// bounds — with no cell and with each of two, then each other predicate
// on its own.
func readGrid(recs []Record, rng *rand.Rand) []Query {
	at := recs[rng.Intn(len(recs))].Start // a stored start, often a repeated one
	var grid []Query
	for _, span := range [][2]sim.Time{
		{0, 0},
		{3 * sim.Minute, sim.Time(len(recs)/3) * sim.Minute},
		{at, 0},
		{0, at},
		{at, at + 1},
		{at, at},
		{at + 1, 0},
		{10 * sim.Minute, 5 * sim.Minute},
		{-3 * sim.Minute, 2 * sim.Minute},
		{-10 * sim.Minute, -sim.Minute},
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64},
		{math.MaxInt64, 0},
		{0, math.MaxInt64},
	} {
		for _, cell := range []string{"", "fdd", "amarisoft"} {
			grid = append(grid, Query{From: span[0], To: span[1], Cell: cell})
		}
	}
	session := recs[rng.Intn(len(recs))].Session
	return append(grid,
		Query{Cause: "a"},
		Query{FiredAll: []string{"a", "c"}},
		Query{FiredAll: []string{"a", wideNodes[69]}},
		Query{Session: session},
		Query{NotSession: session},
		Query{NotSession: session, Cell: "fdd", From: at},
		Query{Cell: "never_seen"},
	)
}

// sameAnswer requires Store.Answer's bytes for r to be want, asked twice:
// the second answer is the memo's.
func sameAnswer(t *testing.T, s *Store, r Read, want []byte) {
	t.Helper()
	for ask := 0; ask < 2; ask++ {
		if got := s.Answer(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("Answer(%+v), ask %d:\n%s\nencoding/json:\n%s", r, ask, got, want)
		}
	}
}

// checkReads compares every read with its oracle over a grid of
// predicates, probes and bounds, and every read's answer with the
// oracle's rows encoded. It asks the grid twice, with rows inserted
// between the rounds, so an answer the memo kept in the first round is
// stale in the second.
func checkReads(t *testing.T, s *Store, recs []Record, rng *rand.Rand) {
	t.Helper()
	probes := [][]string{
		nil,
		{"a", "b", "c"},
		{"g"},
		{"a", "never_seen", "also_unknown"},
		recs[rng.Intn(len(recs))].Fired,
		{}, // nil's ranking, answered with "fired": [] rather than null
	}
	grid := readGrid(recs, rng)
	checkRound(t, s, recs, grid, probes)
	for range 3 {
		s.Insert(recs[rng.Intn(len(recs))]) // a session stored again: its latest row moves
	}
	checkRound(t, s, recs, grid, probes)
}

// checkRound is one round of checkReads.
func checkRound(t *testing.T, s *Store, recs []Record, grid []Query, probes [][]string) {
	t.Helper()
	rows := retainedRows(s)
	n := len(rows)
	if n != s.Len() {
		t.Fatalf("walked %d rows, Len() = %d", n, s.Len())
	}
	for _, r := range rows {
		if !slices.IsSorted(r.Fired) || len(slices.Compact(slices.Clone(r.Fired))) != len(r.Fired) {
			t.Fatalf("row %s fires %q: want each node once, in name order", r.Session, r.Fired)
		}
	}
	bounds := []int{0, 5, 1, n, n + 1}
	for _, q := range grid {
		var got, want []Record
		for _, at := range visited(s, q) {
			got = append(got, s.materializeLocked(at.b, at.i))
		}
		refScan(rows, q, func(r *Record) { want = append(want, *r) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan(%+v) visits sessions %v, the reference scan %v", q, sessions(got), sessions(want))
		}
		// A time range changes which rows are scanned, which the check above
		// settles: two cuts and one probe of each read suffice behind it.
		bounds, probes := bounds, probes
		if q.From != 0 || q.To != 0 {
			bounds, probes = bounds[:2], probes[1:2]
		}
		// encoding/json's answer, once per probe (-1: records) and length:
		// the answers to q cut at any k are prefixes of one ranking.
		std := map[[2]int][]byte{}
		expect := func(probe, rows int, members map[string]any) []byte {
			if std[[2]int{probe, rows}] == nil {
				std[[2]int{probe, rows}] = stdAnswer(t, members)
			}
			return std[[2]int{probe, rows}]
		}
		for _, k := range bounds {
			lq := q
			lq.Limit = k
			want := oracleQuery(rows, lq)
			if got := s.Query(lq); !reflect.DeepEqual(got, want) {
				t.Fatalf("Query(%+v): sessions %v, oracle %v", lq, sessions(got), sessions(want))
			}
			sameAnswer(t, s, Read{Kind: KindRecords, Query: lq}, expect(-1, len(want), map[string]any{"records": want}))
			for p, probe := range probes {
				want := oracleSimilar(rows, probe, q, k)
				if got := s.Similar(probe, q, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("Similar(%v, %+v, %d):\n got  %+v\n want %+v", probe, q, k, got, want)
				}
				sameAnswer(t, s, Read{Kind: KindSimilar, Query: q, K: k, Fired: probe}, expect(p, len(want), map[string]any{"fired": probe, "matches": want}))
			}
			chains := oracleTopChains(rows, q, k)
			if got := s.TopChains(q, k); !reflect.DeepEqual(got, chains) {
				t.Fatalf("TopChains(%+v, %d) = %+v, oracle %+v", q, k, got, chains)
			}
			sameAnswer(t, s, Read{Kind: KindTopChains, Query: q, K: k}, AppendTopChainsAnswer(nil, chains))
		}
		for _, bucket := range []sim.Time{0, 5 * sim.Minute} {
			want := oracleCauseRates(rows, q, bucket)
			if got := s.CauseRates(q, bucket); !reflect.DeepEqual(got, want) {
				t.Fatalf("CauseRates(%+v, %v) = %+v, oracle %+v", q, bucket, got, want)
			}
			sameAnswer(t, s, Read{Kind: KindCauseRates, Query: q, Bucket: bucket}, AppendCauseRatesAnswer(nil, want))
		}
	}
	for _, r := range recs {
		got, ok := s.Fired(r.Session)
		want, wantOK := oracleFired(s, r.Session)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Fired(%s) = %+v, %v; oracle %+v, %v", r.Session, got, ok, want, wantOK)
		}
	}
	if _, ok := s.Fired("never_inserted"); ok {
		t.Fatal("Fired found a session that was never inserted")
	}
}

// checkIndex asserts the session index holds exactly the retained
// sessions: nothing left behind for evicted rows, nothing missing.
func checkIndex(t *testing.T, s *Store) {
	t.Helper()
	retained := map[string]bool{}
	for _, b := range s.blocks {
		for _, session := range b.sessions {
			retained[session] = true
		}
	}
	if len(s.latest) != len(retained) {
		t.Fatalf("index holds %d sessions, retained rows hold %d", len(s.latest), len(retained))
	}
	for session := range retained {
		if _, ok := s.latest[session]; !ok {
			t.Fatalf("retained session %s missing from the index", session)
		}
	}
}

func TestReadsMatchSortEverythingOracles(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, c := range []struct {
			name string
			rows int
			opts Options
		}{
			{"max0", 90, Options{BlockRows: 16}},
			{"max5", 90, Options{BlockRows: 8, MaxBlocks: 5}}, // most of the history evicted
			{"rows1", 40, Options{BlockRows: 1}},              // every block sealed
			{"rows3", 90, Options{BlockRows: 3}},
			{"rows3max20", 90, Options{BlockRows: 3, MaxBlocks: 20}}, // the widening row retained, its elders not
			{"rows256", 600, Options{BlockRows: 256}},
		} {
			if c.rows > 500 && seed > 2 {
				continue // a second of reads a run: two seeds of it
			}
			rng := rand.New(rand.NewSource(seed))
			recs := randomRecords(rng, c.rows+rng.Intn(60))
			opts := c.opts
			t.Run(fmt.Sprintf("seed%d/%s", seed, c.name), func(t *testing.T) {
				s := New(opts)
				for i, r := range recs {
					s.Insert(r)
					if i%29 == 0 {
						checkIndex(t, s)
					}
				}
				checkIndex(t, s)
				checkReads(t, s, recs, rng)
				// The fixture reaches what it is for: sealed blocks and (nothing
				// evicted) fired matrices of two widths.
				first, last := s.blocks[0], s.blocks[len(s.blocks)-1]
				if first.cells == nil {
					t.Fatal("the first block is not sealed")
				}
				if opts.MaxBlocks == 0 && first.stride == last.stride {
					t.Fatalf("every block has stride %d: no repack happened", first.stride)
				}

				// Spill → Load rebuilds the index and the orders through Insert.
				var buf bytes.Buffer
				if err := s.Spill(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkIndex(t, loaded)
				checkReads(t, loaded, recs, rng)
			})
		}
	}
}

// TestAggregatesIgnoreInsertionOrder: the same rows inserted in two
// orders, two rows to a block and 256, give equal TopChains and
// CauseRates answers, Minutes to the bit. A sealed block is read in its
// own (cell, start) order, so an aggregate that depended on the order it
// saw rows in would differ here: the rows' session minutes do not sum
// exactly as floats.
func TestAggregatesIgnoreInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randomRecords(rng, 300)
	shuffled := slices.Clone(recs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var stores []*Store
	for _, rows := range []int{2, 256} {
		for _, in := range [][]Record{recs, shuffled} {
			s := New(Options{BlockRows: rows})
			for _, r := range in {
				s.Insert(r)
			}
			stores = append(stores, s)
		}
	}
	for _, q := range readGrid(recs, rng) {
		for i, s := range stores[1:] {
			if got, want := s.TopChains(q, 0), stores[0].TopChains(q, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("store %d: TopChains(%+v) = %+v, the first store's %+v", i+1, q, got, want)
			}
			for _, bucket := range []sim.Time{0, 5 * sim.Minute} {
				if got, want := s.CauseRates(q, bucket), stores[0].CauseRates(q, bucket); !reflect.DeepEqual(got, want) {
					t.Fatalf("store %d: CauseRates(%+v, %v) = %+v, the first store's %+v", i+1, q, bucket, got, want)
				}
			}
		}
	}
}

// TestTiesBreakOnInsertionPosition: two rows equal on every ranking key
// (start, session, fired set) resolve to the one inserted first in Query
// and Similar, with and without a cut at k, before and after Spill →
// Load. One pair sits in a sealed block whose (cell, start) order puts the
// second row first; the other straddles a seal boundary.
func TestTiesBreakOnInsertionPosition(t *testing.T) {
	opts := Options{BlockRows: 2}
	s := New(opts)
	row := func(session, cell, scen string, m int, fired ...string) {
		start := sim.Time(m) * sim.Minute
		s.Insert(Record{Session: session, Cell: cell, Scenario: scen, Start: start, End: start + sim.Minute, Fired: fired})
	}
	row("f0", "b", "", 100, "z") // cells b and a get IDs 0 and 1
	row("f1", "a", "", 100, "z")
	row("x", "a", "first", 10, "p") // block 1, sealed as [second, first]
	row("x", "b", "second", 10, "p")
	row("f2", "a", "", 100, "z")
	row("y", "a", "first", 20, "p")  // the last row of sealed block 2
	row("y", "a", "second", 20, "p") // the first of open block 3
	if b := s.blocks[1]; b.order[0] != 1 {
		t.Fatalf("block 1 holds its rows in order %v, want the second-inserted first", b.order)
	}
	check := func(s *Store, when string) {
		t.Helper()
		for _, m := range []sim.Time{10, 20} {
			q := Query{From: m * sim.Minute, To: (m + 1) * sim.Minute}
			for _, k := range []int{0, 1} {
				lq := q
				lq.Limit = k
				var got []string
				recs, matches := s.Query(lq), s.Similar([]string{"p"}, q, k)
				for _, r := range recs {
					got = append(got, r.Scenario)
				}
				for _, m := range matches {
					got = append(got, m.Scenario)
				}
				sameAnswer(t, s, Read{Kind: KindRecords, Query: lq}, stdAnswer(t, map[string]any{"records": recs}))
				sameAnswer(t, s, Read{Kind: KindSimilar, Query: q, K: k, Fired: []string{"p"}}, stdAnswer(t, map[string]any{"fired": []string{"p"}, "matches": matches}))
				want := []string{"first", "second", "first", "second"}
				if k == 1 {
					want = []string{"first", "first"}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %+v, k=%d: Query then Similar give %v, want %v", when, q, k, got, want)
				}
			}
		}
	}
	check(s, "as inserted")
	var buf bytes.Buffer
	if err := s.Spill(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, "after Spill → Load")
}

// TestFiredIndexFollowsEviction pins the index's eviction rule on one
// session: gone with its block, back when re-inserted, and resolving to
// the later row.
func TestFiredIndexFollowsEviction(t *testing.T) {
	s := New(Options{BlockRows: 2, MaxBlocks: 2})
	s.Insert(rec("probe", "tdd", "", 0, []string{"a"}, nil, nil))
	for i := 0; i < 5; i++ {
		s.Insert(rec(fmt.Sprintf("fill%d", i), "tdd", "", i, nil, nil, nil))
	}
	if r, ok := s.Fired("probe"); ok {
		t.Fatalf("Fired resolved an evicted row: %+v", r)
	}
	checkIndex(t, s)
	// Re-insert it twice, a block apart.
	s.Insert(rec("probe", "fdd", "", 9, []string{"b"}, nil, nil))
	s.Insert(rec("fill5", "tdd", "", 9, nil, nil, nil))
	s.Insert(rec("probe", "fdd", "", 10, []string{"c"}, nil, nil))
	s.Insert(rec("fill6", "tdd", "", 10, nil, nil, nil))
	wantC := func(when string) {
		t.Helper()
		if r, ok := s.Fired("probe"); !ok || !reflect.DeepEqual(r.Fired, []string{"c"}) {
			t.Fatalf("Fired(probe) %s = %+v, %v; want the later row, firing c", when, r, ok)
		}
		checkIndex(t, s)
	}
	wantC("after re-insertion")
	// Evicting the block of the older row must leave the entry alone: it
	// points at the newer block.
	s.Insert(rec("fill7", "tdd", "", 11, nil, nil, nil))
	wantC("after its older row's eviction")
	s.Insert(rec("fill8", "tdd", "", 12, nil, nil, nil))
	s.Insert(rec("fill9", "tdd", "", 13, nil, nil, nil))
	if r, ok := s.Fired("probe"); ok {
		t.Fatalf("Fired resolved an evicted row: %+v", r)
	}
	checkIndex(t, s)
}

// FuzzStoreSelect: whatever the rows' starts and cells, the block size
// and the bounds, scanLocked's spans hold the rows a loop over the
// inserted rows selects, each once. Each pair of data bytes is one row: a
// start in [-128, 127] and one of four cells; cell picks the asked cell,
// none, or one no row has.
func FuzzStoreSelect(f *testing.F) {
	shuffled := []byte{9, 0, 3, 1, 9, 1, 0xfd, 0, 3, 0, 7, 2, 3, 1, 0, 3, 9, 0, 0x80, 2, 0x7f, 1, 5, 0}
	for _, span := range [][2]int64{
		{0, 0}, {3, 9}, {9, 3}, {3, 3}, {-3, 4}, {-128, -2}, {0, 127},
		{math.MinInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64}, {math.MaxInt64, 0}, {0, math.MaxInt64},
	} {
		for cell := byte(0); cell < 6; cell += 5 {
			f.Add(span[0], span[1], cell, byte(3), shuffled)
		}
	}
	f.Add(int64(3), int64(0), byte(1), byte(0), shuffled)
	cells := []string{"a", "b", "c", "d", "", "never_seen"}
	f.Fuzz(func(t *testing.T, from, to int64, cell, blockRows byte, data []byte) {
		data = data[:min(len(data), 2*48)]
		q := Query{From: sim.Time(from), To: sim.Time(to), Cell: cells[int(cell)%len(cells)]}
		s := New(Options{BlockRows: 1 + int(blockRows)%8})
		var want []string
		for i := 0; i+1 < len(data); i += 2 {
			r := Record{Session: fmt.Sprint(i / 2), Start: sim.Time(int8(data[i])), Cell: cells[data[i+1]%4]}
			s.Insert(r)
			if r.Start >= q.From && (q.To == 0 || r.Start < q.To) && (q.Cell == "" || r.Cell == q.Cell) {
				want = append(want, r.Session)
			}
		}
		var got []string
		for _, at := range visited(s, q) {
			got = append(got, at.b.sessions[at.i])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v over %v at BlockRows %d: scan visits %v, want %v", q, data, s.opts.BlockRows, got, want)
		}
	})
}

// TestSealHoldsLargeBlocks: the order's element type holds any row index
// a block can have — a 70 000-row block does not wrap at 65 536.
func TestSealHoldsLargeBlocks(t *testing.T) {
	const rows = 70000
	s := New(Options{BlockRows: rows})
	for i := 0; i < rows; i++ {
		s.Insert(Record{Session: "s", Cell: "c", Start: sim.Time(rows - i)}) // newest first: the order is the reverse of arrival
	}
	b := s.blocks[0]
	if len(b.order) != rows || b.order[0] != rows-1 || b.order[rows-1] != 0 {
		t.Fatalf("order of a %d-row block: %d entries, want row %d first and row 0 last", rows, len(b.order), rows-1)
	}
	if got := s.Query(Query{From: 1, To: 11, Cell: "c"}); len(got) != 10 || got[0].Start != 1 {
		t.Fatalf("the ten oldest starts: %d rows, first %+v", len(got), got[:min(len(got), 1)])
	}
	at := visited(s, Query{From: 100, To: 70001})
	if first, last := at[0], at[len(at)-1]; len(at) != rows-99 || first.b.order[first.i] != 0 || last.b.order[last.i] != rows-100 {
		t.Fatalf("visited %d rows, want the rows inserted 0th to %dth", len(at), rows-100)
	}
}
