package rcastore

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// The read path selects k rows and looks sessions up in an index. The
// oracles below are the implementations it replaced — collect every
// match, sort.SliceStable, cut; walk the rows backwards; aggregate into
// maps — kept so the property test can demand the same answers.

func oracleQuery(s *Store, q Query) []Record {
	var out []Record
	s.scanLocked(q, func(b *block, i int) {
		out = append(out, s.materializeLocked(b, i))
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

func oracleSimilar(s *Store, fired []string, q Query, k int) []Match {
	probe := make([]uint64, (len(s.nodes.names)+63)/64)
	unknown := 0
	for _, n := range fired {
		id, ok := s.nodes.lookup(n)
		if !ok {
			unknown++
			continue
		}
		probe[id/64] |= 1 << uint(id%64)
	}
	out := []Match{} // never nil: an empty answer encodes as [], not null
	s.scanLocked(q, func(b *block, i int) {
		row := b.row(i)
		d := unknown
		for w := 0; w < len(probe) || w < len(row); w++ {
			var have, want uint64
			if w < len(row) {
				have = row[w]
			}
			if w < len(probe) {
				want = probe[w]
			}
			d += bits.OnesCount64(have ^ want)
		}
		out = append(out, Match{Record: s.materializeLocked(b, i), Distance: d})
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
		for i := b.n - 1; i >= 0; i-- {
			if b.sessions[i] == session {
				return s.materializeLocked(b, i), true
			}
		}
	}
	return Record{}, false
}

func oracleTopChains(s *Store, q Query, k int) []ChainAgg {
	runs := map[uint32]int{}
	sessions := map[uint32]int{}
	s.scanLocked(q, func(b *block, i int) {
		for j := b.chainOff[i]; j < b.chainOff[i+1]; j++ {
			runs[b.chainIDs[j]] += int(b.chainRuns[j])
			sessions[b.chainIDs[j]]++
		}
	})
	out := make([]ChainAgg, 0, len(runs))
	for id, n := range runs {
		out = append(out, ChainAgg{Chain: s.chains.name(id), Runs: n, Sessions: sessions[id]})
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

func oracleCauseRates(s *Store, q Query, bucket sim.Time) []CauseBucket {
	type groupKey struct {
		cell   uint32
		bucket sim.Time
	}
	type cellKey struct {
		groupKey
		cause uint32
	}
	runs := map[cellKey]int{}
	sessions := map[groupKey]int{}
	minutes := map[groupKey]float64{}
	s.scanLocked(q, func(b *block, i int) {
		bs := sim.Time(0)
		if bucket > 0 {
			bs = b.starts[i] / bucket * bucket
		}
		g := groupKey{cell: b.cellIDs[i], bucket: bs}
		sessions[g]++
		minutes[g] += (b.ends[i] - b.starts[i]).Seconds() / 60
		for k := b.causeOff[i]; k < b.causeOff[i+1]; k++ {
			runs[cellKey{groupKey: g, cause: b.causeIDs[k]}] += int(b.causeRuns[k])
		}
	})
	out := make([]CauseBucket, 0, len(runs))
	for k, n := range runs {
		cb := CauseBucket{
			Cell: s.cells.name(k.cell), Bucket: k.bucket, Cause: s.causes.name(k.cause),
			Runs: n, Sessions: sessions[k.groupKey], Minutes: minutes[k.groupKey],
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

// randomRecords draws n rows from a universe small enough that every
// kind of tie occurs: sessions repeat (some with the same Start — a
// full-key tie only scan order breaks — some with a later one), starts
// collide across sessions, and fired sets repeat so distances tie.
func randomRecords(rng *rand.Rand, n int) []Record {
	cells := []string{"tdd", "fdd", "amarisoft"}
	nodes := []string{"a", "b", "c", "d", "e", "f", "g"}
	chains := []string{"a --> b", "c --> d", "e --> f --> g", "a --> g"}
	out := make([]Record, n)
	for i := range out {
		start := sim.Time(rng.Intn(n/2+1)) * sim.Minute
		r := Record{
			Session: fmt.Sprintf("s%03d", rng.Intn(n*2/3+1)),
			Cell:    cells[rng.Intn(len(cells))],
			Start:   start,
			End:     start + sim.Time(1+rng.Intn(3))*sim.Minute,
		}
		for _, name := range nodes {
			if rng.Intn(2) == 0 {
				r.Fired = append(r.Fired, name)
			}
		}
		// A chain or cause may be listed with zero runs: it still belongs
		// in the aggregations' answers.
		for _, ci := range rng.Perm(len(chains))[:rng.Intn(3)] {
			r.Chains = append(r.Chains, ChainRuns{Chain: chains[ci], Runs: rng.Intn(4)})
			r.Causes = append(r.Causes, CauseRuns{Cause: chains[ci][:1], Runs: rng.Intn(4)})
		}
		out[i] = r
	}
	return out
}

// checkReads compares every read with its oracle over a grid of
// predicates, probes and bounds.
func checkReads(t *testing.T, s *Store, recs []Record, rng *rand.Rand) {
	t.Helper()
	n := s.Len()
	bounds := []int{0, 1, 5, n, n + 1}
	queries := []Query{
		{},
		{Cell: "fdd"},
		{Cause: "a"},
		{From: 3 * sim.Minute, To: sim.Time(len(recs)/3) * sim.Minute},
		{FiredAll: []string{"a", "c"}},
		{Session: recs[rng.Intn(len(recs))].Session},
		{Cell: "never_seen"},
	}
	probes := [][]string{
		nil,
		{"a", "b", "c"},
		{"g"},
		{"a", "never_seen", "also_unknown"},
		recs[rng.Intn(len(recs))].Fired,
	}
	for _, q := range queries {
		for _, k := range bounds {
			lq := q
			lq.Limit = k
			if got, want := s.Query(lq), oracleQuery(s, lq); !reflect.DeepEqual(got, want) {
				t.Fatalf("Query(%+v): sessions %v, oracle %v", lq, sessions(got), sessions(want))
			}
			for _, probe := range probes {
				if got, want := s.Similar(probe, q, k), oracleSimilar(s, probe, q, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("Similar(%v, %+v, %d):\n got  %+v\n want %+v", probe, q, k, got, want)
				}
			}
			if got, want := s.TopChains(q, k), oracleTopChains(s, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("TopChains(%+v, %d) = %+v, oracle %+v", q, k, got, want)
			}
		}
		for _, bucket := range []sim.Time{0, 5 * sim.Minute} {
			if got, want := s.CauseRates(q, bucket), oracleCauseRates(s, q, bucket); !reflect.DeepEqual(got, want) {
				t.Fatalf("CauseRates(%+v, %v) = %+v, oracle %+v", q, bucket, got, want)
			}
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
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, 90+rng.Intn(60))
		for _, opts := range []Options{
			{BlockRows: 16},
			{BlockRows: 8, MaxBlocks: 5}, // most of the history evicted
		} {
			t.Run(fmt.Sprintf("seed%d/max%d", seed, opts.MaxBlocks), func(t *testing.T) {
				s := New(opts)
				for i, r := range recs {
					s.Insert(r)
					if i%29 == 0 {
						checkIndex(t, s)
					}
				}
				checkIndex(t, s)
				checkReads(t, s, recs, rng)

				// Spill → Load rebuilds the index through Insert.
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
