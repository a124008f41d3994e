package rcastore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"github.com/domino5g/domino/internal/sim"
)

// Query is the typed predicate set every store read accepts. Zero
// fields match everything but From, whose 0 keeps out records that
// start before time 0: Query{} selects every other retained record.
type Query struct {
	// From/To bound the record start time: a record matches when
	// From <= Start, and Start < To when To is nonzero.
	From, To sim.Time
	// Cell/Scenario/Session match those columns exactly when nonempty.
	Cell     string
	Scenario string
	Session  string
	// NotSession keeps one session's rows out of what Query and Similar
	// return — a stored probe is trivially its own nearest incident. Like
	// Limit, it does not affect aggregations.
	NotSession string
	// Cause matches records whose cause rollups include this cause
	// class with at least one run.
	Cause string
	// FiredAll matches records whose fired-node set includes every
	// listed node (a bitset superset test). A node the store has never
	// seen matches nothing.
	FiredAll []string
	// Limit truncates Query results after sorting (0 = unlimited). It
	// does not affect aggregations.
	Limit int
}

// compiled is a query resolved against the store dictionaries. ok=false
// means some predicate names an unknown dictionary entry and the query
// matches nothing. It is some 180 bytes and consulted once per row, so
// its methods take it by pointer.
type compiled struct {
	q                Query
	cellID, scenID   int
	causeID          int
	hasCell, hasScen bool
	hasCause         bool
	want             []uint64 // fired-node superset mask
	plain            bool     // nothing for restMatch to ask
	ok               bool
}

func (s *Store) compileLocked(q Query) compiled {
	c := compiled{q: q, ok: true}
	if q.Cell != "" {
		c.cellID, c.ok = s.cells.index[q.Cell]
		if !c.ok {
			return c
		}
		c.hasCell = true
	}
	if q.Scenario != "" {
		c.scenID, c.ok = s.scens.index[q.Scenario]
		if !c.ok {
			return c
		}
		c.hasScen = true
	}
	if q.Cause != "" {
		c.causeID, c.ok = s.causes.index[q.Cause]
		if !c.ok {
			return c
		}
		c.hasCause = true
	}
	for _, n := range q.FiredAll {
		id, ok := s.nodes.index[n]
		if !ok {
			c.ok = false
			return c
		}
		for id/64 >= len(c.want) {
			c.want = append(c.want, 0)
		}
		c.want[id/64] |= 1 << uint(id%64)
	}
	c.plain = !c.hasScen && q.Session == "" && !c.hasCause && len(c.want) == 0
	return c
}

// blockMatch prunes whole blocks on the block-level indexes.
func (c *compiled) blockMatch(b *block) bool {
	if b.n == 0 {
		return false
	}
	if c.q.To != 0 && b.minStart >= c.q.To {
		return false
	}
	if b.maxStart < c.q.From {
		return false
	}
	if c.hasCell && !maskHas(b.cellMask, c.cellID) {
		return false
	}
	if c.hasScen && !maskHas(b.scenMask, c.scenID) {
		return false
	}
	return true
}

// inSpan is the half of the row predicate a sealed block's order
// answers for many rows at once: start inside [From, To), cell equal.
func (c *compiled) inSpan(b *block, i int) bool {
	if st := b.starts[i]; st < c.q.From || (c.q.To != 0 && st >= c.q.To) {
		return false
	}
	return !c.hasCell || int(b.cellIDs[i]) == c.cellID
}

// restMatch is the other half, asked row by row unless c is plain.
func (c *compiled) restMatch(b *block, i int) bool {
	if c.hasScen && int(b.scenIDs[i]) != c.scenID {
		return false
	}
	if c.q.Session != "" && b.sessions[i] != c.q.Session {
		return false
	}
	if len(c.want) > 0 {
		row := b.row(i)
		for w, want := range c.want {
			var have uint64
			if w < len(row) {
				have = row[w]
			}
			if have&want != want {
				return false
			}
		}
	}
	if c.hasCause {
		found := false
		for k := b.causeOff[i]; k < b.causeOff[i+1]; k++ {
			if int(b.causeIDs[k]) == c.causeID && b.causeRuns[k] > 0 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// runs calls span with the runs of rows in a stretch [lo, hi) that
// restMatch passes, and inSpan too when open, until span declines the
// rest of the stretch.
func (c *compiled) runs(b *block, lo, hi int, open bool, span func(b *block, lo, hi int) bool) {
	for i := lo; i < hi; i++ {
		j := i
		if c.plain && !open {
			j = hi // nothing to ask
		}
		for j < hi && (!open || c.inSpan(b, j)) && (c.plain || c.restMatch(b, j)) {
			j++
		}
		if i < j && !span(b, i, j) {
			return
		}
		i = j // the row at j, if any, does not match
	}
}

// scanLocked calls span with every run [lo, hi) of a block's rows that
// matches q. A sealed block's rows are in (cell, start) order, so those of
// a wanted cell inside [From, To) are one stretch, cut by two binary
// searches of its starts; the open block is one stretch whose rows are
// asked inSpan. Each read folds the runs with a loop of its own, and none
// depends on the order it sees rows in: kBest breaks its last tie on
// insertion position and CauseRates sums integers. span returns false to
// skip the rest of its stretch, which only a read that knows the rest
// cannot count does (recordsLocked). The caller must hold at least the
// read lock.
func (s *Store) scanLocked(q Query, span func(b *block, lo, hi int) bool) {
	c := s.compileLocked(q)
	if !c.ok {
		return
	}
	for _, b := range s.blocks {
		if !c.blockMatch(b) {
			continue
		}
		if b.cells == nil {
			c.runs(b, 0, b.n, true, span)
			continue
		}
		lo := 0
		for _, ce := range b.cells {
			if !c.hasCell || int(ce.cell) == c.cellID {
				// A bound that cuts no row of the block is not searched for.
				starts := b.starts[lo:ce.end]
				from, to := 0, len(starts)
				if c.q.From > b.minStart {
					from, _ = slices.BinarySearch(starts, c.q.From)
				}
				if c.q.To != 0 && c.q.To <= b.maxStart {
					to, _ = slices.BinarySearch(starts, c.q.To)
				}
				c.runs(b, lo+from, lo+to, false, span)
			}
			lo = ce.end
		}
	}
}

// RecordLess is the (Start, Session) order Query returns records in. It
// is exported so a fleet tier merging per-node answers ranks them
// exactly as one store would.
func RecordLess(a, b *Record) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Session < b.Session
}

// MatchLess is the order Similar ranks matches in: distance, then the
// more recent Start, then Session. Exported for the same reason as
// RecordLess.
func MatchLess(a, b *Match) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.Session < b.Session
}

// cand is one scanned row competing for a place in a result: its
// ranking key and where the row sits, from which winners are
// materialised and the last tie is broken.
type cand struct {
	session string
	start   sim.Time
	d       int
	rowAt
}

// kBest selects the k first rows of a scan under one of the two result
// orders: MatchLess when recentFirst, else RecordLess — Query offers
// every row at distance 0, so both are "distance, start one way or the
// other, session". Ties go to the row inserted first, as a stable sort of
// every match in insertion order and a cut at k would have it, so the
// order rows are offered in does not matter. O(rows · log k)
// comparisons and k cands of memory. k <= 0 keeps every row. Rows of
// session skip, when set, are not kept.
type kBest struct {
	k           int
	recentFirst bool
	skip        string
	kept        []cand // bounded: a heap whose root is the worst row kept
}

func (s *kBest) before(a, b *cand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.start != b.start {
		return (a.start < b.start) != s.recentFirst
	}
	if a.session != b.session {
		return a.session < b.session
	}
	return a.b.seq+int(a.b.order[a.i]) < b.b.seq+int(b.b.order[b.i])
}

// admits reports whether a row at distance d starting at st may rank,
// so a read's own loop turns most rows away on distance or start alone,
// before their session is read or a cand built.
func (s *kBest) admits(d int, st sim.Time) bool {
	if s.k <= 0 || len(s.kept) < s.k {
		return true
	}
	root := &s.kept[0]
	return d < root.d || d == root.d && (st == root.start || (st < root.start) != s.recentFirst)
}

// offer considers row i of block b at distance d, a row admits let by.
func (s *kBest) offer(b *block, i, d int) {
	c := cand{b.sessions[i], b.starts[i], d, rowAt{b, i}}
	if c.session == s.skip && s.skip != "" {
		return
	}
	if s.k <= 0 || len(s.kept) < s.k {
		s.kept = append(s.kept, c)
		if s.k <= 0 {
			return
		}
		// Sift the new leaf up past every better row.
		for j := len(s.kept) - 1; j > 0; {
			up := (j - 1) / 2
			if !s.before(&s.kept[up], &s.kept[j]) {
				break
			}
			s.kept[up], s.kept[j] = s.kept[j], s.kept[up]
			j = up
		}
		return
	}
	if !s.before(&c, &s.kept[0]) {
		return
	}
	// Replace the worst kept row and sift down towards the leaves.
	s.kept[0] = c
	for j := 0; ; {
		worst := j
		for _, kid := range [2]int{2*j + 1, 2*j + 2} {
			if kid < len(s.kept) && s.before(&s.kept[worst], &s.kept[kid]) {
				worst = kid
			}
		}
		if worst == j {
			return
		}
		s.kept[j], s.kept[worst] = s.kept[worst], s.kept[j]
		j = worst
	}
}

// newKBest returns an empty selection whose heap is allocated once up to
// 64 rows; a larger k, a request's limit=, grows it as rows come.
func newKBest(k int, recentFirst bool, skip string) kBest {
	return kBest{k: k, recentFirst: recentFirst, skip: skip, kept: make([]cand, 0, min(max(k, 0), 64))}
}

// ranked returns the kept rows best first. before is a total order
// (insertion positions are unique), so the sort need not be stable.
func (s *kBest) ranked() []cand {
	slices.SortFunc(s.kept, func(a, b cand) int {
		switch {
		case s.before(&a, &b):
			return -1
		case s.before(&b, &a):
			return 1
		}
		return 0 // a row against itself
	})
	return s.kept
}

// Query returns matching records sorted by (Start, Session), truncated
// to q.Limit when nonzero.
func (s *Store) Query(q Query) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	var out []Record
	for _, c := range s.recordsLocked(q) {
		out = append(out, s.materializeLocked(c.b, c.i))
	}
	return out
}

// recordsLocked ranks Query's rows. A sealed stretch is in start order,
// so the first row a full heap turns away ends it — one starting with the
// root goes on, as session breaks that tie — and a read cut at k visits
// about stretches + k rows.
func (s *Store) recordsLocked(q Query) []cand {
	sel := newKBest(q.Limit, false, q.NotSession)
	s.scanLocked(q, func(b *block, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			if sel.admits(0, b.starts[i]) {
				sel.offer(b, i, 0)
			} else if b.cells != nil {
				return false
			}
		}
		return true
	})
	return sel.ranked()
}

// ChainAgg is one chain's fleet-wide aggregate over a query's matches.
type ChainAgg struct {
	Chain string `json:"chain"`
	// Runs sums collapsed chain runs across matching records; Sessions
	// counts the records the chain appeared in.
	Runs     int `json:"runs"`
	Sessions int `json:"sessions"`
}

// TopChains ranks causal chains by total collapsed runs across the
// matching records — "top causal chains fleet-wide in the last hour"
// is TopChains(Query{From: now-1h}, k). Ties break by chain signature;
// k <= 0 returns every chain seen.
func (s *Store) TopChains(q Query, k int) []ChainAgg {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	return s.topChainsLocked(q, k)
}

func (s *Store) topChainsLocked(q Query, k int) []ChainAgg {
	// Indexed by chain dictionary ID; a chain is in the answer when some
	// matching record lists it, whatever its run count.
	runs := make([]int, len(s.chains.names))
	sessions := make([]int, len(s.chains.names))
	s.scanLocked(q, func(b *block, lo, hi int) bool {
		// A run's rows are consecutive, so their chain entries are too.
		for j := b.chainOff[lo]; j < b.chainOff[hi]; j++ {
			runs[b.chainIDs[j]] += int(b.chainRuns[j])
			sessions[b.chainIDs[j]]++
		}
		return true
	})
	out := []ChainAgg{}
	for id, n := range sessions {
		if n > 0 {
			out = append(out, ChainAgg{Chain: s.chains.names[id], Runs: runs[id], Sessions: n})
		}
	}
	return RankChains(out, k)
}

// RankChains orders chain aggregates as TopChains answers — most runs
// first, ties by chain — in place, and cuts them at k (k <= 0 keeps
// all). Exported, as RecordLess is, for a fleet tier's merge.
func RankChains(aggs []ChainAgg, k int) []ChainAgg {
	slices.SortFunc(aggs, func(a, b ChainAgg) int {
		if a.Runs != b.Runs {
			return cmp.Compare(b.Runs, a.Runs)
		}
		return cmp.Compare(a.Chain, b.Chain)
	})
	if k > 0 && len(aggs) > k {
		aggs = aggs[:k]
	}
	return aggs
}

// CauseBucket is one (cell, time bucket, cause class) cell of the
// longitudinal cause-rate surface. A (cell, bucket) group none of whose
// records lists a cause — every call in it was clean — is one row with
// Cause "" and Runs 0, so its Sessions and Minutes still reach a fleet
// tier's denominators; a group with a cause has no "" row.
type CauseBucket struct {
	Cell string `json:"cell"`
	// Bucket is the bucket's start on the fleet timeline, at or before
	// every start in it: a negative start is floored, not truncated.
	Bucket sim.Time `json:"bucket_us"`
	Cause  string   `json:"cause"`
	// Runs sums the cause's chain runs over the bucket's sessions;
	// Sessions counts matching records in the (cell, bucket) group —
	// including ones where this cause never fired, so rates compare
	// across buckets.
	Runs     int `json:"runs"`
	Sessions int `json:"sessions"`
	// Minutes is the group's total session minutes, summed exactly in µs
	// and divided once by sim.Minute, so no row order changes it: the
	// RunsPerMin denominator, carried explicitly so a fleet tier can
	// re-derive the rate after summing Runs and Minutes across nodes.
	Minutes float64 `json:"minutes"`
	// RunsPerMin normalizes Runs by the group's total session minutes.
	RunsPerMin float64 `json:"runs_per_min"`
}

// CauseRates buckets matching records by start time and aggregates
// cause-class chain runs per (cell, bucket): the "is grant starvation
// trending up in this cell" query. Results are sorted by (cell,
// bucket, cause). bucket <= 0 collapses the timeline into one bucket.
func (s *Store) CauseRates(q Query, bucket sim.Time) []CauseBucket {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	return s.causeRatesLocked(q, bucket)
}

func (s *Store) causeRatesLocked(q Query, bucket sim.Time) []CauseBucket {
	type groupKey struct {
		cell   uint32
		bucket sim.Time
	}
	// groups holds the (cell, bucket) groups in the order met, at their
	// indexes, tallies a row of slots per group, one per cause ID: its runs
	// plus one once a record lists it, so a listed cause is answered
	// whatever its run count. listed counts the nonzero slots.
	type group struct {
		key      groupKey
		sessions int
		micros   sim.Time // the sum of End − Start
	}
	width, listed := len(s.causes.names), 0
	at := map[groupKey]int{}
	var groups []group
	var tallies []int
	zeros := make([]int, width) // a new group's tally, appended without a temporary
	s.scanLocked(q, func(b *block, lo, hi int) bool {
		// g holds key.cell's starts in [key.bucket, end): a sealed block's run
		// is one cell's rows in start order, so it asks the map once a bucket.
		// g and tally point into groups and tallies, which grow only here.
		var g *group
		var tally []int
		var end sim.Time
		for i := lo; i < hi; i++ {
			if st := b.starts[i]; g == nil || b.cellIDs[i] != g.key.cell || st < g.key.bucket || st >= end {
				key := groupKey{cell: b.cellIDs[i]}
				end = math.MaxInt64
				if bucket > 0 {
					// Floored: truncation would put a negative start in a later bucket.
					if key.bucket = st / bucket * bucket; key.bucket > st {
						key.bucket -= bucket
					}
					end = key.bucket + bucket
				}
				gi, ok := at[key]
				if !ok {
					gi, at[key] = len(groups), len(groups)
					groups = append(groups, group{key: key})
					tallies = append(tallies, zeros...)
				}
				g, tally = &groups[gi], tallies[gi*width:(gi+1)*width]
			}
			g.sessions++
			g.micros += b.ends[i] - b.starts[i]
			for k := b.causeOff[i]; k < b.causeOff[i+1]; k++ {
				t := &tally[b.causeIDs[k]]
				if *t == 0 {
					*t, listed = 1, listed+1
				}
				*t += int(b.causeRuns[k])
			}
		}
		return true
	})
	out := make([]CauseBucket, 0, len(groups)+listed) // a row per listed cause, or one
	for gi, g := range groups {
		row := CauseBucket{Cell: s.cells.names[g.key.cell], Bucket: g.key.bucket,
			Sessions: g.sessions, Minutes: float64(g.micros) / float64(sim.Minute)}
		n := len(out)
		for id, t := range tallies[gi*width : (gi+1)*width] {
			if t > 0 {
				row.Cause, row.Runs = s.causes.names[id], t-1
				out = append(out, row)
			}
		}
		if len(out) == n { // no record of the group lists a cause
			out = append(out, row)
		}
	}
	return RateCauseBuckets(out)
}

// RateCauseBuckets derives each bucket's RunsPerMin and sorts them by
// (cell, bucket, cause) in place, as CauseRates answers. Exported for a
// fleet tier's merge.
func RateCauseBuckets(buckets []CauseBucket) []CauseBucket {
	for i := range buckets {
		if cb := &buckets[i]; cb.Minutes > 0 {
			cb.RunsPerMin = float64(cb.Runs) / cb.Minutes
		}
	}
	slices.SortFunc(buckets, func(a, b CauseBucket) int {
		if c := cmp.Compare(a.Cell, b.Cell); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Bucket, b.Bucket); c != 0 {
			return c
		}
		return cmp.Compare(a.Cause, b.Cause)
	})
	return buckets
}

// Match is one nearest-prior-incident result: a record plus its
// fired-node Hamming distance from the probe signature.
type Match struct {
	Record
	// Distance is the Hamming distance between the probe's fired-node
	// set and the record's: nodes in exactly one of the two sets.
	Distance int `json:"distance"`
}

// Similar finds the k records most similar to a fired-node signature,
// by Hamming distance over the packed fired bitsets — the "which prior
// incident looks like this one" lookup. Probe nodes the store has
// never seen still count toward the distance (no record can share
// them). Ties break toward more recent records, then session. q
// narrows the candidate set; k <= 0 returns all matches ranked.
func (s *Store) Similar(fired []string, q Query, k int) []Match {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	ranked := s.similarLocked(fired, q, k)
	out := make([]Match, 0, len(ranked))
	for _, c := range ranked {
		out = append(out, Match{Record: s.materializeLocked(c.b, c.i), Distance: c.d})
	}
	return out
}

// similarLocked ranks Similar's rows. The probe is as wide as the
// widest block; a row of a narrower one meets only zeros past its
// stride, so those probe words are a constant with the unknown nodes,
// and a row's distance is one loop over its own words.
func (s *Store) similarLocked(fired []string, q Query, k int) []cand {
	probe := make([]uint64, max((len(s.nodes.names)+63)/64, 1))
	unknown := 0
	for _, n := range fired {
		if id, ok := s.nodes.index[n]; ok {
			probe[id/64] |= 1 << uint(id%64)
		} else {
			unknown++
		}
	}
	sel := newKBest(k, true, q.NotSession)
	s.scanLocked(q, func(b *block, lo, hi int) bool {
		base, pad := unknown, probe[:b.stride]
		for _, want := range probe[b.stride:] {
			base += bits.OnesCount64(want)
		}
		// Latest start first, so a row tying a kept one's distance loses on start.
		for i := hi - 1; i >= lo; i-- {
			row, d := b.row(i), base
			for w, want := range pad {
				d += bits.OnesCount64(row[w] ^ want)
			}
			if sel.admits(d, b.starts[i]) {
				sel.offer(b, i, d)
			}
		}
		return true
	})
	return sel.ranked()
}

// Fired returns the most recently inserted record for a session and
// whether one exists — the probe-building step of /incidents/similar.
func (s *Store) Fired(session string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	at, ok := s.latest[session]
	if !ok {
		return Record{}, false
	}
	return s.materializeLocked(at.b, slices.Index(at.b.order, uint32(at.i))), true
}
