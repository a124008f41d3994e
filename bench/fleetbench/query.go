package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// query is one pooled read with the answer the reference stores give.
type query struct {
	kind string
	path string // path and query string, relative to the entry point
	want any    // expected decoded answer, by kind
}

// preload is query-mix's history: what each node recovers at boot, the
// same rows in in-process reference stores, and the pooled queries with
// their reference answers.
type preload struct {
	perNode []*rcastore.Store // what node i holds after recovery
	global  *rcastore.Store   // every node's rows in one store
	pool    map[string][]query
	rows    int
}

// buildPreload writes one journal per node (preloadRows reports built
// from the corpus's reference reports, timestamps spread over
// preloadSpan of fleet time), mirrors the rows into reference stores,
// and answers the query pool from them.
func buildPreload(c *corpus, dir string, nodes int) (*preload, error) {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x71756572)) // "quer"
	base := make([]rcastore.Record, len(c.Items))
	for i, it := range c.Items {
		base[i] = rcastore.FromReport("", 0, it.Report)
	}
	p := &preload{global: rcastore.New(rcastore.Options{}), pool: map[string][]query{}, rows: preloadRows}
	oldest := sim.Time(fixedClock) - sim.Time((preloadGap+preloadSpan)/time.Microsecond)
	var ids []string
	for n := 0; n < nodes; n++ {
		st := rcastore.New(rcastore.Options{})
		// No fsync while preloading: the journal is complete and closed
		// before any node opens it.
		j, err := rcastore.OpenJournal(filepath.Join(dir, fmt.Sprintf("n%d.wal", n)), rcastore.JournalOptions{SyncEvery: 1 << 30})
		if err != nil {
			return nil, err
		}
		for i := 0; i < preloadRows; i++ {
			rec := base[rng.Intn(len(base))]
			rec.Session = fmt.Sprintf("p%d-%05d", n, i)
			dur := rec.End - rec.Start
			rec.Start = oldest + sim.Time(rng.Int63n(int64(preloadSpan/time.Microsecond)))
			rec.End = rec.Start + dur
			if err := j.Append(rec); err != nil {
				j.Close()
				return nil, fmt.Errorf("preload journal n%d: %w", n, err)
			}
			st.Insert(rec)
			p.global.Insert(rec)
			ids = append(ids, rec.Session)
		}
		if err := j.Close(); err != nil {
			return nil, fmt.Errorf("preload journal n%d: %w", n, err)
		}
		p.perNode = append(p.perNode, st)
	}

	// Every timed /query excludes the live writer's rows (which start at
	// fixedClock − callSeconds) with to=, so its answer is exactly the
	// reference's.
	to := sim.Time(fixedClock) - sim.Time(30*time.Second/time.Microsecond)
	spans := []time.Duration{time.Hour, 6 * time.Hour, preloadSpan + 2*preloadGap}
	cells := map[string]bool{}
	for _, it := range c.Items {
		cells[it.Report.CellName] = true
	}
	var cellNames []string
	for name := range cells {
		cellNames = append(cellNames, name)
	}
	sort.Strings(cellNames)
	causes := core.CauseClasses()

	// The /query pool is a grid, not a draw: every time span × every
	// cell filter (none, then each cell), so that every seed's pool costs
	// the same to answer and only the preloaded rows and the order of
	// draws differ between seeds.
	n := 0
	for _, span := range spans {
		for c := -1; c < len(cellNames); c++ {
			q := rcastore.Query{To: to, From: to - sim.Time(span/time.Microsecond)}
			v := url.Values{"from": {strconv.FormatInt(int64(q.From), 10)}, "to": {strconv.FormatInt(int64(q.To), 10)}}
			if c >= 0 {
				q.Cell = cellNames[c]
				v.Set("cell", q.Cell)
			}

			tv := maps.Clone(v) // Set below replaces a key's slice, so a shallow copy is enough
			tv.Set("agg", "top_chains")
			tv.Set("k", "5")
			p.pool["top_chains"] = append(p.pool["top_chains"], query{"top_chains", "/query?" + tv.Encode(), p.fleetTopChains(q, 5)})

			cv := maps.Clone(v)
			cv.Set("agg", "cause_rates")
			cv.Set("bucket", "1h")
			p.pool["cause_rates"] = append(p.pool["cause_rates"], query{"cause_rates", "/query?" + cv.Encode(),
				p.global.CauseRates(q, sim.Time(time.Hour/time.Microsecond))})

			rq, rv := q, maps.Clone(v)
			rq.Cause = causes[n%len(causes)]
			rq.Limit = 50
			rv.Set("cause", rq.Cause)
			rv.Set("limit", "50")
			p.pool["records"] = append(p.pool["records"], query{"records", "/query?" + rv.Encode(), p.global.Query(rq)})
			n++
		}
	}
	for i := 0; i < similarPool; i++ {
		probe := ids[rng.Intn(len(ids))]
		sv := url.Values{"session": {probe}, "k": {"5"}}
		p.pool["similar"] = append(p.pool["similar"], query{"similar", "/incidents/similar?" + sv.Encode(), p.similar(probe, 5)})
	}
	p.pool["scrape"] = []query{{kind: "scrape", path: "/metrics"}}
	return p, nil
}

// fleetTopChains is the answer the fleet gives to agg=top_chains: every
// node ranks its own rows and truncates to k, then the balancer sums
// runs and sessions by chain, re-ranks and truncates again. That is not
// always the top k of the union, so the reference follows the same
// steps over the per-node stores.
func (p *preload) fleetTopChains(q rcastore.Query, k int) []rcastore.ChainAgg {
	by := map[string]*rcastore.ChainAgg{}
	for _, st := range p.perNode {
		for _, c := range st.TopChains(q, k) {
			if a := by[c.Chain]; a != nil {
				a.Runs += c.Runs
				a.Sessions += c.Sessions
			} else {
				cp := c
				by[c.Chain] = &cp
			}
		}
	}
	out := make([]rcastore.ChainAgg, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		return out[i].Chain < out[j].Chain
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// similarWant is the reference answer to /incidents/similar?session=.
type similarWant struct {
	Fired   []string         `json:"fired"`
	Matches []rcastore.Match `json:"matches"`
}

func (p *preload) similar(probe string, k int) similarWant {
	rec, _ := p.global.Fired(probe)
	var out []rcastore.Match
	for _, m := range p.global.Similar(rec.Fired, rcastore.Query{}, k+1) {
		if m.Session != probe && len(out) < k {
			out = append(out, m)
		}
	}
	return similarWant{Fired: rec.Fired, Matches: out}
}

// livePrefix marks the query-mix writer's sessions; their rows are the
// ones a similar-incident answer may hold beyond the reference.
const livePrefix = "w-"

// check compares a response body with the query's reference answer.
func (q query) check(body []byte) error {
	switch q.kind {
	case "top_chains":
		var got struct {
			TopChains []rcastore.ChainAgg `json:"top_chains"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return sameJSON(got.TopChains, q.want)
	case "records":
		var got struct {
			Records []rcastore.Record `json:"records"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return sameJSON(got.Records, q.want)
	case "cause_rates":
		var got struct {
			CauseRates []rcastore.CauseBucket `json:"cause_rates"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := q.want.([]rcastore.CauseBucket)
		if len(got.CauseRates) != len(want) {
			return fmt.Errorf("%d cause-rate rows, want %d", len(got.CauseRates), len(want))
		}
		for i, w := range want {
			g := got.CauseRates[i]
			// The fleet sums session minutes node by node, the reference
			// row by row: equal up to float rounding.
			if g.Cell != w.Cell || g.Bucket != w.Bucket || g.Cause != w.Cause || g.Runs != w.Runs || g.Sessions != w.Sessions ||
				!near(g.Minutes, w.Minutes) || !near(g.RunsPerMin, w.RunsPerMin) {
				return fmt.Errorf("cause-rate row %d: %+v, want %+v", i, g, w)
			}
		}
		return nil
	case "similar":
		var got similarWant
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := q.want.(similarWant)
		if err := sameJSON(got.Fired, want.Fired); err != nil {
			return err
		}
		// Rows the live writer added rank among the matches (they are
		// the most recent); what is left must be the head of the
		// reference ranking.
		var rest []rcastore.Match
		for _, m := range got.Matches {
			if !strings.HasPrefix(m.Session, livePrefix) {
				rest = append(rest, m)
			}
		}
		if len(rest) > len(want.Matches) {
			return fmt.Errorf("%d matches, reference has %d", len(rest), len(want.Matches))
		}
		return sameJSON(rest, want.Matches[:len(rest)])
	case "scrape":
		if errs, _ := obs.Lint(bytes.NewReader(body)); len(errs) > 0 {
			return fmt.Errorf("federated /metrics does not lint: %v", errs[0])
		}
		return nil
	}
	return fmt.Errorf("unknown query kind %q", q.kind)
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// sameJSON compares two values by their JSON encoding, which treats a
// nil and an empty slice alike, as the wire does.
func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(g) == "null" {
		g = []byte("[]")
	}
	if string(w) == "null" {
		w = []byte("[]")
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("answer %.300s, want %.300s", g, w)
	}
	return nil
}

// deck deals a fixed multiset of values in seeded order, reshuffling
// when it runs out. Unlike independent draws it keeps the proportions
// exact over every full deck, so two seeds ask for the same amount of
// work and differ only in its order.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, cards []int) *deck {
	return &deck{rng: rng, cards: cards, next: len(cards)}
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// dealer deals one reader's queries: the kind from a deck holding the
// committed mix (queryMix's percentages over 20 cards), then the query
// from a deck over that kind's pool.
type dealer struct {
	p     *preload
	kinds *deck
	pools map[string]*deck
}

func (p *preload) dealer(rng *rand.Rand) *dealer {
	d := &dealer{p: p, pools: map[string]*deck{}}
	var kinds []int
	for k, m := range queryMix {
		if m.pct%5 != 0 {
			panic("queryMix percentages must be multiples of 5")
		}
		for i := 0; i < m.pct/5; i++ {
			kinds = append(kinds, k)
		}
		idx := make([]int, len(p.pool[m.kind]))
		for i := range idx {
			idx[i] = i
		}
		d.pools[m.kind] = newDeck(rng, idx)
	}
	d.kinds = newDeck(rng, kinds)
	return d
}

func (d *dealer) deal() query {
	kind := queryMix[d.kinds.deal()].kind
	return d.p.pool[kind][d.pools[kind].deal()]
}

// runQuery is the query-mix workload: senders() closed-loop readers
// drawing seeded from the read mix through dominolb, beside a
// timer-driven writer of one binary session every writerEvery. The
// writer's uploads are sent by whichever reader is free when one falls
// due, so the generator still holds at most senders() connections.
func runQuery(ctx context.Context, e *env, warm, length time.Duration, rec *recorder) (*outcome, error) {
	o := newOutcome()
	series := map[string]*samples{}
	for _, m := range queryMix {
		series[m.kind] = o.sample("query." + m.kind)
	}
	writes := o.sample("query.write")
	root := rec.begin(0, 0, "workload")

	type reader struct {
		http   *http.Client
		ingest *ingest.Client
		deal   *dealer
	}
	readers := make([]*reader, senders())
	for i := range readers {
		hc := newClient()
		defer hc.CloseIdleConnections()
		readers[i] = &reader{http: hc, deal: e.preload.dealer(rand.New(rand.NewSource(e.corpus.Seed*64 + int64(i)))),
			ingest: ingest.New(ingest.Options{BaseURL: e.fleet.entry, HTTPClient: hc, Retries: 2, Seed: e.corpus.Seed + int64(i)})}
	}

	var writeN atomic.Int64 // writes claimed so far, across warm-up and window
	var opN atomic.Int64
	loop := func(start, deadline time.Time, measured bool) {
		first := writeN.Load()
		var wg sync.WaitGroup
		for _, r := range readers {
			wg.Add(1)
			go func(r *reader) {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					// A write is due every writerEvery from the phase's
					// start; the first free reader claims it.
					k := writeN.Load()
					due := start.Add(time.Duration(k-first) * writerEvery)
					if !time.Now().Before(due) && due.Before(deadline) && writeN.CompareAndSwap(k, k+1) {
						it := e.corpus.pick(int(k))
						id := fmt.Sprintf("%s%d-%d", livePrefix, e.corpus.Seed, k)
						_, _, err := uploadChecked(ctx, r.ingest, rec, root, opN.Add(1), id, ingest.ContentTypeBinary, it.Binary, it)
						if measured {
							o.tally.record(err)
							if err == nil {
								writes.add(time.Since(due))
								o.carried(it.Records)
							}
						}
						continue
					}
					q := r.deal.deal()
					sp := rec.begin(root, opN.Add(1), "query."+q.kind)
					t0 := time.Now()
					body, err := get(ctx, r.http, e.fleet.entry+q.path)
					took := time.Since(t0)
					rec.end(sp, int64(len(body)))
					if err == nil {
						err = q.check(body)
					}
					if !measured {
						continue
					}
					o.tally.record(err)
					if err == nil {
						series[q.kind].add(took)
						o.completed(0, took, q.kind != "scrape")
					}
				}
			}(r)
		}
		wg.Wait()
	}

	now := time.Now()
	loop(now, now.Add(warm), false)
	w, err := openWindow(e.fleet, o)
	if err != nil {
		return nil, err
	}
	loop(w.start, w.start.Add(length), true)
	if err := w.close(); err != nil {
		return nil, err
	}
	rec.end(root, o.ops)

	// The headline latency is the kinds' medians weighted by the mix. The
	// kinds differ fortyfold (a similar-incident read ranks every row),
	// so the pooled median sits wherever the cheap kinds' distributions
	// happen to overlap and moves with which reads ran beside which.
	weights := 0
	for _, m := range queryMix {
		if m.kind != "scrape" {
			o.mixP50 += float64(m.pct) * series[m.kind].percentile(50)
			weights += m.pct
		}
	}
	o.mixP50 /= float64(weights)
	return o, ctx.Err()
}
