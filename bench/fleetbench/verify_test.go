package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/rcastore"
)

// testCorpus is built once: simulating 28 calls is most of this
// package's test time.
var testCorpus *corpus

func corpusForTest(t *testing.T) *corpus {
	t.Helper()
	if testCorpus == nil {
		c, err := buildCorpus(42)
		if err != nil {
			t.Fatal(err)
		}
		testCorpus = c
	}
	return testCorpus
}

// bodyFor renders the report a correct node would serve for ref.
func bodyFor(ref reference) []byte {
	type stat struct {
		Events int `json:"events"`
	}
	causes, cons := map[string]stat{}, map[string]stat{}
	for k, v := range ref.Causes {
		causes[k] = stat{v}
	}
	for k, v := range ref.Consequences {
		cons[k] = stat{v}
	}
	b, _ := json.Marshal(map[string]any{
		"session": "s", "state": "done", "records": ref.Records, "windows": ref.Windows,
		"chain_events": ref.ChainEvents, "causes": causes, "consequences": cons, "top_chains": ref.TopChains,
	})
	return b
}

// The correctness gate's self-test: the same answers checked against a
// corrupted reference must count as failures, so failed_share cannot
// read 0 by accident.
func TestCorruptedReferenceDrivesFailedShareAboveZero(t *testing.T) {
	c := corpusForTest(t)
	score := func(corrupt func(*reference)) (attempted, failed int) {
		var tl tally
		for _, it := range c.Items {
			ref := it.Ref
			ref.Causes = map[string]int{}
			for k, v := range it.Ref.Causes {
				ref.Causes[k] = v
			}
			ref.TopChains = append([]chainCount(nil), it.Ref.TopChains...)
			corrupt(&ref)
			rb, err := parseReport(bodyFor(it.Ref))
			if err == nil {
				err = checkFinal(rb, ref)
			}
			tl.record(err)
		}
		attempted, failed, _ = tl.counts()
		return attempted, failed
	}
	if a, f := score(func(*reference) {}); a != len(c.Items) || f != 0 {
		t.Fatalf("clean reference: %d of %d failed, want 0", f, a)
	}
	corruptions := map[string]func(*reference){
		"records":      func(r *reference) { r.Records++ },
		"windows":      func(r *reference) { r.Windows-- },
		"chain_events": func(r *reference) { r.ChainEvents++ },
		"cause count": func(r *reference) {
			for k := range r.Causes {
				r.Causes[k]++
				return
			}
		},
		"top chain": func(r *reference) { r.TopChains = append(r.TopChains, chainCount{"made --> up", 1}) },
	}
	for name, corrupt := range corruptions {
		if a, f := score(corrupt); f != a {
			t.Errorf("reference with corrupted %s: %d of %d answers failed, want all", name, f, a)
		}
	}
}

func TestCorpusChunksTileTheStream(t *testing.T) {
	c := corpusForTest(t)
	if len(c.Items) != 28 {
		t.Fatalf("%d corpus items, want 14 scenarios × 2 seeds", len(c.Items))
	}
	for _, it := range c.Items {
		var joined []byte
		for i := 0; i < chunksPerCall; i++ {
			chunk := it.chunk(i)
			if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
				t.Fatalf("%s chunk %d does not end on a line boundary", it.Name, i)
			}
			// The seq header is the record index the body starts at,
			// counting the header line as record 0.
			if want := bytes.Count(joined, []byte{'\n'}); it.seq(i) != want {
				t.Fatalf("%s chunk %d: seq %d, want %d", it.Name, i, it.seq(i), want)
			}
			joined = append(joined, chunk...)
			if got := bytes.Count(joined, []byte{'\n'}) - 1; got != it.chunkRecs[i] {
				t.Fatalf("%s chunk %d: %d records sent, chunkRecs says %d", it.Name, i, got, it.chunkRecs[i])
			}
		}
		if !bytes.Equal(joined, it.JSONL) {
			t.Fatalf("%s: the chunks do not concatenate to the stream", it.Name)
		}
		if it.chunkRecs[chunksPerCall-1] != it.Records || it.Ref.Records != it.Records {
			t.Fatalf("%s: record counts disagree", it.Name)
		}
		if it.Ref.Windows != 11 {
			t.Fatalf("%s: %d reference windows, want 11 for a 10 s call", it.Name, it.Ref.Windows)
		}
	}
	// The same seed gives the same inputs; another seed gives others.
	again, err := buildCorpus(42)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range c.Items {
		if !bytes.Equal(it.Binary, again.Items[i].Binary) || !bytes.Equal(it.JSONL, again.Items[i].JSONL) {
			t.Fatalf("%s: seed 42 gave different bytes the second time", it.Name)
		}
	}
	if deriveSeed(42, 0, 0) == deriveSeed(43, 0, 0) || deriveSeed(42, 0, 0) == deriveSeed(42, 0, 1) {
		t.Fatal("derived seeds collide")
	}
}

func TestQueryChecks(t *testing.T) {
	// nil and empty answers are the same answer.
	if err := sameJSON([]rcastore.ChainAgg(nil), []rcastore.ChainAgg{}); err != nil {
		t.Error(err)
	}
	want := similarWant{Fired: []string{"a"}, Matches: []rcastore.Match{
		{Record: rcastore.Record{Session: "p0-1"}, Distance: 0},
		{Record: rcastore.Record{Session: "p1-2"}, Distance: 1},
	}}
	q := query{kind: "similar", want: want}
	body := func(sessions ...string) []byte {
		got := similarWant{Fired: []string{"a"}}
		for _, s := range sessions {
			d := 0
			if s == "p1-2" {
				d = 1
			}
			got.Matches = append(got.Matches, rcastore.Match{Record: rcastore.Record{Session: s}, Distance: d})
		}
		b, _ := json.Marshal(got)
		return b
	}
	// The live writer's rows may sit among the matches; the rest must be
	// the head of the reference ranking, in order.
	if err := q.check(body(livePrefix+"1-7", "p0-1", "p1-2")); err != nil {
		t.Errorf("live row plus the reference ranking: %v", err)
	}
	if err := q.check(body(livePrefix+"1-7", livePrefix+"1-8", "p0-1")); err != nil {
		t.Errorf("live rows displacing the tail: %v", err)
	}
	if err := q.check(body("p1-2", "p0-1")); err == nil {
		t.Error("matches out of reference order passed")
	}
	if err := q.check(body("p0-1", "p9-9")); err == nil {
		t.Error("a match the reference does not hold passed")
	}
	scrape := query{kind: "scrape"}
	if err := scrape.check([]byte("# HELP x_total x\n# TYPE x_total counter\nx_total 1\n")); err != nil {
		t.Errorf("clean exposition: %v", err)
	}
	if err := scrape.check([]byte("x_total 1\n")); err == nil {
		t.Error("an exposition without HELP/TYPE passed the lint check")
	}
}

func TestTallyKeepsFirstErrors(t *testing.T) {
	var tl tally
	for i := 0; i < 10; i++ {
		tl.record(errors.New("boom"))
	}
	tl.record(nil)
	a, f, errs := tl.counts()
	if a != 11 || f != 10 || len(errs) != 5 || !strings.Contains(errs[0], "boom") {
		t.Fatalf("attempted %d failed %d errs %d", a, f, len(errs))
	}
}

func TestDeckDealsExactProportionsInSeededOrder(t *testing.T) {
	deal := func(seed int64, n int) []int {
		d := newDeck(rand.New(rand.NewSource(seed)), []int{0, 0, 0, 1, 1, 2})
		out := make([]int, n)
		for i := range out {
			out[i] = d.deal()
		}
		return out
	}
	a := deal(1, 60)
	if !reflect.DeepEqual(a, deal(1, 60)) {
		t.Fatal("the same seed dealt two orders")
	}
	if reflect.DeepEqual(a, deal(2, 60)) {
		t.Fatal("two seeds dealt the same order")
	}
	// Every full deck holds exactly 3, 2 and 1 of the three values.
	for start := 0; start < 60; start += 6 {
		count := [3]int{}
		for _, v := range a[start : start+6] {
			count[v]++
		}
		if count != [3]int{3, 2, 1} {
			t.Fatalf("deck starting at deal %d holds %v, want [3 2 1]", start, count)
		}
	}
	// The committed mix fits a 20-card deck.
	total := 0
	for _, m := range queryMix {
		if m.pct%5 != 0 {
			t.Errorf("queryMix %s: %d %% is not a multiple of 5", m.kind, m.pct)
		}
		total += m.pct
	}
	if total != 100 {
		t.Errorf("queryMix sums to %d %%", total)
	}
}
