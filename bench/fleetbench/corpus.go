package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// chainCount is one ranked chain of a report's top_chains.
type chainCount struct {
	Chain  string `json:"chain"`
	Events int    `json:"events"`
}

// reference is the answer a session's final report must carry: the
// repo's own oracle, batch core.Analyzer.Analyze of the same trace.Set.
type reference struct {
	Records      int
	Windows      int
	ChainEvents  int
	Causes       map[string]int
	Consequences map[string]int
	TopChains    []chainCount
}

// item is one corpus call in both wire encodings, with its reference.
type item struct {
	Name    string // scenario/derived-seed label
	Records int    // data records (header excluded)
	JSONL   []byte
	Binary  []byte
	// chunkEnd[i] is the byte offset in JSONL where chunk i ends; chunk
	// 0 starts at 0 and carries the header line. chunkRecs[i] is the
	// cumulative count of data records through chunk i, chunkLast[i] the
	// timestamp of chunk i's last record (the previous chunk's for an
	// empty chunk).
	chunkEnd  [chunksPerCall]int
	chunkRecs [chunksPerCall]int
	chunkLast [chunksPerCall]sim.Time
	Report    *core.Report
	Ref       reference
}

// corpus is the seeded input set. The programs under test receive only
// these bytes; the seed never reaches them.
type corpus struct {
	Seed     int64
	Items    []*item
	Analyzer *core.Analyzer
	// order is the seeded cycle in which uploads draw items.
	order []int
	// genRecordsPerS is the simulator's throughput while generating.
	genRecordsPerS float64
}

// deriveSeed mixes the run seed with a corpus position (splitmix64), so
// neighbouring run seeds share no session seeds.
func deriveSeed(seed int64, i, j int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(j)*0x94d049bb133111eb + 1
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// buildCorpus simulates every registered scenario × seedsPerScenario
// derived seeds for callSeconds, encodes each trace once per wire
// format, and computes each reference by batch analysis.
func buildCorpus(seed int64) (*corpus, error) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		return nil, err
	}
	c := &corpus{Seed: seed, Analyzer: analyzer}
	var simTime time.Duration
	total := 0
	for i, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		for j := 0; j < seedsPerScenario; j++ {
			t0 := time.Now()
			sess, err := sc.Build(deriveSeed(seed, i, j))
			if err != nil {
				return nil, fmt.Errorf("corpus %s/%d: %w", name, j, err)
			}
			set := sess.Run(callSeconds * sim.Second)
			simTime += time.Since(t0)
			it, err := encodeItem(fmt.Sprintf("%s/%d", name, j), set, analyzer)
			if err != nil {
				return nil, err
			}
			total += it.Records
			c.Items = append(c.Items, it)
		}
	}
	c.genRecordsPerS = float64(total) / simTime.Seconds()
	c.order = rand.New(rand.NewSource(seed)).Perm(len(c.Items))
	return c, nil
}

func encodeItem(name string, set *trace.Set, analyzer *core.Analyzer) (*item, error) {
	it := &item{Name: name}
	var jb, bb bytes.Buffer
	if err := trace.WriteJSONL(&jb, set); err != nil {
		return nil, fmt.Errorf("corpus %s: jsonl: %w", name, err)
	}
	if err := trace.WriteBinary(&bb, set); err != nil {
		return nil, fmt.Errorf("corpus %s: binary: %w", name, err)
	}
	it.JSONL, it.Binary = jb.Bytes(), bb.Bytes()

	// Both writers emit records merged in timestamp order, one JSONL
	// line each after the header line, so chunk i of the stream is the
	// lines of the records with t < (i+1)·chunkSimSeconds.
	times := make([]sim.Time, 0, len(set.DCI)+len(set.GNBLogs)+len(set.Packets)+len(set.Stats)+len(set.RRC))
	for _, r := range set.DCI {
		times = append(times, r.At)
	}
	for _, r := range set.GNBLogs {
		times = append(times, r.At)
	}
	for _, r := range set.Packets {
		times = append(times, r.SentAt)
	}
	for _, r := range set.Stats {
		times = append(times, r.At)
	}
	for _, r := range set.RRC {
		times = append(times, r.At)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	it.Records = len(times)
	if got := bytes.Count(it.JSONL, []byte{'\n'}); got != it.Records+1 {
		return nil, fmt.Errorf("corpus %s: %d JSONL lines for %d records + header", name, got, it.Records)
	}
	line, off := 0, 0 // lines consumed so far, and their byte length
	for i := 0; i < chunksPerCall; i++ {
		n := len(times)
		if i < chunksPerCall-1 {
			cut := sim.Time(float64(i+1) * chunkSimSeconds * float64(sim.Second))
			n = sort.Search(len(times), func(k int) bool { return times[k] >= cut })
		}
		for ; line < n+1; line++ { // +1: the header line
			off += bytes.IndexByte(it.JSONL[off:], '\n') + 1
		}
		it.chunkEnd[i], it.chunkRecs[i] = off, n
		if n > 0 {
			it.chunkLast[i] = times[n-1]
		}
	}

	rep, err := analyzer.Analyze(set)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: reference analysis: %w", name, err)
	}
	it.Report = rep
	it.Ref = referenceOf(rep, it.Records)
	return it, nil
}

func referenceOf(rep *core.Report, records int) reference {
	ref := reference{
		Records:      records,
		Windows:      len(rep.Windows),
		ChainEvents:  rep.TotalChainEvents(),
		Causes:       map[string]int{},
		Consequences: map[string]int{},
	}
	for _, c := range core.CauseClasses() {
		ref.Causes[c] = rep.EventCount(c)
	}
	for _, c := range core.ConsequenceClasses() {
		ref.Consequences[c] = rep.EventCount(c)
	}
	for _, cc := range rep.TopChains(10) {
		ref.TopChains = append(ref.TopChains, chainCount{Chain: cc.Chain.String(), Events: cc.Events})
	}
	return ref
}

// chunk returns chunk i of the call's JSONL stream.
func (it *item) chunk(i int) []byte {
	start := 0
	if i > 0 {
		start = it.chunkEnd[i-1]
	}
	return it.JSONL[start:it.chunkEnd[i]]
}

// seq is the X-Domino-Seq of chunk i: the record index its body starts
// at, where record 0 is the header.
func (it *item) seq(i int) int {
	if i == 0 {
		return 0
	}
	return it.chunkRecs[i-1] + 1
}

// pick returns the n-th item of the seeded cycle.
func (c *corpus) pick(n int) *item { return c.Items[c.order[n%len(c.order)]] }

// totalRecords sums data records over the corpus.
func (c *corpus) totalRecords() int {
	n := 0
	for _, it := range c.Items {
		n += it.Records
	}
	return n
}

// recordsPerSession is the mean data records of a corpus call.
func (c *corpus) recordsPerSession() float64 {
	return float64(c.totalRecords()) / float64(len(c.Items))
}
