package rcastore

import (
	"fmt"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// synthRecords builds a deterministic fleet of records: cells ×
// scenarios × sessions with varied fired sets, chain runs, and cause
// rollups, driven by a seeded xorshift so the workload is identical
// across runs and machines.
func synthRecords(n int) []Record {
	cells := []string{"tdd", "fdd", "amarisoft", "mosolabs"}
	scens := []string{"harq-storm", "grant-starvation", "rush-hour-cross-traffic", "flapping-rrc"}
	nodes := []string{
		"harq_retx", "rlc_retx", "cross_traffic", "channel_degrades", "ul_scheduling", "rrc_state_change",
		"forward_delay_up", "reverse_delay_up", "target_bitrate_down", "jitter_buffer_drain",
		"inbound_framerate_down", "outbound_resolution_down",
	}
	chains := []string{
		"harq_retx --> forward_delay_up --> jitter_buffer_drain",
		"ul_scheduling --> target_bitrate_down --> outbound_resolution_down",
		"cross_traffic --> forward_delay_up --> inbound_framerate_down",
		"channel_degrades --> harq_retx --> jitter_buffer_drain",
		"rrc_state_change --> forward_delay_up --> jitter_buffer_drain",
	}
	causeOf := []string{"harq_retx", "ul_scheduling", "cross_traffic", "channel_degrades", "rrc_state_change"}
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	out := make([]Record, n)
	for i := range out {
		start := sim.Time(i) * 30 * sim.Second
		r := Record{
			Session:  fmt.Sprintf("s%06d", i),
			Cell:     cells[next(len(cells))],
			Scenario: scens[next(len(scens))],
			Start:    start,
			End:      start + sim.Minute,
		}
		for j, name := range nodes {
			if next(3) != 0 || j < 2 {
				r.Fired = append(r.Fired, name)
			}
		}
		seen := map[string]int{}
		for c := 0; c < 1+next(3); c++ {
			id := next(len(chains))
			runs := 1 + next(8)
			r.Chains = append(r.Chains, ChainRuns{Chain: chains[id], Runs: runs})
			seen[causeOf[id]] += runs
		}
		for cause, runs := range seen {
			r.Causes = append(r.Causes, CauseRuns{Cause: cause, Runs: runs})
		}
		r.Metrics = []Metric{{Name: "degradation_per_min", Value: float64(next(100)) / 10}}
		out[i] = r
	}
	return out
}

// BenchmarkRCAStoreInsert measures fleet ingest into a bounded store:
// each op pushes a 4096-record fleet through Insert with dictionary
// interning, bitset packing, and block eviction all on the hot path.
func BenchmarkRCAStoreInsert(b *testing.B) {
	recs := synthRecords(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Options{BlockRows: 256, MaxBlocks: 8})
		for _, r := range recs {
			s.Insert(r)
		}
	}
	b.ReportMetric(float64(b.N*len(recs))/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkRCAStoreQuery measures each read on its own over 25 000
// rows — the history fleetbench's query-mix preloads per node — so a
// change to one read's cost shows as that read's ns/op and allocs/op.
func BenchmarkRCAStoreQuery(b *testing.B) {
	recs := synthRecords(25000)
	s := New(Options{BlockRows: 256})
	for _, r := range recs {
		s.Insert(r)
	}
	probe := []string{"harq_retx", "forward_delay_up", "jitter_buffer_drain", "cross_traffic"}
	for _, read := range []struct {
		name string
		rows func() int
	}{
		{"records_limit50", func() int { return len(s.Query(Query{Cause: "harq_retx", Limit: 50})) }},
		{"top_chains", func() int { return len(s.TopChains(Query{}, 5)) }},
		{"cause_rates", func() int { return len(s.CauseRates(Query{Cell: "fdd"}, 60*sim.Minute)) }},
		{"similar_k5", func() int { return len(s.Similar(probe, Query{}, 5)) }},
		{"fired", func() int {
			// The oldest session: the far end of a backwards walk.
			if _, ok := s.Fired(recs[0].Session); ok {
				return 1
			}
			return 0
		}},
	} {
		b.Run(read.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows += read.rows()
			}
			if rows == 0 {
				b.Fatal("benchmark read matched nothing")
			}
		})
	}
}

// BenchmarkRCAStoreJournalAppend measures the write-ahead journal's
// append path at the default group-commit batch (SyncEvery 64):
// interning + frame encode + batched fsync, the per-report durability
// tax dominod pays on session completion.
func BenchmarkRCAStoreJournalAppend(b *testing.B) {
	recs := synthRecords(256)
	j, err := OpenJournal(b.TempDir()+"/bench.wal", JournalOptions{SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkRCAStoreJournalReplay measures cold-start recovery: CRC
// verify + frame decode + dedup-check + insert for a 4096-record journal with
// no checkpoint, the worst-case restart cost per record.
func BenchmarkRCAStoreJournalReplay(b *testing.B) {
	recs := synthRecords(4096)
	dir := b.TempDir()
	jpath := dir + "/bench.wal"
	j, err := OpenJournal(jpath, JournalOptions{SyncEvery: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, j2, stats, err := Recover(dir+"/none.ckpt", jpath, Options{BlockRows: 256}, JournalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		j2.Close()
		if stats.Replayed == 0 || st.Len() == 0 {
			b.Fatal("replay recovered nothing")
		}
	}
	b.ReportMetric(float64(b.N*len(recs))/b.Elapsed().Seconds(), "records/s")
}
