package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/domino5g/domino/internal/sim"
)

// The on-disk trace format is JSON Lines: a header line followed by one
// line per record, each tagged with its record type. The format is
// deliberately simple so that captures from real tooling (NR-Scope
// exports, pcap digests, WebRTC stats dumps) can be converted into it
// with a few lines of scripting — this is the ingestion boundary where
// Domino would meet real telemetry.
//
// Records are written merged in timestamp order (stable within each
// source, ties broken by source: DCI, gNB, packet, stats, RRC), so a
// written trace is directly consumable by a streaming analyzer with
// O(window) buffering — the file replays like the live session did.

type jsonLine struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// jsonHeader is Header with the header line's keys: the two convert.
type jsonHeader struct {
	CellName string `json:"cell_name"`
	// Scenario is omitted when empty so pre-scenario traces round-trip
	// byte-identically.
	Scenario  string   `json:"scenario,omitempty"`
	Duration  sim.Time `json:"duration_us"`
	HasGNBLog bool     `json:"has_gnb_log"`
}

// forEachMerged yields every record of the set (header excluded) in
// the canonical emission order shared by WriteJSONL and WriteBinary:
// merged by timestamp, stable within each source, ties broken by
// source order (DCI, gNB, packet, stats, RRC). The yielded Records
// point into the set; the set itself is never mutated.
func forEachMerged(set *Set, fn func(Record) error) error {
	// Per-source stable orderings by the same keys Set.Sort uses,
	// computed on index slices so the set itself stays untouched.
	order := func(n int, at func(i int) sim.Time) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return at(idx[a]) < at(idx[b]) })
		return idx
	}
	sources := []struct {
		idx []int
		at  func(i int) sim.Time
		rec func(i int) Record
	}{
		{order(len(set.DCI), func(i int) sim.Time { return set.DCI[i].At }),
			func(i int) sim.Time { return set.DCI[i].At },
			func(i int) Record { return Record{DCI: &set.DCI[i]} }},
		{order(len(set.GNBLogs), func(i int) sim.Time { return set.GNBLogs[i].At }),
			func(i int) sim.Time { return set.GNBLogs[i].At },
			func(i int) Record { return Record{GNB: &set.GNBLogs[i]} }},
		{order(len(set.Packets), func(i int) sim.Time { return set.Packets[i].SentAt }),
			func(i int) sim.Time { return set.Packets[i].SentAt },
			func(i int) Record { return Record{Packet: &set.Packets[i]} }},
		{order(len(set.Stats), func(i int) sim.Time { return set.Stats[i].At }),
			func(i int) sim.Time { return set.Stats[i].At },
			func(i int) Record { return Record{Stats: &set.Stats[i]} }},
		{order(len(set.RRC), func(i int) sim.Time { return set.RRC[i].At }),
			func(i int) sim.Time { return set.RRC[i].At },
			func(i int) Record { return Record{RRC: &set.RRC[i]} }},
	}
	pos := make([]int, len(sources))
	for {
		best, bestAt := -1, sim.MaxTime
		for s := range sources {
			if pos[s] >= len(sources[s].idx) {
				continue
			}
			at := sources[s].at(sources[s].idx[pos[s]])
			if best == -1 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best == -1 {
			return nil
		}
		if err := fn(sources[best].rec(sources[best].idx[pos[best]])); err != nil {
			return err
		}
		pos[best]++
	}
}

// WriteJSONL serializes the set: a header line, then every record in
// timestamp order. The caller's set is not mutated. Lines are built by
// the append encoder in codec.go — byte-identical to the
// reflection-based encoding it replaced (codec_test.go pins that
// against the encoding/json oracle) with zero allocations per record.
func WriteJSONL(w io.Writer, set *Set) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 1024)
	line := func(rec Record) (err error) {
		if buf, err = appendLine(buf[:0], rec); err != nil {
			return err
		}
		buf = append(buf, '\n')
		_, err = bw.Write(buf)
		return err
	}
	if err := line(Record{Header: &Header{CellName: set.CellName, Scenario: set.Scenario, Duration: set.Duration, HasGNBLog: set.HasGNBLog}}); err != nil {
		return err
	}
	if err := forEachMerged(set, line); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadAuto deserializes a set from either trace encoding, sniffing the
// binary magic the way NewAutoStreamReader does: the whole stream is
// drained into a sorted Set. A stream whose first record is not a
// header fails immediately — a missing header means the input is not a
// trace, and draining gigabytes before saying so helps nobody.
func ReadAuto(r io.Reader) (*Set, error) {
	sr := NewAutoStreamReader(r)
	sr.Recycle(1) // readSet copies every row out before it reads on
	return readSet(sr)
}

// readSet drains any record stream into a sorted Set, enforcing the
// header-first contract shared by both encodings.
func readSet(sr RecordReader) (*Set, error) {
	set := &Set{}
	for {
		batch, err := sr.ReadBatch(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if _, ok := sr.Header(); !ok { // the first batch was not the header's
			return nil, fmt.Errorf("trace: missing header line")
		}
		for _, rec := range batch {
			switch {
			case rec.Header != nil:
				set.CellName = rec.Header.CellName
				set.Scenario = rec.Header.Scenario
				set.Duration = rec.Header.Duration
				set.HasGNBLog = rec.Header.HasGNBLog
			case rec.DCI != nil:
				set.DCI = append(set.DCI, *rec.DCI)
			case rec.GNB != nil:
				set.GNBLogs = append(set.GNBLogs, *rec.GNB)
			case rec.Packet != nil:
				set.Packets = append(set.Packets, *rec.Packet)
			case rec.Stats != nil:
				set.Stats = append(set.Stats, *rec.Stats)
			case rec.RRC != nil:
				set.RRC = append(set.RRC, *rec.RRC)
			}
		}
	}
	if _, ok := sr.Header(); !ok {
		return nil, fmt.Errorf("trace: missing header line")
	}
	set.Sort()
	return set, nil
}
