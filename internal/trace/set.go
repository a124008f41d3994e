package trace

import (
	"fmt"
	"sort"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// Set is a merged cross-layer trace: everything Domino needs to analyze
// one session. Collectors append during simulation; Sort fixes ordering
// before analysis.
type Set struct {
	// Meta describes the capture.
	CellName string
	// Scenario names the registered scenario that generated the trace
	// (empty for plain preset captures and external telemetry), so
	// downstream reports stay labeled with the workload that produced
	// them.
	Scenario string
	Duration sim.Time

	DCI     []DCIRecord
	GNBLogs []GNBLogRecord
	Packets []PacketRecord
	Stats   []WebRTCStatsRecord
	RRC     []RRCRecord

	// HasGNBLog mirrors the paper's data availability: commercial
	// cells expose no RLC-layer information, so RLC-retx detection is
	// disabled on them.
	HasGNBLog bool
}

// Sort orders every series by timestamp. Analysis assumes sorted input.
// Collectors append in simulation-time order, so each series is checked
// with one linear scan first and the O(n log n) stable sort only runs
// on series that actually need it (imported external telemetry).
func (s *Set) Sort() {
	if !sortedBy(len(s.DCI), func(i int) sim.Time { return s.DCI[i].At }) {
		sort.SliceStable(s.DCI, func(i, j int) bool { return s.DCI[i].At < s.DCI[j].At })
	}
	if !sortedBy(len(s.GNBLogs), func(i int) sim.Time { return s.GNBLogs[i].At }) {
		sort.SliceStable(s.GNBLogs, func(i, j int) bool { return s.GNBLogs[i].At < s.GNBLogs[j].At })
	}
	if !sortedBy(len(s.Packets), func(i int) sim.Time { return s.Packets[i].SentAt }) {
		sort.SliceStable(s.Packets, func(i, j int) bool { return s.Packets[i].SentAt < s.Packets[j].SentAt })
	}
	if !sortedBy(len(s.Stats), func(i int) sim.Time { return s.Stats[i].At }) {
		sort.SliceStable(s.Stats, func(i, j int) bool { return s.Stats[i].At < s.Stats[j].At })
	}
	if !sortedBy(len(s.RRC), func(i int) sim.Time { return s.RRC[i].At }) {
		sort.SliceStable(s.RRC, func(i, j int) bool { return s.RRC[i].At < s.RRC[j].At })
	}
}

// sortedBy reports whether the series is already in nondecreasing
// timestamp order.
func sortedBy(n int, at func(int) sim.Time) bool {
	for i := 1; i < n; i++ {
		if at(i) < at(i-1) {
			return false
		}
	}
	return true
}

// EventCounts summarizes record volumes (the Table 1 "event rate"
// columns).
type EventCounts struct {
	DCI     int
	GNBLog  int
	Packets int
	WebRTC  int
}

// Counts returns record counts per source.
func (s *Set) Counts() EventCounts {
	return EventCounts{DCI: len(s.DCI), GNBLog: len(s.GNBLogs), Packets: len(s.Packets), WebRTC: len(s.Stats)}
}

// RatePerMinute converts a count into a per-minute event rate over the
// set's duration.
func (s *Set) RatePerMinute(count int) float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(count) / s.Duration.Seconds() * 60
}

// PacketDelays returns the one-way delay series (ms) for packets of the
// given direction and kinds, ordered by send time.
func (s *Set) PacketDelays(dir netem.Direction, kinds ...netem.MediaKind) []float64 {
	match := func(k netem.MediaKind) bool {
		if len(kinds) == 0 {
			return true
		}
		for _, kk := range kinds {
			if k == kk {
				return true
			}
		}
		return false
	}
	var out []float64
	for _, p := range s.Packets {
		if p.Dir == dir && match(p.Kind) {
			out = append(out, p.Delay().Milliseconds())
		}
	}
	return out
}

// StatsSide returns the stats series for one client.
func (s *Set) StatsSide(local bool) []WebRTCStatsRecord {
	var out []WebRTCStatsRecord
	for _, r := range s.Stats {
		if r.Local == local {
			out = append(out, r)
		}
	}
	return out
}

// Validate performs consistency checks a downstream consumer relies on:
// sorted DCI and stats series, and sane timestamps — none before time 0,
// where window analysis starts, as the streaming path also requires. It
// returns the first problem found.
func (s *Set) Validate() error {
	for _, series := range []struct {
		name   string
		n      int
		at     func(int) sim.Time
		sorted bool // order checked too
	}{
		{"DCI", len(s.DCI), func(i int) sim.Time { return s.DCI[i].At }, true},
		{"gNB log", len(s.GNBLogs), func(i int) sim.Time { return s.GNBLogs[i].At }, false},
		{"packet", len(s.Packets), func(i int) sim.Time { return s.Packets[i].SentAt }, false},
		{"stats", len(s.Stats), func(i int) sim.Time { return s.Stats[i].At }, true},
		{"RRC", len(s.RRC), func(i int) sim.Time { return s.RRC[i].At }, false},
	} {
		for i := 0; i < series.n; i++ {
			switch at := series.at(i); {
			case at < 0:
				return fmt.Errorf("trace: %s record %d has negative timestamp %v", series.name, i, at)
			case series.sorted && i > 0 && at < series.at(i-1):
				return fmt.Errorf("trace: %s records unsorted at index %d", series.name, i)
			}
		}
	}
	for i, p := range s.Packets {
		if p.Arrived < p.SentAt {
			return fmt.Errorf("trace: packet %d arrives before it is sent", i)
		}
	}
	if s.Duration < 0 {
		return fmt.Errorf("trace: negative duration")
	}
	return nil
}

// Collector implements the observer interfaces of the RAN and RTC
// layers and accumulates a Set.
type Collector struct {
	Set Set
}

// NewCollector returns a collector for the named cell.
func NewCollector(cellName string, hasGNBLog bool) *Collector {
	return &Collector{Set: Set{CellName: cellName, HasGNBLog: hasGNBLog}}
}

// Reserve pre-sizes the record slices for an expected record volume, so
// a session of known duration does not pay repeated grow-and-copy cycles
// while collecting millions of records. Estimates may be rough: a low
// estimate just falls back to normal slice growth, a zero is ignored.
func (c *Collector) Reserve(dci, gnb, pkts, stats, rrc int) {
	s := &c.Set
	if dci > cap(s.DCI) {
		s.DCI = append(make([]DCIRecord, 0, dci), s.DCI...)
	}
	if gnb > cap(s.GNBLogs) && s.HasGNBLog {
		s.GNBLogs = append(make([]GNBLogRecord, 0, gnb), s.GNBLogs...)
	}
	if pkts > cap(s.Packets) {
		s.Packets = append(make([]PacketRecord, 0, pkts), s.Packets...)
	}
	if stats > cap(s.Stats) {
		s.Stats = append(make([]WebRTCStatsRecord, 0, stats), s.Stats...)
	}
	if rrc > cap(s.RRC) {
		s.RRC = append(make([]RRCRecord, 0, rrc), s.RRC...)
	}
}

// OnDCI records a scheduling event.
func (c *Collector) OnDCI(r DCIRecord) { c.Set.DCI = append(c.Set.DCI, r) }

// OnGNBLog records a base-station log line.
func (c *Collector) OnGNBLog(r GNBLogRecord) {
	if c.Set.HasGNBLog {
		c.Set.GNBLogs = append(c.Set.GNBLogs, r)
	}
}

// OnPacket records a delivered packet.
func (c *Collector) OnPacket(r PacketRecord) { c.Set.Packets = append(c.Set.Packets, r) }

// OnStats records a WebRTC stats sample.
func (c *Collector) OnStats(r WebRTCStatsRecord) { c.Set.Stats = append(c.Set.Stats, r) }

// OnRRC records an RRC transition.
func (c *Collector) OnRRC(r RRCRecord) { c.Set.RRC = append(c.Set.RRC, r) }
