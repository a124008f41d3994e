// Package trace defines the cross-layer telemetry model that Domino
// consumes: the record schemas mirror the paper's six data sources
// (NR-Scope DCI telemetry, gNB logs, packet captures at both clients,
// and the instrumented WebRTC client's 50 ms statistics), plus the
// merged TraceSet container and its JSONL and binary serializations.
package trace

import (
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// DCIRecord is one decoded scheduling event, as NR-Scope reports:
// per-slot PRB allocations for the experiment UE and aggregate
// other-UE (cross-traffic) allocations, the selected MCS, and the
// transport block size.
type DCIRecord struct {
	At        sim.Time
	Dir       netem.Direction
	RNTI      uint32
	OwnPRB    int
	OtherPRB  int
	MCS       int
	TBSBits   int
	UsedBits  int
	HARQRetx  bool // this TB is a HARQ retransmission
	RLCRetx   bool // this TB carries RLC-retransmitted segments
	Proactive bool // granted without a BSR
	Unused    bool // grant went (partly) unfilled
}

// GNBLogKind classifies gNB log entries (available on private cells
// only, matching the paper: commercial cells expose no RLC info).
type GNBLogKind int

// gNB log entry kinds.
const (
	GNBLogRLCBuffer GNBLogKind = iota
	GNBLogRLCRetx
	GNBLogRRC
)

// GNBLogRecord is one base-station log line.
type GNBLogRecord struct {
	At   sim.Time
	Kind GNBLogKind
	Dir  netem.Direction
	// BufferBytes is the RLC buffer occupancy (GNBLogRLCBuffer).
	BufferBytes int
	// RNTI is the UE identity after an RRC transition (GNBLogRRC).
	RNTI uint32
	// Note is a free-form detail field.
	Note string
}

// PacketRecord is one captured datagram with both endpoint timestamps,
// as produced by the paper's client-side pcaps (NTP-synchronized).
type PacketRecord struct {
	Seq     uint64
	Kind    netem.MediaKind
	Dir     netem.Direction
	Size    int
	SentAt  sim.Time
	Arrived sim.Time
}

// Delay returns the one-way delay.
func (p PacketRecord) Delay() sim.Time { return p.Arrived - p.SentAt }

// GCCState is the congestion controller's bandwidth-usage assessment.
type GCCState int

// GCC network states.
const (
	GCCNormal GCCState = iota
	GCCOveruse
	GCCUnderuse
)

// String implements fmt.Stringer.
func (s GCCState) String() string {
	switch s {
	case GCCOveruse:
		return "overuse"
	case GCCUnderuse:
		return "underuse"
	default:
		return "normal"
	}
}

// WebRTCStatsRecord is one 50 ms sample from the instrumented client:
// playback quality, jitter-buffer state, and GCC internals. Fields
// cover every variable the paper's event conditions (Table 5) test.
type WebRTCStatsRecord struct {
	At sim.Time
	// Side identifies the reporting client: "local" is the cellular
	// client, "remote" the wired one.
	Local bool

	// Playback / media.
	InboundFPS       float64
	OutboundFPS      float64
	OutboundHeight   int // resolution (lines): 180/360/540/720/1080
	InboundHeight    int
	VideoJBDelayMs   float64 // current video jitter-buffer delay
	AudioJBDelayMs   float64
	MinJBDelayMs     float64 // minimum (target) jitter-buffer delay
	FrozenNow        bool
	FreezeTotalMs    float64
	ConcealedSamples uint64
	TotalSamples     uint64

	// GCC internals.
	TargetBitrateBps   float64
	PushbackRateBps    float64
	OutstandingBytes   int
	CongestionWindow   int
	GCCNetState        GCCState
	TrendlineSlope     float64
	TrendlineThreshold float64
	AckedBitrateBps    float64
}

// RRCRecord is one RRC state transition as seen in telemetry.
type RRCRecord struct {
	At        sim.Time
	Connected bool
	RNTI      uint32
	Cause     string
}
