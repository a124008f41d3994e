// Package netem provides the network-layer plumbing of the simulator:
// the packet model shared by every layer, delay/loss path segments for
// the wired legs of a call, and the Link abstraction that lets the RAN
// and the media stack be composed into end-to-end topologies.
package netem

import (
	"fmt"

	"github.com/domino5g/domino/internal/sim"
)

// MediaKind classifies a packet's payload for jitter-buffer routing and
// per-kind statistics.
type MediaKind int

// Packet payload classes.
const (
	KindVideo MediaKind = iota
	KindAudio
	KindRTCP
	KindCross // background cross traffic (never reaches the app layer)
)

// String implements fmt.Stringer.
func (k MediaKind) String() string {
	switch k {
	case KindVideo:
		return "video"
	case KindAudio:
		return "audio"
	case KindRTCP:
		return "rtcp"
	case KindCross:
		return "cross"
	default:
		return fmt.Sprintf("MediaKind(%d)", int(k))
	}
}

// Direction is the cellular-relative direction of travel.
type Direction int

// Directions are named from the cellular client's perspective, matching
// the paper: the UL stream is sent by the 5G-attached client.
const (
	Uplink Direction = iota
	Downlink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}

// Packet is one IP datagram traversing the simulated network. The
// struct carries the cross-layer annotations the paper's capture points
// record: send/arrival timestamps (one-way delay), media framing
// (frame ID, burst position), and RTP-level sequencing.
type Packet struct {
	// Seq is a per-flow monotonically increasing sequence number.
	Seq uint64
	// Kind is the payload class.
	Kind MediaKind
	// Size is the datagram size in bytes (IP+UDP+RTP+payload).
	Size int
	// FrameID groups the video packets of one encoded frame; zero for
	// non-video packets.
	FrameID uint64
	// LastOfFrame marks the final packet of a video frame.
	LastOfFrame bool
	// KeyFrame marks packets of an intra-coded frame.
	KeyFrame bool
	// SentAt is the application send timestamp.
	SentAt sim.Time
	// ArrivedAt is the receive timestamp, set on delivery.
	ArrivedAt sim.Time
	// Payload carries opaque per-packet data (e.g. RTCP feedback
	// contents) between endpoints.
	Payload any
}

// Link is a unidirectional packet conduit. Implementations (wired
// paths, the RAN uplink/downlink) deliver packets to the sink passed at
// construction, possibly delayed, reordered, or dropped.
type Link interface {
	// Send enqueues a packet at the current simulation time.
	Send(p *Packet)
}

// Sink consumes delivered packets.
type Sink func(p *Packet)
