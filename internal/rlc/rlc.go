// Package rlc implements a 5G Radio Link Control acknowledged-mode
// (AM) entity pair: transmit-side segmentation of IP packets (SDUs)
// into transport-block-sized PDU segments with ARQ retransmission, and
// receive-side reassembly with strict in-order delivery.
//
// Two behaviours matter for the paper's causal chains and are modeled
// faithfully:
//
//   - Buffer build-up: packets queue in the TX entity whenever the
//     application sends faster than the PHY drains (Fig. 12), and the
//     buffer occupancy feeds the MAC's buffer status reports.
//   - Head-of-line blocking: in-order delivery holds back every
//     later SDU while an RLC retransmission is outstanding, releasing
//     them in a burst when the missing segment finally arrives
//     (Fig. 15c / Fig. 18).
package rlc

import (
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// SegmentHeaderBytes is the per-segment RLC+MAC subheader overhead.
const SegmentHeaderBytes = 5

// SDU is one upper-layer packet queued for transmission.
type SDU struct {
	SN     uint32
	Packet *netem.Packet
	// EnqueuedAt is when the SDU entered the RLC buffer; the paper's
	// one-way delay includes this queueing time.
	EnqueuedAt sim.Time
}

// Segment is a contiguous byte range of one SDU carried in a transport
// block. Segments are the unit of HARQ/ARQ bookkeeping.
type Segment struct {
	SDU    *SDU
	Offset int
	Length int
	Last   bool // true if this segment ends the SDU
	// RLCRetx marks a segment retransmitted by the RLC layer after
	// HARQ exhaustion (telemetry surfaces this as an RLC-retx event).
	RLCRetx bool
}

// TxEntity is the sender side of an RLC AM bearer.
type TxEntity struct {
	nextSN uint32

	// queue holds SDUs not yet fully (first-)transmitted, in order.
	queue []*SDU
	// cursor is the byte offset into queue[0] already segmented.
	cursor int

	// retx holds segments awaiting retransmission, FIFO, each eligible
	// at a time that models the RLC status-report round trip.
	retx []retxSegment

	// bufferedNew tracks bytes of queued SDUs not yet transmitted.
	bufferedNew int
	// bufferedRetx tracks payload bytes awaiting retransmission.
	bufferedRetx int

	// RetxCount counts RLC retransmission events (for gNB-log telemetry).
	RetxCount uint64
}

type retxSegment struct {
	seg        Segment
	eligibleAt sim.Time
}

// NewTxEntity returns an empty transmit entity.
func NewTxEntity() *TxEntity { return &TxEntity{} }

// Enqueue appends a packet to the transmission buffer at time now.
func (tx *TxEntity) Enqueue(p *netem.Packet, now sim.Time) {
	sdu := &SDU{SN: tx.nextSN, Packet: p, EnqueuedAt: now}
	tx.nextSN++
	tx.queue = append(tx.queue, sdu)
	tx.bufferedNew += p.Size
}

// BufferedBytes returns the total bytes awaiting first transmission or
// retransmission, including per-PDU header overhead — the quantity
// reported in BSRs and logged by the gNB (Fig. 12's "BSR" subplot).
// Counting headers matters: grants sized to a headerless estimate
// would strand the tail of every SDU.
func (tx *TxEntity) BufferedBytes() int {
	return tx.bufferedNew + tx.bufferedRetx +
		(len(tx.queue)+len(tx.retx))*SegmentHeaderBytes
}

// HasEligibleRetx reports whether a retransmission is ready at now.
func (tx *TxEntity) HasEligibleRetx(now sim.Time) bool {
	for _, r := range tx.retx {
		if r.eligibleAt <= now {
			return true
		}
	}
	return false
}

// FillTBInto segments up to capacityBytes of buffered data into PDU
// segments for one transport block, eligible retransmissions first
// (matching gNB scheduler priority), appending them to buf (which the
// caller typically recycles from a concluded transport block, so the
// steady-state slot loop segments without allocating). It returns the
// segments and the payload bytes consumed including per-segment header
// overhead.
func (tx *TxEntity) FillTBInto(buf []Segment, capacityBytes int, now sim.Time) (segs []Segment, used int) {
	segs = buf
	// Retransmissions first.
	kept := tx.retx[:0]
	for i, r := range tx.retx {
		need := r.seg.Length + SegmentHeaderBytes
		if r.eligibleAt <= now && capacityBytes-used >= need {
			seg := r.seg
			seg.RLCRetx = true
			segs = append(segs, seg)
			used += need
			tx.bufferedRetx -= r.seg.Length
		} else {
			kept = append(kept, tx.retx[i])
		}
	}
	tx.retx = kept

	// Then new data, segmenting across SDU boundaries.
	for len(tx.queue) > 0 {
		room := capacityBytes - used - SegmentHeaderBytes
		if room <= 0 {
			break
		}
		sdu := tx.queue[0]
		remaining := sdu.Packet.Size - tx.cursor
		take := remaining
		if take > room {
			take = room
		}
		seg := Segment{SDU: sdu, Offset: tx.cursor, Length: take, Last: tx.cursor+take == sdu.Packet.Size}
		segs = append(segs, seg)
		used += take + SegmentHeaderBytes
		tx.cursor += take
		tx.bufferedNew -= take
		if seg.Last {
			tx.queue = tx.queue[1:]
			tx.cursor = 0
		}
	}
	return segs, used
}

// Nack returns segments to the retransmission queue after the MAC
// exhausted HARQ. eligibleAt models the status-report round trip before
// the RLC transmitter learns of the loss.
func (tx *TxEntity) Nack(segs []Segment, eligibleAt sim.Time) {
	for _, s := range segs {
		tx.retx = append(tx.retx, retxSegment{seg: s, eligibleAt: eligibleAt})
		tx.bufferedRetx += s.Length
		tx.RetxCount++
	}
}

// DeliveredPacket is an in-order reassembled SDU handed to the upper
// layer with its delivery time.
type DeliveredPacket struct {
	Packet *netem.Packet
	At     sim.Time
	// HoLReleased marks packets that were complete earlier but held by
	// in-order delivery behind a missing SN (Fig. 18's burst release).
	HoLReleased bool
}

// RxEntity is the receiver side of an RLC AM bearer. It reassembles
// segments and delivers SDUs strictly in SN order. Reassembly state
// lives in a ring-buffer window indexed by SN offset from nextSN — the
// hot path touches no maps and allocates nothing once the window has
// grown to the bearer's in-flight depth.
type RxEntity struct {
	deliver func(DeliveredPacket)

	nextSN uint32
	// win is the reassembly ring: the state for SN nextSN+k lives at
	// win[(head+k) & (len(win)-1)]. len(win) is always a power of two.
	win  []rxSDU
	head int

	// HoLBlockedMax tracks the maximum burst released at once, a
	// diagnostic for head-of-line blocking severity.
	HoLBlockedMax int
}

type rxSDU struct {
	sdu        *SDU
	received   int
	total      int
	active     bool
	complete   bool
	completeAt sim.Time
}

// NewRxEntity returns a receive entity delivering into the callback.
func NewRxEntity(deliver func(DeliveredPacket)) *RxEntity {
	return &RxEntity{deliver: deliver}
}

// slot returns the ring entry for SN nextSN+k, growing the window as
// needed (doubling keeps the masked indexing valid).
func (rx *RxEntity) slot(k uint32) *rxSDU {
	if len(rx.win) == 0 || int(k) >= len(rx.win) {
		size := 16
		for size <= int(k) {
			size *= 2
		}
		grown := make([]rxSDU, size)
		for i := range rx.win {
			grown[i] = rx.win[(rx.head+i)&(len(rx.win)-1)]
		}
		rx.win = grown
		rx.head = 0
	}
	return &rx.win[(rx.head+int(k))&(len(rx.win)-1)]
}

// Receive processes decoded segments at time now, then releases every
// in-order complete SDU.
func (rx *RxEntity) Receive(segs []Segment, now sim.Time) {
	for i := range segs {
		s := &segs[i]
		if s.SDU.SN < rx.nextSN {
			continue // duplicate of an already-delivered SDU
		}
		st := rx.slot(s.SDU.SN - rx.nextSN)
		if !st.active {
			*st = rxSDU{sdu: s.SDU, total: s.SDU.Packet.Size, active: true}
		}
		if st.complete {
			continue
		}
		st.received += s.Length
		if st.received >= st.total {
			st.complete = true
			st.completeAt = now
		}
	}
	rx.release(now)
}

// release delivers consecutive complete SDUs starting at nextSN.
func (rx *RxEntity) release(now sim.Time) {
	burst := 0
	for len(rx.win) > 0 {
		st := &rx.win[rx.head]
		if !st.active || !st.complete {
			break
		}
		pkt, holdBack := st.sdu.Packet, st.completeAt < now
		*st = rxSDU{}
		rx.head = (rx.head + 1) & (len(rx.win) - 1)
		rx.nextSN++
		rx.deliver(DeliveredPacket{
			Packet:      pkt,
			At:          now,
			HoLReleased: holdBack,
		})
		burst++
	}
	if burst > rx.HoLBlockedMax {
		rx.HoLBlockedMax = burst
	}
}
