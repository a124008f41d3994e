package mac

import (
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/phy"
	"github.com/domino5g/domino/internal/rlc"
	"github.com/domino5g/domino/internal/sim"
)

// TB is one transport block scheduled in one slot for one direction.
// It carries RLC segments and the PHY parameters the DCI telemetry
// records.
type TB struct {
	ID       uint64
	Dir      netem.Direction
	SentAt   sim.Time
	PRBs     int
	MCS      phy.MCS
	TBSBits  int
	UsedBits int // payload actually carried (≤ TBSBits; grants can go partly unused)
	Segments []rlc.Segment

	// Attempt is the HARQ attempt number: 0 = first transmission.
	Attempt int
	// Proactive marks TBs granted without a BSR (Mosolabs-style).
	Proactive bool
	// CarriesRLCRetx marks TBs containing RLC-retransmitted segments.
	CarriesRLCRetx bool

	// decoded carries the BLER draw from Transmit to the scheduled
	// decode event, so the event needs no per-TB closure.
	decoded bool
}

// HARQConfig parameterizes the retransmission process.
type HARQConfig struct {
	// RTT is the NACK-to-retransmission turnaround (the paper measures
	// ~10 ms on the Amarisoft cell).
	RTT sim.Time
	// MaxAttempts is the transmission cap (first + retx). The paper's
	// Amarisoft cell used 4 retransmissions; 5 total attempts.
	MaxAttempts int
}

// HARQOutcome describes one concluded transport-block attempt, for
// telemetry.
type HARQOutcome struct {
	TB      *TB
	At      sim.Time
	Decoded bool
	// Exhausted is set when a failed attempt was the last allowed one,
	// escalating recovery to the RLC layer.
	Exhausted bool
}

// HARQEntity manages retransmissions for one direction of one bearer.
// The surrounding cell drives it: Transmit is called when a TB is sent;
// the entity draws the decode outcome from the BLER model, schedules
// retransmissions on the engine, and reports outcomes.
type HARQEntity struct {
	cfg    HARQConfig
	engine *sim.Engine
	rng    *sim.RNG

	// onDecoded delivers successfully decoded TBs (to RLC RX).
	onDecoded func(tb *TB, at sim.Time)
	// onExhausted hands the TB's segments back for RLC recovery.
	onExhausted func(tb *TB, at sim.Time)
	// onRetxDue asks the scheduler to resend the TB (it re-enters the
	// PRB allocation with priority at the next usable slot).
	onRetxDue func(tb *TB)
	// onOutcome observes every attempt conclusion (telemetry).
	onOutcome func(HARQOutcome)

	// decodeFn/retxFn are the ScheduleArg trampolines, built once so
	// the per-TB decode and retx-due events allocate no closures.
	decodeFn func(any)
	retxFn   func(any)

	// Stats
	FirstTx   uint64
	Retx      uint64
	Exhausted uint64
}

// NewHARQEntity constructs a HARQ entity. Any callback may be nil.
func NewHARQEntity(cfg HARQConfig, engine *sim.Engine, rng *sim.RNG,
	onDecoded func(tb *TB, at sim.Time),
	onExhausted func(tb *TB, at sim.Time),
	onRetxDue func(tb *TB),
	onOutcome func(HARQOutcome),
) *HARQEntity {
	h := &HARQEntity{
		cfg:         cfg,
		engine:      engine,
		rng:         rng.Fork(),
		onDecoded:   onDecoded,
		onExhausted: onExhausted,
		onRetxDue:   onRetxDue,
		onOutcome:   onOutcome,
	}
	h.decodeFn = func(a any) { h.decode(a.(*TB)) }
	h.retxFn = func(a any) {
		if h.onRetxDue != nil {
			h.onRetxDue(a.(*TB))
		}
	}
	return h
}

// Transmit processes a TB sent at the current time over a channel with
// the given instantaneous SNR. The decode outcome is known one slot
// later (decodeDelay); on failure a retransmission is scheduled after
// the HARQ RTT, until MaxAttempts is exhausted.
func (h *HARQEntity) Transmit(tb *TB, snrDB float64, decodeDelay sim.Time) {
	if tb.Attempt == 0 {
		h.FirstTx++
	} else {
		h.Retx++
	}
	bler := phy.BLER(tb.MCS, snrDB)
	for i := 0; i < tb.Attempt; i++ {
		bler = phy.HARQRetxBLER(bler)
	}
	tb.decoded = !h.rng.Bool(bler)
	h.engine.ScheduleArg(h.engine.Now()+decodeDelay, h.decodeFn, tb)
}

// decode concludes one attempt when its decode event fires.
func (h *HARQEntity) decode(tb *TB) {
	now := h.engine.Now()
	if tb.decoded {
		h.emit(HARQOutcome{TB: tb, At: now, Decoded: true})
		if h.onDecoded != nil {
			h.onDecoded(tb, now)
		}
		return
	}
	if tb.Attempt+1 >= h.cfg.MaxAttempts {
		h.Exhausted++
		h.emit(HARQOutcome{TB: tb, At: now, Decoded: false, Exhausted: true})
		if h.onExhausted != nil {
			h.onExhausted(tb, now)
		}
		return
	}
	h.emit(HARQOutcome{TB: tb, At: now, Decoded: false})
	tb.Attempt++
	// The retransmission becomes schedulable one HARQ RTT after the
	// original transmission; when PRB contention already delayed
	// earlier attempts past that point, it is due immediately.
	due := tb.SentAt + h.cfg.RTT*sim.Time(tb.Attempt)
	if due < now {
		due = now
	}
	h.engine.ScheduleArg(due, h.retxFn, tb)
}

func (h *HARQEntity) emit(o HARQOutcome) {
	if h.onOutcome != nil {
		h.onOutcome(o)
	}
}
