// Package mac models the 5G NR medium access control layer: TDD/FDD
// frame structures, the uplink request–grant scheduling loop (BSR →
// grant with cell-specific latency, plus proactive grants), per-slot
// PRB allocation under cross-traffic contention, and HARQ
// retransmission. Together with internal/rlc it produces exactly the
// delay mechanisms the paper traces: UL scheduling delay and delay
// spread (§5.2.1), HARQ retx delay (§5.2.2), and RLC retx + HoL
// blocking (§5.2.3).
package mac

import (
	"fmt"
	"strings"

	"github.com/domino5g/domino/internal/sim"
)

// SlotKind is the usable direction(s) of one slot.
type SlotKind int

// Slot kinds. Special slots (the TDD guard/switch slot) carry a small
// amount of DL plus control; we model them as DL-capable.
const (
	SlotDL SlotKind = iota
	SlotUL
	SlotSpecial
	SlotBoth // FDD: every slot carries both directions
)

// String implements fmt.Stringer.
func (k SlotKind) String() string {
	switch k {
	case SlotDL:
		return "D"
	case SlotUL:
		return "U"
	case SlotSpecial:
		return "S"
	case SlotBoth:
		return "B"
	default:
		return "?"
	}
}

// FramePattern maps absolute slot indices to slot kinds.
type FramePattern struct {
	fdd     bool
	pattern []SlotKind
}

// FDD returns the frequency-division pattern: every slot is usable in
// both directions on separate carriers.
func FDD() FramePattern { return FramePattern{fdd: true} }

// TDD parses a slot pattern string such as "DDDSU" (the common
// 30 kHz mid-band pattern: 3 downlink, 1 special, 1 uplink per 2.5 ms)
// or "DDDDDDDSUU". Panics on invalid characters so misconfigured cells
// fail loudly at construction.
func TDD(pattern string) FramePattern {
	if pattern == "" {
		panic("mac: empty TDD pattern")
	}
	slots := make([]SlotKind, 0, len(pattern))
	for _, c := range strings.ToUpper(pattern) {
		switch c {
		case 'D':
			slots = append(slots, SlotDL)
		case 'U':
			slots = append(slots, SlotUL)
		case 'S':
			slots = append(slots, SlotSpecial)
		default:
			panic(fmt.Sprintf("mac: invalid TDD pattern char %q", c))
		}
	}
	return FramePattern{pattern: slots}
}

// IsFDD reports whether the pattern is frequency-division.
func (f FramePattern) IsFDD() bool { return f.fdd }

// Kind returns the slot kind for an absolute slot index.
func (f FramePattern) Kind(slot int64) SlotKind {
	if f.fdd {
		return SlotBoth
	}
	return f.pattern[int(slot%int64(len(f.pattern)))]
}

// HasUL reports whether slot carries uplink.
func (f FramePattern) HasUL(slot int64) bool {
	k := f.Kind(slot)
	return k == SlotUL || k == SlotBoth
}

// HasDL reports whether slot carries downlink.
func (f FramePattern) HasDL(slot int64) bool {
	k := f.Kind(slot)
	return k == SlotDL || k == SlotSpecial || k == SlotBoth
}

// String renders the pattern.
func (f FramePattern) String() string {
	if f.fdd {
		return "FDD"
	}
	var b strings.Builder
	for _, k := range f.pattern {
		b.WriteString(k.String())
	}
	return b.String()
}

// SlotClock converts between simulation time and slot indices for a
// given slot duration.
type SlotClock struct {
	SlotDuration sim.Time
}

// SlotAt returns the slot index containing time t.
func (c SlotClock) SlotAt(t sim.Time) int64 { return int64(t / c.SlotDuration) }
