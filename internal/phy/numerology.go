// Package phy models the 5G New Radio physical layer at the resolution
// Domino needs: per-slot PRB grids, MCS/TBS link adaptation driven by a
// time-varying channel, and a BLER model that feeds HARQ.
//
// The goal is behavioural fidelity, not a full 38.211 implementation:
// the quantities the paper's telemetry exposes (PRB, MCS, TBS, retx
// flags) must move for the same reasons they move on real cells.
package phy

import (
	"fmt"

	"github.com/domino5g/domino/internal/sim"
)

// Numerology captures the 5G NR subcarrier-spacing configuration (µ).
type Numerology int

// Subcarrier spacings used by the paper's cells: the FDD low-band cell
// runs 15 kHz SCS, the TDD mid-band cells run 30 kHz.
const (
	SCS15kHz Numerology = 0 // µ=0: 1 ms slots, FDD low band
	SCS30kHz Numerology = 1 // µ=1: 0.5 ms slots, TDD mid band
)

// SlotDuration returns the slot length for the numerology.
func (n Numerology) SlotDuration() sim.Time {
	switch n {
	case SCS15kHz:
		return sim.Millisecond
	case SCS30kHz:
		return 500 * sim.Microsecond
	default:
		panic(fmt.Sprintf("phy: unsupported numerology %d", n))
	}
}

// String implements fmt.Stringer.
func (n Numerology) String() string {
	switch n {
	case SCS15kHz:
		return "15kHz"
	case SCS30kHz:
		return "30kHz"
	default:
		return fmt.Sprintf("Numerology(%d)", int(n))
	}
}

// PRBsForBandwidth returns the number of physical resource blocks in a
// carrier of the given bandwidth (MHz) at this numerology, per the
// TS 38.101-1 transmission-bandwidth tables (FR1). Values cover the
// configurations used by the paper's four cells plus common ones.
func (n Numerology) PRBsForBandwidth(mhz int) (int, error) {
	type key struct {
		scs Numerology
		mhz int
	}
	table := map[key]int{
		{SCS15kHz, 5}:   25,
		{SCS15kHz, 10}:  52,
		{SCS15kHz, 15}:  79,
		{SCS15kHz, 20}:  106,
		{SCS15kHz, 40}:  216,
		{SCS15kHz, 50}:  270,
		{SCS30kHz, 10}:  24,
		{SCS30kHz, 15}:  38,
		{SCS30kHz, 20}:  51,
		{SCS30kHz, 40}:  106,
		{SCS30kHz, 50}:  133,
		{SCS30kHz, 60}:  162,
		{SCS30kHz, 80}:  217,
		{SCS30kHz, 100}: 273,
	}
	prbs, ok := table[key{n, mhz}]
	if !ok {
		return 0, fmt.Errorf("phy: no PRB entry for %d MHz at %v SCS", mhz, n)
	}
	return prbs, nil
}

// REPerPRBData is the usable resource elements per PRB per slot after
// subtracting DMRS and control overhead, as in the TS 38.214 TBS
// procedure (N'_RE = 12 subcarriers × 14 symbols − overhead, capped at
// 156 in the spec; we fold typical PDCCH/DMRS overhead in directly).
const REPerPRBData = 132
