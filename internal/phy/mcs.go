package phy

import (
	"fmt"
	"math"
)

// MCS is a modulation-and-coding-scheme index (0..27 in the 64-QAM
// table of TS 38.214 Table 5.1.3.1-1, which is what the paper's cells
// use: observed MCS medians run 0..28).
type MCS int

// MaxMCS is the highest index in the 64QAM MCS table.
const MaxMCS MCS = 27

// mcsEntry is one row of TS 38.214 Table 5.1.3.1-1 (MCS index table 1
// for PDSCH): modulation order Qm and target code rate R × 1024.
type mcsEntry struct {
	qm       int     // bits per symbol (2 = QPSK, 4 = 16QAM, 6 = 64QAM)
	rate1024 float64 // target code rate × 1024
}

// mcsTable64 is TS 38.214 Table 5.1.3.1-1.
var mcsTable64 = [28]mcsEntry{
	{2, 120}, {2, 157}, {2, 193}, {2, 251}, {2, 308}, {2, 379}, {2, 449},
	{2, 526}, {2, 602}, {2, 679}, {4, 340}, {4, 378}, {4, 434}, {4, 490},
	{4, 553}, {4, 616}, {4, 658}, {6, 438}, {6, 466}, {6, 517}, {6, 567},
	{6, 616}, {6, 666}, {6, 719}, {6, 772}, {6, 822}, {6, 873}, {6, 910},
}

// Valid reports whether the MCS index is within the table.
func (m MCS) Valid() bool { return m >= 0 && m <= MaxMCS }

// ModulationOrder returns bits per modulation symbol (Qm).
func (m MCS) ModulationOrder() int {
	if !m.Valid() {
		panic(fmt.Sprintf("phy: invalid MCS %d", m))
	}
	return mcsTable64[m].qm
}

// CodeRate returns the target code rate (0..1).
func (m MCS) CodeRate() float64 {
	if !m.Valid() {
		panic(fmt.Sprintf("phy: invalid MCS %d", m))
	}
	return mcsTable64[m].rate1024 / 1024
}

// SpectralEfficiency returns information bits per resource element
// (Qm × R), the quantity that converts PRBs into transport-block bits.
func (m MCS) SpectralEfficiency() float64 {
	return float64(m.ModulationOrder()) * m.CodeRate()
}

// Modulation returns a human-readable modulation name.
func (m MCS) Modulation() string {
	switch m.ModulationOrder() {
	case 2:
		return "QPSK"
	case 4:
		return "16QAM"
	case 6:
		return "64QAM"
	default:
		return "unknown"
	}
}

// String implements fmt.Stringer.
func (m MCS) String() string {
	if !m.Valid() {
		return fmt.Sprintf("MCS(%d)", int(m))
	}
	return fmt.Sprintf("MCS%d(%s,R=%.2f)", int(m), m.Modulation(), m.CodeRate())
}

// CQI is a channel-quality indicator (0..15) as reported by the UE.
type CQI int

// cqiSNRThresholds maps CQI index i (1..15) to the approximate minimum
// SNR (dB) at which that CQI is reported, derived from the standard
// CQI table efficiencies mapped through the Shannon gap. CQI 0 means
// out of range.
var cqiSNRThresholds = [16]float64{
	-100, -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9,
	8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
}

// CQIFromSNR quantizes an SNR (dB) to the highest CQI whose threshold
// it meets.
func CQIFromSNR(snrDB float64) CQI {
	best := CQI(0)
	for i := 1; i < len(cqiSNRThresholds); i++ {
		if snrDB >= cqiSNRThresholds[i] {
			best = CQI(i)
		}
	}
	return best
}

// MCSForSNR returns the highest MCS whose ~10%-BLER operating point is
// at or below the given SNR, minus backoff. This keeps link adaptation
// consistent with the BLER model: the selected MCS has non-negative
// margin, so first-transmission BLER stays at or below the 10% target.
func MCSForSNR(snrDB float64, backoff int) MCS {
	m := MCS(0)
	for i := MaxMCS; i >= 0; i-- {
		if mcsSNRRequired[i] <= snrDB {
			m = i
			break
		}
	}
	m -= MCS(backoff)
	if m < 0 {
		m = 0
	}
	if m > MaxMCS {
		m = MaxMCS
	}
	return m
}

// MCSFromCQI returns the scheduler's MCS choice for a reported CQI,
// after applying backoff (conservative link adaptation subtracts a few
// indices; aggressive adds). The CQI is first mapped back to the lower
// edge of its SNR bin — quantization makes the selection conservative,
// as real link adaptation is.
func MCSFromCQI(cqi CQI, backoff int) MCS {
	if cqi < 0 {
		cqi = 0
	}
	if cqi > 15 {
		cqi = 15
	}
	return MCSForSNR(cqiSNRThresholds[cqi], backoff)
}

// snrRequired returns the approximate SNR (dB) at which the MCS
// achieves ~10% BLER on first transmission, the operating point link
// adaptation targets. Derived from spectral efficiency through the
// Shannon gap: SNR_dB ≈ 10·log10(2^(eff·gap) − 1).
func (m MCS) snrRequired() float64 {
	return mcsSNRRequired[m]
}

// mcsSNRRequired is precomputed for speed; see snr_table_test.go for
// the generating property.
var mcsSNRRequired = func() [28]float64 {
	var out [28]float64
	for i := range out {
		eff := MCS(i).SpectralEfficiency()
		// Inverse Shannon with a 1.6× gap-to-capacity factor:
		// eff = log2(1+snr)/1.6  =>  snr = 2^(1.6·eff) − 1.
		lin := math.Exp2(1.6*eff) - 1
		out[i] = 10 * math.Log10(lin)
	}
	return out
}()
