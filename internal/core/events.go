package core

import "github.com/domino5g/domino/internal/sim"

// evalWindow computes the 36-dim feature vector for [start, start+W)
// using the rolling aggregates: count/sum conditions read two entries
// of a cumulative array, extremum conditions read deque fronts, and
// the bin-shaped conditions read cached per-bucket aggregates. Only
// the grouped-trend conditions (events 9, 11–12) still scan their
// window span — they group by window-relative sample index, which has
// no incremental form — and they do so allocation-free.
//
// Window starts must be multiples of Step, non-decreasing across calls
// (the pattern both batch Analyze and the streaming analyzer produce);
// DetectorConfig's alignment rules then put every start on a rate-bin
// and MCS-group boundary and every end on an MCS-group boundary.
// Differential tests pin it byte-identical to a full recompute from the
// trace across every scenario.
func (ix *indexedTrace) evalWindow(start sim.Time) FeatureVector {
	cfg := &ix.cfg
	end := start + cfg.Window
	ix.advanceRoll(end)
	ix.retireRoll(start)
	v := FeatureVector{Start: start, End: end}
	r := &ix.roll

	// --- Application events, per side (events 1–10). ---
	for si := 0; si < 2; si++ {
		lo, hi := window(ix.statsAt[si], start, end)
		if hi == lo {
			continue
		}
		base := fidAppBase(si)
		c := &ix.statsCum[si]
		// 1–2: frame-rate drops (max > high before min < low).
		if extremaDrop(&r.inFPSMax[si], &r.inFPSMin[si], cfg.FPSHigh, cfg.FPSLow) {
			v.Bits.Set(base + appInFPS)
		}
		if extremaDrop(&r.outFPSMax[si], &r.outFPSMin[si], cfg.FPSHigh, cfg.FPSLow) {
			v.Bits.Set(base + appOutFPS)
		}
		// 3: outbound resolution downtrend (adjacent-pair decrease).
		if cum(c[flagResDown], lo+1, hi) > 0 {
			v.Bits.Set(base + appResDown)
		}
		// 4: jitter buffer drains to zero, strictly after the window's
		// first sample time.
		if cum(c[flagDrain], lo, hi) > 0 {
			j := lo
			for j < hi && ix.statsAt[si][j] == ix.statsAt[si][lo] {
				j++
			}
			if cum(c[flagDrain], j, hi) > 0 {
				v.Bits.Set(base + appJBDrain)
			}
		}
		// 5: target bitrate downtrend.
		if cum(c[flagTargetDrop], lo+1, hi) > 0 {
			v.Bits.Set(base + appTargetDown)
		}
		// 6: GCC overuse entry.
		if cum(c[flagOveruse], lo, hi) > 0 {
			v.Bits.Set(base + appOveruse)
		}
		// 7: pushback rate downtrend.
		if cum(c[flagPushDrop], lo+1, hi) > 0 {
			v.Bits.Set(base + appPushDown)
		}
		// 8: congestion window full.
		if cum(c[flagCwndFull], lo, hi) > 0 {
			v.Bits.Set(base + appCwndFull)
		}
		// 9: windowed outstanding-bytes uptrend.
		if ix.outstandingUptrend(si, lo, hi, cfg.TrendGroup) {
			v.Bits.Set(base + appOutstanding)
		}
		// 10: pushback unequal to target.
		if cum(c[flagPushNeq], lo, hi) > 0 {
			v.Bits.Set(base + appPushNeq)
		}
	}

	// --- Path delay events (11–12). ---
	if ix.delayUptrendRolling(ix.fwdAt, ix.fwdDelay, ix.fwdCumHigh, start, end) {
		v.Bits.Set(fidFwdDelay)
	}
	if ix.delayUptrendRolling(ix.revAt, ix.revDelay, ix.revCumHigh, start, end) {
		v.Bits.Set(fidRevDelay)
	}

	// --- 5G events per direction (13–18). ---
	var dciLo [2]int
	var dciHi [2]int
	for di := 0; di < 2; di++ {
		lo, hi := window(ix.dciAt[di], start, end)
		dciLo[di], dciHi[di] = lo, hi
		base := fidCellBase(di)

		// 13: allocated TBS drop (min < frac × max, max before min).
		if extremaDropFrac(&r.tbsMax[di], &r.tbsMin[di], cfg.TBSDropFrac) {
			v.Bits.Set(base + cellTBSDown)
		}
		// 14: app bitrate exceeds allocated TBS for >10% of the window.
		if ix.rateExceedsRolling(di, start, end) {
			v.Bits.Set(base + cellRateExceeds)
		}
		// 15: cross traffic.
		sumOwn := cum(ix.dciCumOwn[di], lo, hi)
		sumOther := cum(ix.dciCumOther[di], lo, hi)
		if sumOther > 0 && float64(sumOther) > cfg.CrossFrac*float64(max(sumOwn, 1)) {
			v.Bits.Set(base + cellCross)
		}
		// 16: channel degradation from grouped MCS statistics.
		if ix.mcsDegradedRolling(di, start, end) {
			v.Bits.Set(base + cellChanDegrade)
		}
		// 17: HARQ retransmissions.
		if int(cum(ix.dciCumHARQ[di], lo, hi)) > cfg.HARQCount {
			v.Bits.Set(base + cellHARQ)
		}
		// 18: RLC retransmission (gNB log or DCI flag).
		rlo, rhi := window(ix.rlcAt[di], start, end)
		if rhi > rlo {
			v.Bits.Set(base + cellRLC)
		}
	}

	// 19: uplink scheduling — any own uplink transmission in window.
	if cum(ix.dciCumULUse[0], dciLo[0], dciHi[0]) > 0 {
		v.Bits.Set(fidULSched)
	}
	// 20: RRC state change (RNTI change).
	rlo, rhi := window(ix.rrcAt, start, end)
	if rhi > rlo {
		v.Bits.Set(fidRRC)
	}

	return v
}

// extremaDrop implements events 1–2 over the rolling deques: window
// max above high, min below low, and the (earliest) max attained
// before the (earliest) min.
func extremaDrop(maxD, minD *extrema, high, low float64) bool {
	if maxD.empty() {
		return false
	}
	maxSeq, maxV := maxD.front()
	minSeq, minV := minD.front()
	return maxV > high && minV < low && maxSeq < minSeq
}

// extremaDropFrac implements event 13 over the rolling deques (nonzero
// TBS samples only): min < frac × max with the max attained first.
func extremaDropFrac(maxD, minD *extrema, frac float64) bool {
	if maxD.empty() {
		return false
	}
	maxSeq, maxV := maxD.front()
	minSeq, minV := minD.front()
	return minV < frac*maxV && maxSeq < minSeq
}

// groupUptrendAt is the one implementation of the Appendix-D
// grouped-mean uptrend: split the cnt window samples
// starting at index lo into groups of n, summing sample k via get,
// and report any consecutive group-mean increase. The callback does
// not escape, so the scan allocates nothing.
func groupUptrendAt(lo, cnt, n int, get func(int) float64) bool {
	if n <= 0 || cnt < 2*n {
		return false
	}
	prev := 0.0
	for g := 0; g+n <= cnt; g += n {
		var s float64
		for k := lo + g; k < lo+g+n; k++ {
			s += get(k)
		}
		m := s / float64(n)
		if g > 0 && m > prev {
			return true
		}
		prev = m
	}
	return false
}

// outstandingUptrend implements event 9: grouped-mean uptrend over the
// window's outstanding-bytes samples, grouped by window-relative index.
func (ix *indexedTrace) outstandingUptrend(si, lo, hi, n int) bool {
	recs := ix.stats[si]
	return groupUptrendAt(lo, hi-lo, n, func(k int) float64 { return float64(recs[k].OutstandingBytes) })
}

// delayUptrendRolling implements events 11–12: the above-threshold
// gate reads the cumulative count; only windows that pass it (and hold
// enough samples) pay for the grouped-mean scan.
func (ix *indexedTrace) delayUptrendRolling(at []sim.Time, delay []float64, cumHigh []int32, start, end sim.Time) bool {
	n := ix.cfg.TrendGroup
	lo, hi := window(at, start, end)
	if hi-lo < 2*n {
		return false
	}
	if cum(cumHigh, lo, hi) == 0 {
		return false
	}
	return groupUptrendAt(lo, hi-lo, n, func(k int) float64 { return delay[k] })
}

// rateExceedsRolling implements event 14 over the cached per-bin sums
// of the window's whole bins (its start is bin-aligned).
func (ix *indexedTrace) rateExceedsRolling(di int, start, end sim.Time) bool {
	cfg := &ix.cfg
	bins := int((end - start) / cfg.RateBin)
	if bins == 0 {
		return false
	}
	appLo, appHi := window(ix.appAt[di], start, end)
	if appHi == appLo {
		return false
	}
	base := int64(start / cfg.RateBin)
	exceed := 0
	for b := 0; b < bins; b++ {
		if sum(&ix.roll.rateApp[di], base+int64(b)) > sum(&ix.roll.rateTBS[di], base+int64(b)) {
			exceed++
		}
	}
	return float64(exceed) > cfg.RateExceedFrac*float64(bins)
}

// mcsDegradedRolling implements event 16 over the cached per-bucket
// medians (both window edges are bucket-aligned, so every bucket it
// reads is complete). A median is an MCS value, so the window's 90th
// percentile over them is read from their counts too.
func (ix *indexedTrace) mcsDegradedRolling(di int, start, end sim.Time) bool {
	cfg := &ix.cfg
	first := int64(start / cfg.MCSGroup)
	last := int64((end - 1) / cfg.MCSGroup)
	var medians [mcsLevels]int
	groups, low := 0, 0
	for b := first; b <= last; b++ {
		m, n := mcsMedian(&ix.roll.mcs[di], b)
		if n == 0 {
			continue
		}
		medians[m]++
		groups++
		if float64(m) < cfg.MCSMedianBelow {
			low++
		}
	}
	if groups == 0 {
		return false
	}
	p90 := rankValue(&medians, int(0.90*float64(groups-1)))
	return float64(p90) < cfg.MCSP90Below && low > cfg.MCSLowCount
}
