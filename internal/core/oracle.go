package core

import (
	"sort"

	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// This file is the full-recompute window evaluator: the O(window)
// implementation of the twenty Table 5 event conditions. It serves two
// purposes. Production analysis falls back to its two bin-shaped
// conditions (rateExceedsFull, mcsDegradedFull) whenever a window
// geometry is not aligned to RateBin or MCSGroup, where the rolling
// engine in events.go has no cached buckets to read. And the whole of
// it is the differential oracle that engine is tested against. Unlike
// evalWindow it reads only the raw series, carries no cross-call
// state, and may be called for any window position in any order.

// evalWindowFull computes the feature vector for [start, start+W) by
// re-aggregating every sample in the window. Only tests call it whole;
// it stays beside the two conditions production falls back to because
// it is built from them.
func (ix *indexedTrace) evalWindowFull(cfg DetectorConfig, start sim.Time) FeatureVector {
	end := start + cfg.Window
	v := FeatureVector{Start: start, End: end}

	// --- Application events, per side (events 1–10). ---
	for si := 0; si < 2; si++ {
		lo, hi := window(ix.statsAt[si], start, end)
		recs := ix.stats[si][lo:hi]
		if len(recs) == 0 {
			continue
		}
		base := fidAppBase(si)
		// 1–2: frame-rate drops (max > high before min < low).
		v.Bits.Assign(base+appInFPS, fpsDrop(recs, cfg, func(r int) float64 { return recs[r].InboundFPS }))
		v.Bits.Assign(base+appOutFPS, fpsDrop(recs, cfg, func(r int) float64 { return recs[r].OutboundFPS }))
		// 3: outbound resolution downtrend.
		for i := 1; i < len(recs); i++ {
			if recs[i].OutboundHeight < recs[i-1].OutboundHeight {
				v.Bits.Set(base + appResDown)
				break
			}
		}
		// 4: jitter buffer drains to zero.
		for i := range recs {
			if recs[i].VideoJBDelayMs <= cfg.JBDrainMs && recs[i].At > recs[0].At {
				v.Bits.Set(base + appJBDrain)
				break
			}
		}
		// 5: target bitrate downtrend.
		v.Bits.Assign(base+appTargetDown, relDrop(recs, cfg.RelDrop, func(r int) float64 { return recs[r].TargetBitrateBps }))
		// 6: GCC overuse entry.
		for i := range recs {
			if recs[i].GCCNetState.String() == "overuse" {
				v.Bits.Set(base + appOveruse)
				break
			}
		}
		// 7: pushback rate downtrend.
		v.Bits.Assign(base+appPushDown, relDrop(recs, cfg.RelDrop, func(r int) float64 { return recs[r].PushbackRateBps }))
		// 8: congestion window full.
		for i := range recs {
			if recs[i].CongestionWindow > 0 && recs[i].OutstandingBytes > recs[i].CongestionWindow {
				v.Bits.Set(base + appCwndFull)
				break
			}
		}
		// 9: windowed outstanding-bytes uptrend.
		out := make([]float64, len(recs))
		for i := range recs {
			out[i] = float64(recs[i].OutstandingBytes)
		}
		v.Bits.Assign(base+appOutstanding, groupedUptrend(out, cfg.TrendGroup, 0))
		// 10: pushback unequal to target.
		for i := range recs {
			if recs[i].PushbackRateBps < recs[i].TargetBitrateBps*(1-cfg.PushbackNeqFrac) {
				v.Bits.Set(base + appPushNeq)
				break
			}
		}
	}

	// --- Path delay events (11–12). ---
	v.Bits.Assign(fidFwdDelay, delayUptrend(ix.fwdAt, ix.fwdDelay, start, end, cfg))
	v.Bits.Assign(fidRevDelay, delayUptrend(ix.revAt, ix.revDelay, start, end, cfg))

	// --- 5G events per direction (13–18). ---
	for di := 0; di < 2; di++ {
		lo, hi := window(ix.dciAt[di], start, end)
		own := ix.dciOwn[di][lo:hi]
		other := ix.dciOther[di][lo:hi]
		tbs := ix.dciTBS[di][lo:hi]
		harq := ix.dciHARQ[di][lo:hi]
		base := fidCellBase(di)

		// 13: allocated TBS drop (min < frac × max, max before min).
		v.Bits.Assign(base+cellTBSDown, tbsDrop(tbs, cfg.TBSDropFrac))
		// 14: app bitrate exceeds allocated TBS for >10% of the window.
		v.Bits.Assign(base+cellRateExceeds, ix.rateExceedsFullCfg(di, start, end, cfg))
		// 15: cross traffic.
		sumOwn, sumOther := 0, 0
		for i := range own {
			sumOwn += own[i]
			sumOther += other[i]
		}
		if sumOther > 0 && float64(sumOther) > cfg.CrossFrac*float64(max(sumOwn, 1)) {
			v.Bits.Set(base + cellCross)
		}
		// 16: channel degradation from grouped MCS statistics.
		v.Bits.Assign(base+cellChanDegrade, ix.mcsDegradedFullCfg(di, start, end, cfg))
		// 17: HARQ retransmissions.
		retx := 0
		for _, h := range harq {
			if h {
				retx++
			}
		}
		v.Bits.Assign(base+cellHARQ, retx > cfg.HARQCount)
		// 18: RLC retransmission (gNB log or DCI flag).
		rlo, rhi := window(ix.rlcAt[di], start, end)
		v.Bits.Assign(base+cellRLC, rhi > rlo)
	}

	// 19: uplink scheduling — any own uplink transmission in window.
	lo, hi := window(ix.dciAt[0], start, end)
	for _, used := range ix.dciULUse[0][lo:hi] {
		if used {
			v.Bits.Set(fidULSched)
			break
		}
	}
	// 20: RRC state change (RNTI change).
	rlo, rhi := window(ix.rrcAt, start, end)
	v.Bits.Assign(fidRRC, rhi > rlo)

	return v
}

// fpsDrop implements events 1–2: max > high, min < low, max before min.
func fpsDrop(recs []traceStats, cfg DetectorConfig, get func(int) float64) bool {
	maxV, minV := -1.0, 1e18
	maxI, minI := -1, -1
	for i := range recs {
		fv := get(i)
		if fv > maxV {
			maxV, maxI = fv, i
		}
		if fv < minV {
			minV, minI = fv, i
		}
	}
	return maxV > cfg.FPSHigh && minV < cfg.FPSLow && maxI < minI
}

// relDrop reports a relative decrease between consecutive samples.
func relDrop(recs []traceStats, frac float64, get func(int) float64) bool {
	for i := 1; i < len(recs); i++ {
		prev, cur := get(i-1), get(i)
		if prev > 0 && cur < prev*(1-frac) {
			return true
		}
	}
	return false
}

// groupedUptrend implements the Appendix-D windowed-mean uptrend: split
// the series into groups of n, compare consecutive group means.
func groupedUptrend(xs []float64, n int, eps float64) bool {
	if n <= 0 || len(xs) < 2*n {
		return false
	}
	var means []float64
	for i := 0; i+n <= len(xs); i += n {
		var s float64
		for _, x := range xs[i : i+n] {
			s += x
		}
		means = append(means, s/float64(n))
	}
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1]*(1+eps)+eps {
			return true
		}
	}
	return false
}

// delayUptrend implements events 11–12: grouped-mean uptrend plus a
// sample above DelayUpMs.
func delayUptrend(at []sim.Time, delay []float64, start, end sim.Time, cfg DetectorConfig) bool {
	lo, hi := window(at, start, end)
	ds := delay[lo:hi]
	if len(ds) < 2*cfg.TrendGroup {
		return false
	}
	maxD := 0.0
	for _, d := range ds {
		if d > maxD {
			maxD = d
		}
	}
	if maxD <= cfg.DelayUpMs {
		return false
	}
	return groupedUptrend(ds, cfg.TrendGroup, 0)
}

// tbsDrop implements event 13 over own-UE TBS samples.
func tbsDrop(tbs []int, frac float64) bool {
	maxV, minV := -1, 1<<62
	maxI, minI := -1, -1
	for i, t := range tbs {
		if t == 0 {
			continue // slots without own allocation
		}
		if t > maxV {
			maxV, maxI = t, i
		}
		if t < minV {
			minV, minI = t, i
		}
	}
	if maxI < 0 || minI < 0 {
		return false
	}
	return float64(minV) < frac*float64(maxV) && maxI < minI
}

// rateExceedsFull implements event 14 by binning the window's samples
// from scratch: the fraction of RateBin bins where the application
// send rate exceeds the PHY-allocated rate. It is the production path
// for windows that do not start on a RateBin boundary (see
// rateExceedsRolling), not only the oracle's.
func (ix *indexedTrace) rateExceedsFull(di int, start, end sim.Time) bool {
	return ix.rateExceedsFullCfg(di, start, end, ix.cfg)
}

func (ix *indexedTrace) rateExceedsFullCfg(di int, start, end sim.Time, cfg DetectorConfig) bool {
	bins := int((end - start) / cfg.RateBin)
	if bins == 0 {
		return false
	}
	appLo, appHi := window(ix.appAt[di], start, end)
	if appHi == appLo {
		return false
	}
	appBits := make([]float64, bins)
	for i := appLo; i < appHi; i++ {
		b := int((ix.appAt[di][i] - start) / cfg.RateBin)
		if b >= 0 && b < bins {
			appBits[b] += float64(ix.appBytes[di][i] * 8)
		}
	}
	lo, hi := window(ix.dciAt[di], start, end)
	tbsBits := make([]float64, bins)
	for i := lo; i < hi; i++ {
		b := int((ix.dciAt[di][i] - start) / cfg.RateBin)
		if b >= 0 && b < bins {
			tbsBits[b] += float64(ix.dciTBS[di][i])
		}
	}
	exceed := 0
	for b := 0; b < bins; b++ {
		if appBits[b] > tbsBits[b] {
			exceed++
		}
	}
	return float64(exceed) > cfg.RateExceedFrac*float64(bins)
}

// mcsDegradedFull implements event 16 by grouping the window's own-UE
// MCS samples from scratch: the channel is degraded when the 90th
// percentile of group medians is below MCSP90Below and more than
// MCSLowCount groups have a median below MCSMedianBelow. It is the
// production path for windows whose edges split an MCSGroup bucket (see
// mcsDegradedRolling), not only the oracle's.
func (ix *indexedTrace) mcsDegradedFull(di int, start, end sim.Time) bool {
	return ix.mcsDegradedFullCfg(di, start, end, ix.cfg)
}

func (ix *indexedTrace) mcsDegradedFullCfg(di int, start, end sim.Time, cfg DetectorConfig) bool {
	lo, hi := window(ix.dciAt[di], start, end)
	groups := make(map[int][]float64)
	for i := lo; i < hi; i++ {
		if ix.dciOwn[di][i] == 0 {
			continue
		}
		g := int((ix.dciAt[di][i] - start) / cfg.MCSGroup)
		groups[g] = append(groups[g], float64(ix.dciMCS[di][i]))
	}
	if len(groups) == 0 {
		return false
	}
	var medians []float64
	low := 0
	for _, xs := range groups {
		m := median(xs)
		medians = append(medians, m)
		if m < cfg.MCSMedianBelow {
			low++
		}
	}
	return percentile(medians, 0.90) < cfg.MCSP90Below && low > cfg.MCSLowCount
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(p * float64(len(cp)-1))
	return cp[i]
}

// traceStats aliases the record type for the helper signatures above.
type traceStats = trace.WebRTCStatsRecord
