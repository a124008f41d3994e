package core

import (
	"sort"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// This file is the full-recompute window evaluator the rolling engine
// (events.go, rolling.go) is tested against: the twenty Table 5 event
// conditions for one window, computed by re-aggregating every sample in
// it. It reads a sorted trace.Set, not the index, and derives on its own
// what the index projects from a record — which packets are media and
// which RTCP, in which direction; that a TBS counts only in a slot where
// the UE holds PRBs; that a DCI row's RLC flag counts only with gNB
// logs — and it groups the raw MCS values, unsaturated. It carries no
// cross-call state and may be called for any window position.

// oracleWindow computes the feature vector for [start, start+W) of a
// sorted set under a normalized cfg.
func oracleWindow(set *trace.Set, cfg DetectorConfig, start sim.Time) FeatureVector {
	end := start + cfg.Window
	v := FeatureVector{Start: start, End: end}

	// --- Application events, per side (events 1–10). ---
	var sides [2][]trace.WebRTCStatsRecord // local, remote
	for _, r := range inWindow(set.Stats, start, end, func(r *trace.WebRTCStatsRecord) sim.Time { return r.At }) {
		if r.Local {
			sides[0] = append(sides[0], r)
		} else {
			sides[1] = append(sides[1], r)
		}
	}
	for si, recs := range sides {
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

	// --- Path delay events (11–12). Media packets of both directions
	// are the forward path, RTCP the reverse; cross traffic is neither.
	var fwd, rev []float64 // ms
	var media [2][]trace.PacketRecord
	for _, p := range inWindow(set.Packets, start, end, func(p *trace.PacketRecord) sim.Time { return p.SentAt }) {
		switch p.Kind {
		case netem.KindCross:
		case netem.KindRTCP:
			rev = append(rev, p.Delay().Milliseconds())
		default:
			fwd = append(fwd, p.Delay().Milliseconds())
			di := oracleDir(p.Dir)
			media[di] = append(media[di], p)
		}
	}
	v.Bits.Assign(fidFwdDelay, delayUptrend(fwd, cfg))
	v.Bits.Assign(fidRevDelay, delayUptrend(rev, cfg))

	// --- 5G events per direction (13–18). ---
	var dci [2][]trace.DCIRecord
	for _, r := range inWindow(set.DCI, start, end, func(r *trace.DCIRecord) sim.Time { return r.At }) {
		di := oracleDir(r.Dir)
		dci[di] = append(dci[di], r)
	}
	gnb := inWindow(set.GNBLogs, start, end, func(g *trace.GNBLogRecord) sim.Time { return g.At })
	for di, rows := range dci {
		base := fidCellBase(di)
		// 13: allocated TBS drop (min < frac × max, max before min).
		v.Bits.Assign(base+cellTBSDown, tbsDrop(rows, cfg.TBSDropFrac))
		// 14: app bitrate exceeds allocated TBS for >10% of the window.
		v.Bits.Assign(base+cellRateExceeds, rateExceeds(media[di], rows, start, end, cfg))
		// 15: cross traffic.
		sumOwn, sumOther, retx := 0, 0, 0
		for _, r := range rows {
			sumOwn += r.OwnPRB
			sumOther += r.OtherPRB
			if r.HARQRetx {
				retx++
			}
		}
		if sumOther > 0 && float64(sumOther) > cfg.CrossFrac*float64(max(sumOwn, 1)) {
			v.Bits.Set(base + cellCross)
		}
		// 16: channel degradation from grouped MCS statistics.
		v.Bits.Assign(base+cellChanDegrade, mcsDegraded(rows, start, cfg))
		// 17: HARQ retransmissions.
		v.Bits.Assign(base+cellHARQ, retx > cfg.HARQCount)
		// 18: RLC retransmission: a gNB log line, or the DCI flag, which
		// only private cells with base-station logs expose.
		for _, r := range rows {
			if r.RLCRetx && set.HasGNBLog {
				v.Bits.Set(base + cellRLC)
			}
		}
		for _, g := range gnb {
			if g.Kind == trace.GNBLogRLCRetx && oracleDir(g.Dir) == di {
				v.Bits.Set(base + cellRLC)
			}
		}
	}

	// 19: uplink scheduling — any own uplink transmission in window.
	for _, r := range dci[0] {
		if r.OwnPRB > 0 {
			v.Bits.Set(fidULSched)
			break
		}
	}
	// 20: RRC state change (RNTI change).
	v.Bits.Assign(fidRRC, len(inWindow(set.RRC, start, end, func(r *trace.RRCRecord) sim.Time { return r.At })) > 0)

	return v
}

// inWindow returns the records of a time-sorted series stamped in
// [start, end).
func inWindow[T any](recs []T, start, end sim.Time, at func(*T) sim.Time) []T {
	first := func(t sim.Time) int { return sort.Search(len(recs), func(i int) bool { return at(&recs[i]) >= t }) }
	return recs[first(start):first(end)]
}

// oracleDir is 0 for the uplink, 1 otherwise.
func oracleDir(d netem.Direction) int {
	if d == netem.Uplink {
		return 0
	}
	return 1
}

// fpsDrop implements events 1–2: max > high, min < low, max before min.
func fpsDrop(recs []trace.WebRTCStatsRecord, cfg DetectorConfig, get func(int) float64) bool {
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
func relDrop(recs []trace.WebRTCStatsRecord, frac float64, get func(int) float64) bool {
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

// delayUptrend implements events 11–12 over a window's delay samples:
// grouped-mean uptrend plus a sample above DelayUpMs.
func delayUptrend(ds []float64, cfg DetectorConfig) bool {
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

// allocatedTBS is the TBS a DCI row allocates the UE: its TBSBits when
// the UE holds PRBs in the slot and the TBS is positive, else none.
func allocatedTBS(r *trace.DCIRecord) int {
	if r.OwnPRB <= 0 || r.TBSBits <= 0 {
		return 0
	}
	return r.TBSBits
}

// tbsDrop implements event 13 over one direction's window rows.
func tbsDrop(rows []trace.DCIRecord, frac float64) bool {
	maxV, minV := -1, 1<<62
	maxI, minI := -1, -1
	for i := range rows {
		t := allocatedTBS(&rows[i])
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

// rateExceeds implements event 14 by binning one direction's window
// media packets and DCI rows from scratch: the fraction of RateBin bins
// where the application send rate exceeds the PHY-allocated rate.
func rateExceeds(media []trace.PacketRecord, rows []trace.DCIRecord, start, end sim.Time, cfg DetectorConfig) bool {
	bins := int((end - start) / cfg.RateBin)
	if bins == 0 || len(media) == 0 {
		return false
	}
	appBits := make([]float64, bins)
	for _, p := range media {
		if b := int((p.SentAt - start) / cfg.RateBin); b < bins {
			appBits[b] += float64(p.Size * 8)
		}
	}
	tbsBits := make([]float64, bins)
	for i := range rows {
		if b := int((rows[i].At - start) / cfg.RateBin); b < bins {
			tbsBits[b] += float64(allocatedTBS(&rows[i]))
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

// mcsDegraded implements event 16 by grouping one direction's window
// rows from scratch: the channel is degraded when the 90th percentile
// of MCSGroup medians of the raw MCS values of rows with a nonzero PRB
// count is below MCSP90Below and more than MCSLowCount groups have a
// median below MCSMedianBelow.
func mcsDegraded(rows []trace.DCIRecord, start sim.Time, cfg DetectorConfig) bool {
	groups := make(map[int][]float64)
	for _, r := range rows {
		if r.OwnPRB != 0 {
			g := int((r.At - start) / cfg.MCSGroup)
			groups[g] = append(groups[g], float64(r.MCS))
		}
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
