package experiments

import (
	"fmt"
	"strings"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rrc"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stats"
	"github.com/domino5g/domino/internal/trace"
)

// delayPhases summarizes media one-way delay (ms) before/during/after
// an event window, for one direction.
func delayPhases(set *trace.Set, dir netem.Direction, evStart, evEnd sim.Time) (before, during, after float64) {
	var b, d, a []float64
	for _, p := range set.Packets {
		if p.Dir != dir || p.Kind == netem.KindRTCP {
			continue
		}
		ms := p.Delay().Milliseconds()
		switch {
		case p.SentAt < evStart:
			b = append(b, ms)
		case p.SentAt < evEnd:
			d = append(d, ms)
		default:
			a = append(a, ms)
		}
	}
	return stats.NewCDF(b).Median(), stats.NewCDF(d).Quantile(0.9), stats.NewCDF(a).Median()
}

// fig12 reproduces the channel-degradation case study: a scripted SNR
// dip on the Amarisoft uplink causes MCS collapse, RLC buffer
// build-up, and a delay surge that clears after recovery.
func fig12(o Options) (Result, error) {
	cfg := ran.Amarisoft()
	cfg.ULChannel.DipRate = 0 // deterministic
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, o.Seed))
	if err != nil {
		return Result{}, err
	}
	evStart, evEnd := 20*sim.Second, 23*sim.Second
	sess.Cell.ULChannel().ScriptDip(evStart, evEnd, 16)

	// Sample the RLC buffer during the run.
	var bufBefore, bufDuring, bufAfter int
	sess.Engine.NewTicker(0, 20*sim.Millisecond, func(now sim.Time) {
		b := sess.Cell.ULBufferBytes()
		switch {
		case now < evStart:
			if b > bufBefore {
				bufBefore = b
			}
		case now < evEnd+sim.Second:
			if b > bufDuring {
				bufDuring = b
			}
		default:
			if b > bufAfter {
				bufAfter = b
			}
		}
	})
	set := sess.Run(40 * sim.Second)

	// MCS during vs outside the dip.
	var mcsIn, mcsOut []float64
	for _, r := range set.DCI {
		if r.Dir != netem.Uplink || r.OwnPRB == 0 {
			continue
		}
		if r.At >= evStart && r.At < evEnd {
			mcsIn = append(mcsIn, float64(r.MCS))
		} else {
			mcsOut = append(mcsOut, float64(r.MCS))
		}
	}
	before, during, after := delayPhases(set, netem.Uplink, evStart, evEnd+sim.Second)

	var b strings.Builder
	tb := stats.NewTable("Signal", "before", "during dip", "after recovery")
	tb.AddRow("UL MCS (median)", stats.NewCDF(mcsOut).Median(), stats.NewCDF(mcsIn).Median(), stats.NewCDF(mcsOut).Median())
	tb.AddRow("RLC buffer max (KB)", float64(bufBefore)/1e3, float64(bufDuring)/1e3, float64(bufAfter)/1e3)
	tb.AddRow("UL one-way delay (ms, p50/p90/p50)", before, during, after)
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 12 — channel degradation: MCS drop -> RLC buffer build-up -> delay surge -> recovery",
		PaperRef: "paper: MCS collapses at the dip, BSR buffer grows, delay reaches ~380 ms, then drains back to ~30 ms",
		Text:     b.String(),
	}, nil
}

// fig13 reproduces the cross-traffic case study on the busy commercial
// DL: a scripted burst crowds out the UE, delay rises, GCC detects
// overuse and cuts the target bitrate, then recovers.
func fig13(o Options) (Result, error) {
	cfg := ran.TMobileFDD()
	cfg.DLCross.UEs = 0 // replace stochastic load with the scripted burst
	cfg.DLCross.BaselineFraction = 0
	cfg.RRC = rrc.Stable()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, o.Seed))
	if err != nil {
		return Result{}, err
	}
	evStart, evEnd := 20*sim.Second, 24*sim.Second
	sess.Cell.DLCross().ScriptBurst(evStart, evEnd, 0.9)
	set := sess.Run(40 * sim.Second)

	before, during, after := delayPhases(set, netem.Downlink, evStart, evEnd+sim.Second)
	// Remote client (DL sender) GCC behaviour.
	var rateBefore, rateMin, rateAfter float64 = 0, 1e18, 0
	overuse := false
	for _, r := range set.StatsSide(false) {
		switch {
		case r.At < evStart:
			rateBefore = r.TargetBitrateBps
		case r.At < evEnd+2*sim.Second:
			if r.TargetBitrateBps < rateMin {
				rateMin = r.TargetBitrateBps
			}
			if r.GCCNetState == trace.GCCOveruse {
				overuse = true
			}
		default:
			rateAfter = r.TargetBitrateBps
		}
	}
	var b strings.Builder
	tb := stats.NewTable("Signal", "before", "during burst", "after")
	tb.AddRow("DL one-way delay (ms, p50/p90/p50)", before, during, after)
	tb.AddRow("DL target bitrate (Mbps)", rateBefore/1e6, rateMin/1e6, rateAfter/1e6)
	tb.AddRow("GCC overuse detected", "-", fmt.Sprintf("%v", overuse), "-")
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 13 — cross traffic: PRB crowd-out -> delay rise -> GCC overuse -> target-rate cut -> recovery",
		PaperRef: "paper: delay climbs to ~250 ms, GCC detects overuse ~0.8 s after burst onset and multiplicatively decreases",
		Text:     b.String(),
	}, nil
}

// fig14 reproduces the packet↔TB delay-spread comparison across cells:
// the number of transport blocks a video frame spans and the resulting
// intra-frame arrival spread, read off the trace of each of three cells.
func fig14(o Options) (Result, error) {
	tb := stats.NewTable("Cell", "UL TBs/min", "median TB bytes", "frame delay-spread p50 (ms)", "p90")
	runs, err := o.shared.presets()
	if err != nil {
		return Result{}, err
	}
	for _, run := range runs[:3] { // T-Mobile TDD and FDD, Amarisoft
		var tbBytes []float64
		tbs := 0
		for _, r := range run.Set.DCI {
			if r.Dir == netem.Uplink && r.OwnPRB > 0 {
				tbs++
				tbBytes = append(tbBytes, float64(r.UsedBits)/8)
			}
		}
		// Delay spread: per video frame (send-time bursts), the span of
		// its packets' arrival times.
		c := stats.NewCDF(frameSpreads(run.Set, netem.Uplink))
		tb.AddRow(run.Cfg.Name, float64(tbs)/o.Duration.Seconds()*60,
			stats.NewCDF(tbBytes).Median(), c.Median(), c.Quantile(0.9))
	}
	return Result{
		Title: "Fig. 14 — packet-to-TB mapping: per-frame delay spread across cells",
		PaperRef: "paper: 100 MHz TDD packs frames into few TBs (small spread); 15 MHz FDD needs >10 TBs/frame " +
			"(large spread); Amarisoft's poor UL forces low rate but spread persists",
		Text: tb.String(),
	}, nil
}

// frameSpreads groups media packets into frames by send-time bursts and
// returns each frame's arrival-time span in ms.
func frameSpreads(set *trace.Set, dir netem.Direction) []float64 {
	var spreads []float64
	var burstStart, firstArr, lastArr sim.Time
	count := 0
	flush := func() {
		if count > 1 {
			spreads = append(spreads, (lastArr - firstArr).Milliseconds())
		}
		count = 0
	}
	for _, p := range set.Packets {
		if p.Dir != dir || p.Kind != netem.KindVideo {
			continue
		}
		if count == 0 || p.SentAt-burstStart > 5*sim.Millisecond {
			flush()
			burstStart = p.SentAt
			firstArr, lastArr = p.Arrived, p.Arrived
			count = 1
			continue
		}
		count++
		if p.Arrived < firstArr {
			firstArr = p.Arrived
		}
		if p.Arrived > lastArr {
			lastArr = p.Arrived
		}
	}
	flush()
	return spreads
}

// fig16 reproduces the proactive-grant accounting on the Mosolabs cell.
func fig16(o Options) (Result, error) {
	sess, set, err := runCellSession(ran.Mosolabs(), o.Duration, o.Seed)
	if err != nil {
		return Result{}, err
	}
	var proUsed, proUnused, reqUsed, reqUnused int
	for _, r := range set.DCI {
		if r.Dir != netem.Uplink || r.OwnPRB == 0 {
			continue
		}
		switch {
		case r.Proactive && r.Unused:
			proUnused++
		case r.Proactive:
			proUsed++
		case r.Unused:
			reqUnused++
		default:
			reqUsed++
		}
	}
	st := sess.Cell.ULStats()
	var b strings.Builder
	tb := stats.NewTable("Grant class", "fully used TBs", "partly/unused TBs")
	tb.AddRow("proactive", proUsed, proUnused)
	tb.AddRow("BSR-requested", reqUsed, reqUnused)
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nwasted grant capacity: %.1f KB over %v (%.2f%% of granted)\n",
		float64(st.WastedBytes)/1e3, o.Duration,
		100*float64(st.WastedBytes)/float64(max(st.GrantedBytes, 1)))
	return Result{
		Title:    "Fig. 16 — proactive UL grants cut first-packet latency but waste capacity",
		PaperRef: "paper: unused proactive grants (unfilled bars) and over-granted BSR grants waste bandwidth",
		Text:     b.String(),
	}, nil
}

// fig17 reproduces the HARQ retransmission delay inflation.
func fig17(o Options) (Result, error) {
	// Two Amarisoft runs: default vs near-perfect channel. The HARQ
	// retransmission rate and the delay tail move together.
	noisy := ran.Amarisoft()
	clean := ran.Amarisoft()
	clean.ULChannel.MeanSNRdB = 35
	clean.ULChannel.DipRate = 0
	clean.ULChannel.FastFadeStdDB = 0.2
	clean.ULChannel.StdSNRdB = 0.5
	clean.ULLinkAdapt.Backoff = 6 // conservative: retx nearly impossible

	tb := stats.NewTable("Channel", "HARQ retx/min (UL)", "UL delay p50 (ms)", "p90", "p99")
	for _, run := range []struct {
		name string
		cfg  ran.CellConfig
	}{{"noisy (paper-like)", noisy}, {"clean (ablation)", clean}} {
		sess, set, err := runCellSession(run.cfg, o.Duration, o.Seed)
		if err != nil {
			return Result{}, err
		}
		c := stats.NewCDF(set.PacketDelays(netem.Uplink, netem.KindVideo, netem.KindAudio))
		st := sess.Cell.ULStats()
		tb.AddRow(run.name, float64(st.HARQRetx)/o.Duration.Seconds()*60,
			c.Median(), c.Quantile(0.9), c.Quantile(0.99))
	}
	return Result{
		Title:    "Fig. 17 — HARQ retransmissions inflate packet delay by ~one HARQ RTT (10 ms) per attempt",
		PaperRef: "paper: hundreds of HARQ retx per minute; each adds ~10 ms to the packets in the retransmitted TB",
		Text:     tb.String(),
	}, nil
}

// fig18 reproduces the RLC retransmission case: HARQ exhaustion forces
// RLC recovery (~105 ms) and head-of-line blocking releases bursts.
func fig18(o Options) (Result, error) {
	cfg := ran.Amarisoft()
	cfg.ULChannel.DipRate = 0
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, o.Seed))
	if err != nil {
		return Result{}, err
	}
	// A deep dip long enough to exhaust HARQ on some TBs.
	sess.Cell.ULChannel().ScriptDip(20*sim.Second, 21*sim.Second, 30)
	set := sess.Run(40 * sim.Second)

	st := sess.Cell.ULStats()
	before, during, after := delayPhases(set, netem.Uplink, 20*sim.Second, 22*sim.Second)
	rlcLogs := 0
	for _, g := range set.GNBLogs {
		if g.Kind == trace.GNBLogRLCRetx {
			rlcLogs++
		}
	}
	var b strings.Builder
	tb := stats.NewTable("Signal", "value")
	tb.AddRow("HARQ exhaustion events", st.HARQExhaust)
	tb.AddRow("RLC retransmissions", st.RLCRetx)
	tb.AddRow("gNB RLC-retx log entries", rlcLogs)
	tb.AddRow("max HoL release burst (packets)", st.HoLBurstMax)
	tb.AddRow("UL delay before/during/after (ms)", fmt.Sprintf("%.1f / %.1f / %.1f", before, during, after))
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 18 — RLC retransmission adds ~105 ms and releases HoL-blocked packet bursts",
		PaperRef: "paper: the RLC-recovered packet arrives ~105 ms late; blocked packets share one release timestamp",
		Text:     b.String(),
	}, nil
}

// fig19 reproduces the RRC state-transition outage.
func fig19(o Options) (Result, error) {
	cfg := ran.TMobileFDD()
	cfg.DLCross.UEs = 0
	cfg.DLCross.BaselineFraction = 0
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, o.Seed))
	if err != nil {
		return Result{}, err
	}
	sess.Cell.RRC().ScriptRelease(20 * sim.Second)
	set := sess.Run(40 * sim.Second)

	before, during, after := delayPhases(set, netem.Uplink, 20*sim.Second, 21*sim.Second)
	rntis := map[uint32]bool{}
	for _, r := range set.RRC {
		if r.RNTI != 0 {
			rntis[r.RNTI] = true
		}
	}
	var b strings.Builder
	tb := stats.NewTable("Signal", "value")
	tb.AddRow("RRC transitions observed", len(set.RRC))
	tb.AddRow("distinct RNTIs", len(rntis))
	tb.AddRow("UL delay before/during/after (ms)", fmt.Sprintf("%.1f / %.1f / %.1f", before, during, after))
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 19 — RRC release halts the PHY ~300 ms; delay spikes toward 400 ms; RNTI changes",
		PaperRef: "paper: complete PHY silence during the transition, buffered traffic spikes delay to ~400 ms",
		Text:     b.String(),
	}, nil
}

// fig20 reproduces the jitter-buffer drain / freeze case study by
// injecting a forward-path delay surge.
func fig20(o Options) (Result, error) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Mosolabs(), o.Seed))
	if err != nil {
		return Result{}, err
	}
	// Surge on the DL wired leg: the local client's inbound stream.
	sess.DLWired().ScriptExtraDelay(20*sim.Second, 21500*sim.Millisecond, 280*sim.Millisecond)
	set := sess.Run(35 * sim.Second)

	vs := sess.Local.VideoBufferStats(35 * sim.Second)
	minFPS := 1e9
	jbZero := false
	for _, r := range set.StatsSide(true) {
		if r.At >= 20*sim.Second && r.At < 25*sim.Second {
			if r.InboundFPS < minFPS {
				minFPS = r.InboundFPS
			}
			if r.VideoJBDelayMs <= 0.5 {
				jbZero = true
			}
		}
	}
	var b strings.Builder
	tb := stats.NewTable("Signal", "value")
	tb.AddRow("jitter buffer drained to 0", jbZero)
	tb.AddRow("freeze count", vs.FreezeCount)
	tb.AddRow("total freeze (ms)", vs.FreezeTotalMs)
	tb.AddRow("min inbound FPS during event", minFPS)
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 20 — delay surge drains the jitter buffer, freezing video and dropping frame rate",
		PaperRef: "paper: delay to ~280 ms drains the buffer; video freezes; FPS recovers only after the buffer refills",
		Text:     b.String(),
	}, nil
}

// fig21 reproduces the GCC target-rate trace: a forward delay ramp
// crosses the trendline threshold, overuse is declared, rate drops.
func fig21(o Options) (Result, error) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Mosolabs(), o.Seed))
	if err != nil {
		return Result{}, err
	}
	// Ramp the UL wired leg: the local sender's media path.
	for i := sim.Time(0); i < 3*sim.Second; i += 500 * sim.Millisecond {
		frac := float64(i) / float64(3*sim.Second)
		sess.ULWired().ScriptExtraDelay(20*sim.Second+i, 20*sim.Second+i+500*sim.Millisecond,
			sim.Time(frac*float64(350*sim.Millisecond)))
	}
	set := sess.Run(40 * sim.Second)

	var slopeMax, preRate, minRate float64
	minRate = 1e18
	overuseAt := sim.Time(0)
	fpsMin := 1e9
	for _, r := range set.StatsSide(true) {
		switch {
		case r.At < 20*sim.Second:
			preRate = r.TargetBitrateBps
		case r.At < 30*sim.Second:
			if r.TrendlineSlope > slopeMax {
				slopeMax = r.TrendlineSlope
			}
			if r.GCCNetState == trace.GCCOveruse && overuseAt == 0 {
				overuseAt = r.At
			}
			if r.TargetBitrateBps < minRate {
				minRate = r.TargetBitrateBps
			}
			if r.OutboundFPS < fpsMin {
				fpsMin = r.OutboundFPS
			}
		}
	}
	var b strings.Builder
	tb := stats.NewTable("Signal", "value")
	tb.AddRow("target rate before ramp (Mbps)", preRate/1e6)
	tb.AddRow("max trendline slope during ramp", slopeMax)
	tb.AddRow("overuse first declared at", overuseAt.String())
	tb.AddRow("min target rate after overuse (Mbps)", minRate/1e6)
	tb.AddRow("min outbound FPS", fpsMin)
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 21 — delay ramp: trendline slope crosses threshold -> overuse -> multiplicative rate cut -> FPS/res drop",
		PaperRef: "paper: slope exceeds adaptive threshold, overuse declared, target rate multiplicatively decreased, frame rate drops",
		Text:     b.String(),
	}, nil
}

// fig22 reproduces the pushback case study: RTCP-only delay on the
// reverse path stalls feedback; outstanding bytes cross the congestion
// window; pushback rate drops while target stays high.
func fig22(o Options) (Result, error) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Mosolabs(), o.Seed))
	if err != nil {
		return Result{}, err
	}
	// Delay only RTCP on the DL wired leg: local's media is untouched,
	// but its feedback is late.
	sess.DLWired().ScriptExtraDelayKind(netem.KindRTCP, 20*sim.Second, 23*sim.Second, 400*sim.Millisecond)
	set := sess.Run(35 * sim.Second)

	var cwndFull, pushDrop bool
	var targetBefore, targetDuring, pushMin float64
	pushMin = 1e18
	for _, r := range set.StatsSide(true) {
		switch {
		case r.At < 20*sim.Second:
			targetBefore = r.TargetBitrateBps
		case r.At < 24*sim.Second:
			targetDuring = r.TargetBitrateBps
			if r.OutstandingBytes > r.CongestionWindow && r.CongestionWindow > 0 {
				cwndFull = true
			}
			if r.PushbackRateBps < pushMin {
				pushMin = r.PushbackRateBps
			}
			if r.PushbackRateBps < r.TargetBitrateBps*0.9 {
				pushDrop = true
			}
		}
	}
	var b strings.Builder
	tb := stats.NewTable("Signal", "value")
	tb.AddRow("target rate before / during RTCP stall (Mbps)",
		fmt.Sprintf("%.2f / %.2f", targetBefore/1e6, targetDuring/1e6))
	tb.AddRow("outstanding bytes exceeded cwnd", cwndFull)
	tb.AddRow("pushback dropped below target", pushDrop)
	tb.AddRow("min pushback rate during stall (Mbps)", pushMin/1e6)
	b.WriteString(tb.String())
	return Result{
		Title:    "Fig. 22 — reverse-path (RTCP) delay alone triggers pushback-rate drops despite a stable target rate",
		PaperRef: "paper: RTCP delay >300 ms accumulates outstanding bytes past the window; pushback rate and FPS drop",
		Text:     b.String(),
	}, nil
}
