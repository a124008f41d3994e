package core

import (
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// Each Table 5 event condition gets a focused unit test: build a
// minimal trace exhibiting (or just missing) the triggering pattern and
// evaluate one window.

func evalOne(t *testing.T, set *trace.Set) FeatureVector {
	t.Helper()
	set.Sort()
	cfg := DefaultDetectorConfig()
	ix := newIndexedTrace(set, cfg)
	v := ix.evalWindow(0)
	if full := oracleWindow(set, cfg, 0); full.Bits != v.Bits {
		t.Fatalf("rolling evaluation diverged from full recompute:\nrolling: %v\nfull:    %v",
			v.Active(), full.Active())
	}
	return v
}

// statsSeries builds a 5 s local stats series at 50 ms and lets the
// caller mutate each record.
func statsSeries(mut func(i int, r *trace.WebRTCStatsRecord)) *trace.Set {
	set := &trace.Set{Duration: 5 * sim.Second, HasGNBLog: true}
	n := 100
	for i := 0; i < n; i++ {
		r := trace.WebRTCStatsRecord{
			At: sim.Time(i) * 50 * sim.Millisecond, Local: true,
			InboundFPS: 30, OutboundFPS: 30, OutboundHeight: 540,
			VideoJBDelayMs: 100, TargetBitrateBps: 2e6, PushbackRateBps: 2e6,
			OutstandingBytes: 10000, CongestionWindow: 50000,
		}
		mut(i, &r)
		set.Stats = append(set.Stats, r)
	}
	return set
}

func TestEvent1InboundFPSDrop(t *testing.T) {
	// Max 30 before min 10: fires.
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 60 {
			r.InboundFPS = 10
		}
	}))
	if !has(v, "local_inbound_framerate_down") {
		t.Fatal("fps drop not detected")
	}
	// Low before high (recovery): must NOT fire (argmax < argmin rule).
	v = evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i < 40 {
			r.InboundFPS = 10
		}
	}))
	if has(v, "local_inbound_framerate_down") {
		t.Fatal("fps recovery misdetected as drop")
	}
	// Steady 30: no fire.
	v = evalOne(t, statsSeries(func(int, *trace.WebRTCStatsRecord) {}))
	if has(v, "local_inbound_framerate_down") {
		t.Fatal("steady fps misdetected")
	}
}

func TestEvent2OutboundFPSDrop(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 50 {
			r.OutboundFPS = 20
		}
	}))
	if !has(v, "local_outbound_framerate_down") {
		t.Fatal("outbound fps drop not detected")
	}
}

func TestEvent3ResolutionDown(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 50 {
			r.OutboundHeight = 360
		}
	}))
	if !has(v, "local_outbound_resolution_down") {
		t.Fatal("resolution drop not detected")
	}
	// An upgrade is not a downtrend.
	v = evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 50 {
			r.OutboundHeight = 720
		}
	}))
	if has(v, "local_outbound_resolution_down") {
		t.Fatal("resolution upgrade misdetected")
	}
}

func TestEvent4JitterBufferDrain(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i == 70 {
			r.VideoJBDelayMs = 0
		}
	}))
	if !has(v, "local_jitter_buffer_drain") {
		t.Fatal("drain not detected")
	}
	v = evalOne(t, statsSeries(func(int, *trace.WebRTCStatsRecord) {}))
	if has(v, "local_jitter_buffer_drain") {
		t.Fatal("healthy buffer misdetected as drained")
	}
}

func TestEvent5TargetBitrateDown(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 50 {
			r.TargetBitrateBps = 1.2e6 // −40%
		}
	}))
	if !has(v, "local_target_bitrate_down") {
		t.Fatal("target drop not detected")
	}
	// Sub-epsilon noise (±1%) must not fire.
	v = evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i%2 == 0 {
			r.TargetBitrateBps = 1.99e6
		}
	}))
	if has(v, "local_target_bitrate_down") {
		t.Fatal("estimator noise misdetected as drop")
	}
}

func TestEvent6GCCOveruse(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i == 42 {
			r.GCCNetState = trace.GCCOveruse
		}
	}))
	if !has(v, "local_gcc_overuse") {
		t.Fatal("overuse entry not detected")
	}
}

func TestEvent7PushbackDown(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 60 {
			r.PushbackRateBps = 1e6
		}
	}))
	if !has(v, "local_pushback_rate_down") {
		t.Fatal("pushback drop not detected")
	}
}

func TestEvent8CwndFull(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i == 30 {
			r.OutstandingBytes = 60000 // > 50000 window
		}
	}))
	if !has(v, "local_cwnd_full") {
		t.Fatal("full window not detected")
	}
}

func TestEvent9OutstandingUp(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		r.OutstandingBytes = 10000 + i*400 // steady climb
	}))
	if !has(v, "local_outstanding_bytes_up") {
		t.Fatal("outstanding uptrend not detected")
	}
	v = evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		r.OutstandingBytes = 50000 - i*400 // steady fall
	}))
	if has(v, "local_outstanding_bytes_up") {
		t.Fatal("downtrend misdetected as uptrend")
	}
}

func TestEvent10PushbackNeqTarget(t *testing.T) {
	v := evalOne(t, statsSeries(func(i int, r *trace.WebRTCStatsRecord) {
		if i > 80 {
			r.PushbackRateBps = r.TargetBitrateBps * 0.7
		}
	}))
	if !has(v, "local_pushback_neq_target") {
		t.Fatal("pushback≠target not detected")
	}
}

// packetSeries builds a 5 s media+RTCP packet series with a delay
// profile per kind.
func packetSeries(mediaDelay, rtcpDelay func(i int) sim.Time) *trace.Set {
	set := &trace.Set{Duration: 5 * sim.Second}
	seq := uint64(0)
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		seq++
		set.Packets = append(set.Packets, trace.PacketRecord{
			Seq: seq, Kind: netem.KindVideo, Dir: netem.Uplink, Size: 1200,
			SentAt: at, Arrived: at + mediaDelay(i),
		})
		if i%10 == 0 {
			seq++
			set.Packets = append(set.Packets, trace.PacketRecord{
				Seq: seq, Kind: netem.KindRTCP, Dir: netem.Downlink, Size: 100,
				SentAt: at, Arrived: at + rtcpDelay(i),
			})
		}
	}
	return set
}

func TestEvent11ForwardDelayUp(t *testing.T) {
	flat := func(int) sim.Time { return 30 * sim.Millisecond }
	ramp := func(i int) sim.Time { return 30*sim.Millisecond + sim.Time(i)*400*sim.Microsecond }
	v := evalOne(t, packetSeries(ramp, flat))
	if !has(v, "forward_delay_up") {
		t.Fatal("forward ramp not detected")
	}
	if has(v, "reverse_delay_up") {
		t.Fatal("flat reverse misdetected")
	}
	// Uptrend but below the 80 ms gate: no fire.
	smallRamp := func(i int) sim.Time { return 30*sim.Millisecond + sim.Time(i)*50*sim.Microsecond }
	v = evalOne(t, packetSeries(smallRamp, flat))
	if has(v, "forward_delay_up") {
		t.Fatal("sub-threshold ramp misdetected (max < 80 ms)")
	}
}

func TestEvent12ReverseDelayUp(t *testing.T) {
	flat := func(int) sim.Time { return 30 * sim.Millisecond }
	// RTCP sampled every 10th packet: 50 samples; need ≥ 2 groups of 10.
	ramp := func(i int) sim.Time { return 30*sim.Millisecond + sim.Time(i)*2*sim.Millisecond }
	v := evalOne(t, packetSeries(flat, ramp))
	if !has(v, "reverse_delay_up") {
		t.Fatal("reverse ramp not detected")
	}
	if has(v, "forward_delay_up") {
		t.Fatal("flat forward misdetected")
	}
}

// dciSeries builds a 5 s DCI series for the uplink and lets the caller
// mutate each record.
func dciSeries(mut func(i int, r *trace.DCIRecord)) *trace.Set {
	set := &trace.Set{Duration: 5 * sim.Second, HasGNBLog: true}
	for i := 0; i < 2000; i++ {
		r := trace.DCIRecord{
			At: sim.Time(i) * 2500 * sim.Microsecond, Dir: netem.Uplink,
			RNTI: 50, OwnPRB: 20, MCS: 20, TBSBits: 20000,
		}
		mut(i, &r)
		set.DCI = append(set.DCI, r)
	}
	return set
}

func TestEvent13TBSDown(t *testing.T) {
	v := evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		if i > 1000 {
			r.TBSBits = 5000 // < 0.8 × 20000
		}
	}))
	if !has(v, "ul_tbs_down") {
		t.Fatal("TBS drop not detected")
	}
	// Rise (min before max): no fire.
	v = evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		if i < 1000 {
			r.TBSBits = 5000
		}
	}))
	if has(v, "ul_tbs_down") {
		t.Fatal("TBS recovery misdetected as drop")
	}
}

func TestEvent14RateExceedsTBS(t *testing.T) {
	// App sends 1200 B per 10 ms (~960 kbit/s) while the PHY allocates
	// almost nothing for the second half of the window.
	set := dciSeries(func(i int, r *trace.DCIRecord) {
		if i > 1000 {
			r.TBSBits = 24
		}
	})
	seq := uint64(0)
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		seq++
		set.Packets = append(set.Packets, trace.PacketRecord{
			Seq: seq, Kind: netem.KindVideo, Dir: netem.Uplink, Size: 1200,
			SentAt: at, Arrived: at + 30*sim.Millisecond,
		})
	}
	v := evalOne(t, set)
	if !has(v, "ul_rate_exceeds_tbs") {
		t.Fatal("app-rate-exceeds-TBS not detected")
	}
}

func TestEvent15CrossTraffic(t *testing.T) {
	v := evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		r.OtherPRB = 10 // 50% of own 20
	}))
	if !has(v, "ul_cross_traffic") {
		t.Fatal("cross traffic not detected")
	}
	v = evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		r.OtherPRB = 1 // 5% < 20% threshold
	}))
	if has(v, "ul_cross_traffic") {
		t.Fatal("light cross traffic misdetected")
	}
}

func TestEvent16ChannelDegrades(t *testing.T) {
	// The paper's rule requires a *persistently* poor channel: the 90th
	// percentile of 50 ms group medians below 20 (so nearly the whole
	// window is degraded) plus more than 10 groups with median < 10.
	// This is why poor_channel detections concentrate on the Amarisoft
	// cell's persistently weak uplink.
	v := evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		r.MCS = 8 // persistently low
		if i%3 == 0 {
			r.MCS = 4
		}
	}))
	if !has(v, "ul_channel_degrades") {
		t.Fatal("persistently poor channel not detected")
	}
	// A 1.5 s dip inside an otherwise-healthy window does NOT satisfy
	// the p90 gate: most group medians are still healthy.
	v = evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		r.MCS = 25
		if i > 1000 && i < 1600 {
			r.MCS = 3
		}
	}))
	if has(v, "ul_channel_degrades") {
		t.Fatal("brief dip misdetected as persistent degradation")
	}
}

// TestAnalyzeRejectsNegativeTime: a row stamped before 0 would join the
// first MCS group (a bucket index truncates toward zero), so batch
// analysis refuses the trace, as the streaming analyzer refuses the row.
func TestAnalyzeRejectsNegativeTime(t *testing.T) {
	set := dciSeries(func(_ int, r *trace.DCIRecord) { r.MCS = 5 })
	set.DCI = append([]trace.DCIRecord{{At: -30 * sim.Millisecond, Dir: netem.Uplink, OwnPRB: 20, MCS: 5}}, set.DCI...)
	a, err := NewAnalyzer(DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(set); err == nil {
		t.Fatal("a DCI row at -30 ms analyzed")
	}
}

func TestEvent17HARQRetx(t *testing.T) {
	v := evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		if i%100 == 0 { // 20 retx in window > 10 threshold
			r.HARQRetx = true
		}
	}))
	if !has(v, "ul_harq_retx") {
		t.Fatal("HARQ retx burst not detected")
	}
	v = evalOne(t, dciSeries(func(i int, r *trace.DCIRecord) {
		if i == 7 { // a single retx is normal operation
			r.HARQRetx = true
		}
	}))
	if has(v, "ul_harq_retx") {
		t.Fatal("single HARQ retx misdetected")
	}
}

func TestEvent18RLCRetx(t *testing.T) {
	set := dciSeries(func(int, *trace.DCIRecord) {})
	set.GNBLogs = append(set.GNBLogs, trace.GNBLogRecord{
		At: 2 * sim.Second, Kind: trace.GNBLogRLCRetx, Dir: netem.Uplink,
	})
	v := evalOne(t, set)
	if !has(v, "ul_rlc_retx") {
		t.Fatal("RLC retx log entry not detected")
	}
}

func TestEvent18RLCRetxGatedByGNBLog(t *testing.T) {
	// A commercial trace (no gNB log) must not detect RLC retx even if
	// the simulator annotated DCI records.
	set := dciSeries(func(i int, r *trace.DCIRecord) {
		if i == 500 {
			r.RLCRetx = true
		}
	})
	set.HasGNBLog = false
	v := evalOne(t, set)
	if has(v, "ul_rlc_retx") {
		t.Fatal("RLC retx detected without gNB logs (commercial cells cannot)")
	}
	// With gNB logs the same annotation counts.
	set2 := dciSeries(func(i int, r *trace.DCIRecord) {
		if i == 500 {
			r.RLCRetx = true
		}
	})
	v = evalOne(t, set2)
	if !has(v, "ul_rlc_retx") {
		t.Fatal("RLC retx missed on a private-cell trace")
	}
}

func TestEvent19ULScheduling(t *testing.T) {
	v := evalOne(t, dciSeries(func(int, *trace.DCIRecord) {}))
	if !has(v, "ul_scheduling") {
		t.Fatal("uplink transmissions present but ul_scheduling false")
	}
	empty := &trace.Set{Duration: 5 * sim.Second}
	v = evalOne(t, empty)
	if has(v, "ul_scheduling") {
		t.Fatal("ul_scheduling true with no uplink activity")
	}
}

func TestEvent20RRCChange(t *testing.T) {
	set := dciSeries(func(int, *trace.DCIRecord) {})
	set.RRC = append(set.RRC, trace.RRCRecord{At: sim.Second, Connected: false})
	v := evalOne(t, set)
	if !has(v, "rrc_state_change") {
		t.Fatal("RRC change not detected")
	}
}

func TestRemoteSideEventsIndependent(t *testing.T) {
	// A remote-only drain must set remote_ and not local_.
	set := &trace.Set{Duration: 5 * sim.Second}
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 50 * sim.Millisecond
		local := trace.WebRTCStatsRecord{At: at, Local: true, VideoJBDelayMs: 100, InboundFPS: 30, OutboundFPS: 30, OutboundHeight: 540, TargetBitrateBps: 1e6, PushbackRateBps: 1e6, CongestionWindow: 1000}
		remote := local
		remote.Local = false
		if i == 50 {
			remote.VideoJBDelayMs = 0
		}
		set.Stats = append(set.Stats, local, remote)
	}
	v := evalOne(t, set)
	if !has(v, "remote_jitter_buffer_drain") {
		t.Fatal("remote drain missed")
	}
	if has(v, "local_jitter_buffer_drain") {
		t.Fatal("local side contaminated by remote event")
	}
}

func TestDetectorConfigNormalize(t *testing.T) {
	cfg := DetectorConfig{}.normalize()
	def := DefaultDetectorConfig()
	if cfg != def {
		t.Fatalf("zero config did not normalize to defaults:\n%+v\n%+v", cfg, def)
	}
	custom := DetectorConfig{Window: 2 * sim.Second, HARQCount: 50}.normalize()
	if custom.Window != 2*sim.Second || custom.HARQCount != 50 {
		t.Fatal("explicit fields overwritten")
	}
	if custom.Step != def.Step {
		t.Fatal("unset fields not defaulted")
	}
}
