package rtc

import (
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
)

func TestResolutionLadder(t *testing.T) {
	cases := []struct {
		rate float64
		want Resolution
	}{
		{100_000, Res180}, {400_000, Res360}, {800_000, Res540},
		{1_500_000, Res720}, {4_000_000, Res1080},
	}
	for _, c := range cases {
		if got := ResolutionForRate(c.rate); got != c.want {
			t.Fatalf("ResolutionForRate(%v) = %v, want %v", c.rate, got, c.want)
		}
	}
}

func TestVideoSourceFrameSizing(t *testing.T) {
	src := NewVideoSource(DefaultVideoSourceConfig(), 1_500_000, sim.NewRNG(1))
	var total int
	n := 300 // 10 s at 30 fps
	keyframes := 0
	for i := 0; i < n; i++ {
		f := src.NextFrame(sim.Time(i) * frameDur())
		total += f.Bytes
		if f.Key {
			keyframes++
		}
	}
	// 10 s at 1.5 Mbit/s ≈ 1.875 MB ± keyframe overhead.
	gotRate := float64(total) * 8 / 10
	if gotRate < 1_200_000 || gotRate > 2_300_000 {
		t.Fatalf("source rate %v for target 1.5e6", gotRate)
	}
	if keyframes != 1 {
		t.Fatalf("keyframes = %d in 300 frames (interval 300)", keyframes)
	}
}

func frameDur() sim.Time { return sim.FromMilliseconds(1000.0 / 30) }

func TestVideoSourceRateSmoothing(t *testing.T) {
	src := NewVideoSource(DefaultVideoSourceConfig(), 2_000_000, sim.NewRNG(2))
	src.SetRate(500_000)
	// One update moves partway, not all the way.
	if r := src.Rate(); r <= 500_000 || r >= 2_000_000 {
		t.Fatalf("smoothed rate = %v", r)
	}
	for i := 0; i < 50; i++ {
		src.SetRate(500_000)
	}
	if r := src.Rate(); r > 550_000 {
		t.Fatalf("rate did not converge: %v", r)
	}
}

func TestVideoSourceResolutionShares(t *testing.T) {
	src := NewVideoSource(DefaultVideoSourceConfig(), 800_000, sim.NewRNG(3))
	for i := 0; i < 100; i++ {
		src.NextFrame(sim.Time(i) * frameDur())
	}
	src.SetRate(300_000)
	for i := 0; i < 50; i++ {
		src.SetRate(300_000)
	}
	for i := 100; i < 200; i++ {
		src.NextFrame(sim.Time(i) * frameDur())
	}
	shares := src.ResolutionShares()
	if shares[Res540] == 0 || shares[Res360] == 0 {
		t.Fatalf("expected time at both 540p and 360p: %v", shares)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestWiredSessionHealthy(t *testing.T) {
	s := NewWiredSession(WiredSessionConfig{
		Path:   netem.WiredGCPPath(),
		Local:  DefaultClientConfig("local", true),
		Remote: DefaultClientConfig("remote", false),
		Seed:   1,
	})
	set := s.Run(30 * sim.Second)

	if len(set.Packets) == 0 || len(set.Stats) == 0 {
		t.Fatal("wired session produced no trace data")
	}
	// One-way delays hug the configured 8 ms base.
	delays := set.PacketDelays(netem.Uplink, netem.KindVideo)
	if len(delays) == 0 {
		t.Fatal("no UL video packets")
	}
	med := median(delays)
	if med < 5 || med > 15 {
		t.Fatalf("wired median delay %v ms, want ~8", med)
	}
	// No freezes, negligible concealment.
	vs := s.Remote.VideoBufferStats(30 * sim.Second)
	if vs.FreezeCount > 0 {
		t.Fatalf("freezes on wired network: %d", vs.FreezeCount)
	}
	as := s.Remote.AudioBufferStats()
	if frac := float64(as.ConcealedSamples) / float64(as.TotalSamples+1); frac > 0.01 {
		t.Fatalf("wired concealment fraction %v", frac)
	}
	// GCC should have grown well past the start rate.
	if rate := s.Local.Controller().Snapshot(30 * sim.Second).TargetRateBps; rate < 1_500_000 {
		t.Fatalf("wired target rate stuck at %v", rate)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

func TestCellSessionProducesCrossLayerTrace(t *testing.T) {
	cfg := DefaultSessionConfig(ran.Mosolabs(), 2)
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := s.Run(20 * sim.Second)

	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := set.Counts()
	if counts.DCI == 0 || counts.Packets == 0 || counts.WebRTC == 0 {
		t.Fatalf("missing trace sources: %+v", counts)
	}
	// Stats from both sides at 50 ms cadence: ~2 × 20s/50ms = 800.
	if counts.WebRTC < 600 || counts.WebRTC > 1000 {
		t.Fatalf("WebRTC stats count = %d", counts.WebRTC)
	}
	// Both media directions present.
	if len(set.PacketDelays(netem.Uplink, netem.KindVideo)) == 0 ||
		len(set.PacketDelays(netem.Downlink, netem.KindVideo)) == 0 {
		t.Fatal("missing a media direction")
	}
	// RTCP flows in both directions too.
	if len(set.PacketDelays(netem.Uplink, netem.KindRTCP)) == 0 ||
		len(set.PacketDelays(netem.Downlink, netem.KindRTCP)) == 0 {
		t.Fatal("missing RTCP direction")
	}
}

func TestCellSessionULDelayExceedsDL(t *testing.T) {
	s, err := NewSession(DefaultSessionConfig(ran.TMobileTDD(), 3))
	if err != nil {
		t.Fatal(err)
	}
	set := s.Run(30 * sim.Second)
	ul := median(set.PacketDelays(netem.Uplink, netem.KindVideo, netem.KindAudio))
	dl := median(set.PacketDelays(netem.Downlink, netem.KindVideo, netem.KindAudio))
	if ul <= dl {
		t.Fatalf("UL median %.2f ms should exceed DL median %.2f ms", ul, dl)
	}
}

func TestCellSessionAmarisoftULBitrateSuffers(t *testing.T) {
	s, err := NewSession(DefaultSessionConfig(ran.Amarisoft(), 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(40 * sim.Second)
	ulRate := s.Local.Controller().Snapshot(40 * sim.Second).TargetRateBps  // UL sender
	dlRate := s.Remote.Controller().Snapshot(40 * sim.Second).TargetRateBps // DL sender
	if ulRate >= dlRate {
		t.Fatalf("poor UL channel should cap UL rate: UL %.0f vs DL %.0f", ulRate, dlRate)
	}
}

func TestSessionStatsHaveGCCInternals(t *testing.T) {
	s, err := NewSession(DefaultSessionConfig(ran.Mosolabs(), 5))
	if err != nil {
		t.Fatal(err)
	}
	set := s.Run(10 * sim.Second)
	sawThreshold, sawWindow := false, false
	for _, r := range set.Stats {
		if r.TrendlineThreshold > 0 {
			sawThreshold = true
		}
		if r.CongestionWindow > 0 {
			sawWindow = true
		}
	}
	if !sawThreshold || !sawWindow {
		t.Fatal("stats records missing GCC internals")
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		s, err := NewSession(DefaultSessionConfig(ran.Amarisoft(), 42))
		if err != nil {
			t.Fatal(err)
		}
		set := s.Run(8 * sim.Second)
		return s.Local.SentPackets, s.Remote.SentPackets, float64(len(set.DCI))
	}
	a1, b1, d1 := run()
	a2, b2, d2 := run()
	if a1 != a2 || b1 != b2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", a1, b1, d1, a2, b2, d2)
	}
}
