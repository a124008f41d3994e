package phy

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/sim"
)

func TestNumerologySlotDuration(t *testing.T) {
	if SCS15kHz.SlotDuration() != sim.Millisecond {
		t.Fatal("15 kHz slot != 1 ms")
	}
	if SCS30kHz.SlotDuration() != 500*sim.Microsecond {
		t.Fatal("30 kHz slot != 0.5 ms")
	}
}

func TestPRBsForBandwidthPaperCells(t *testing.T) {
	cases := []struct {
		scs  Numerology
		mhz  int
		want int
	}{
		{SCS15kHz, 15, 79},   // T-Mobile 15 MHz FDD
		{SCS30kHz, 100, 273}, // T-Mobile 100 MHz TDD
		{SCS30kHz, 20, 51},   // Amarisoft / Mosolabs 20 MHz TDD
	}
	for _, c := range cases {
		got, err := c.scs.PRBsForBandwidth(c.mhz)
		if err != nil {
			t.Fatalf("%v/%dMHz: %v", c.scs, c.mhz, err)
		}
		if got != c.want {
			t.Fatalf("%v/%dMHz: got %d PRBs, want %d", c.scs, c.mhz, got, c.want)
		}
	}
	if _, err := SCS15kHz.PRBsForBandwidth(17); err == nil {
		t.Fatal("unknown bandwidth did not error")
	}
}

func TestMCSTableMonotone(t *testing.T) {
	// The spec table has one tiny dip at the 16QAM→64QAM switch
	// (MCS 16→17: 2.5703 → 2.5664); allow that slack.
	prev := -1.0
	for m := MCS(0); m <= MaxMCS; m++ {
		eff := m.SpectralEfficiency()
		if eff <= prev-0.01 {
			t.Fatalf("spectral efficiency not increasing at MCS %d", m)
		}
		if eff > prev {
			prev = eff
		}
		if q := m.ModulationOrder(); q != 2 && q != 4 && q != 6 {
			t.Fatalf("MCS %d has modulation order %d", m, q)
		}
		if r := m.CodeRate(); r <= 0 || r >= 1 {
			t.Fatalf("MCS %d code rate %v out of (0,1)", m, r)
		}
	}
}

func TestMCSKnownValues(t *testing.T) {
	// Spot-check against TS 38.214 Table 5.1.3.1-1.
	if MCS(0).ModulationOrder() != 2 || math.Abs(MCS(0).CodeRate()-120.0/1024) > 1e-9 {
		t.Fatal("MCS 0 row wrong")
	}
	if MCS(10).ModulationOrder() != 4 {
		t.Fatal("MCS 10 should be 16QAM")
	}
	if MCS(17).ModulationOrder() != 6 {
		t.Fatal("MCS 17 should be 64QAM")
	}
	if MCS(27).Modulation() != "64QAM" {
		t.Fatal("MCS 27 modulation name")
	}
}

func TestCQIFromSNRMonotone(t *testing.T) {
	prev := CQI(-1)
	for snr := -10.0; snr <= 30; snr += 0.5 {
		c := CQIFromSNR(snr)
		if c < prev {
			t.Fatalf("CQI decreased with SNR at %v dB", snr)
		}
		prev = c
	}
	if CQIFromSNR(-20) != 0 {
		t.Fatal("very low SNR should map to CQI 0")
	}
	if CQIFromSNR(30) != 15 {
		t.Fatal("very high SNR should map to CQI 15")
	}
}

func TestMCSFromCQIBackoff(t *testing.T) {
	base := MCSFromCQI(10, 0)
	conservative := MCSFromCQI(10, 4)
	if conservative >= base {
		t.Fatalf("backoff did not lower MCS: %v vs %v", conservative, base)
	}
	if MCSFromCQI(0, -5) < 0 || MCSFromCQI(15, -100) > MaxMCS {
		t.Fatal("MCSFromCQI not clamped")
	}
	if MCSFromCQI(-3, 0) != MCSFromCQI(0, 0) {
		t.Fatal("negative CQI not clamped")
	}
}

func TestTBSScaling(t *testing.T) {
	// TBS grows with both PRBs and MCS.
	if TransportBlockSizeBits(10, 50) <= TransportBlockSizeBits(10, 25) {
		t.Fatal("TBS not increasing in PRBs")
	}
	if TransportBlockSizeBits(20, 50) <= TransportBlockSizeBits(5, 50) {
		t.Fatal("TBS not increasing in MCS")
	}
	if TransportBlockSizeBits(10, 0) != 0 {
		t.Fatal("zero PRBs should give zero TBS")
	}
	// Byte alignment.
	if TransportBlockSizeBits(15, 20)%8 != 0 {
		t.Fatal("TBS not byte aligned")
	}
}

func TestTBSRealisticMagnitudes(t *testing.T) {
	// 273 PRBs at MCS 27 (100 MHz cell, great channel): per-slot TB in
	// the tens of kilobytes, i.e. several hundred Mbit/s at 2000
	// slots/s.
	rate := float64(TransportBlockSizeBits(27, 273)) * 2000
	if rate < 200e6 || rate > 800e6 {
		t.Fatalf("peak rate %v bps implausible for 100 MHz", rate)
	}
	// 51 PRBs at MCS 5 (20 MHz cell, weak channel): a few tens of Mbit/s max.
	rate = float64(TransportBlockSizeBits(5, 51)) * 2000
	if rate < 5e6 || rate > 50e6 {
		t.Fatalf("weak-channel rate %v bps implausible", rate)
	}
}

func TestPRBsForBytes(t *testing.T) {
	for _, m := range []MCS{0, 5, 13, 27} {
		for _, bytes := range []int{100, 1200, 5000} {
			n := PRBsForBytes(m, bytes, 273)
			if n < 1 {
				t.Fatalf("PRBsForBytes(%v,%d) = %d", m, bytes, n)
			}
			if got := TransportBlockSizeBytes(m, n); got < bytes && n < 273 {
				t.Fatalf("PRBsForBytes(%v,%d)=%d too small: TBS %d", m, bytes, n, got)
			}
			if n > 1 {
				if prev := TransportBlockSizeBytes(m, n-1); prev >= bytes {
					t.Fatalf("PRBsForBytes(%v,%d)=%d not minimal", m, bytes, n)
				}
			}
		}
	}
	if PRBsForBytes(10, 0, 100) != 0 {
		t.Fatal("zero bytes should need zero PRBs")
	}
	if PRBsForBytes(10, 1<<30, 50) != 50 {
		t.Fatal("huge demand should cap at maxPRB")
	}
}

// Property: PRBsForBytes always returns a grant whose TBS covers the
// request or the cap.
func TestPRBsForBytesProperty(t *testing.T) {
	f := func(mRaw uint8, bytesRaw uint16) bool {
		m := MCS(int(mRaw) % 28)
		bytes := int(bytesRaw)%20000 + 1
		n := PRBsForBytes(m, bytes, 273)
		if n == 273 {
			return true
		}
		return TransportBlockSizeBytes(m, n) >= bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBLERShape(t *testing.T) {
	m := MCS(15)
	at := BLER(m, m.snrRequired())
	if math.Abs(at-0.10) > 0.02 {
		t.Fatalf("BLER at operating point = %v, want ~0.10", at)
	}
	if BLER(m, m.snrRequired()+10) > 0.01 {
		t.Fatal("BLER with 10 dB margin should be tiny")
	}
	if BLER(m, m.snrRequired()-10) < 0.5 {
		t.Fatal("BLER 10 dB below requirement should be near 1")
	}
	// Monotone decreasing in SNR.
	prev := 1.1
	for snr := -10.0; snr < 40; snr++ {
		b := BLER(m, snr)
		if b > prev {
			t.Fatalf("BLER not monotone at %v dB", snr)
		}
		prev = b
	}
}

func TestHARQRetxBLER(t *testing.T) {
	if HARQRetxBLER(0.1) >= 0.1 {
		t.Fatal("retx BLER should improve on first BLER")
	}
	if HARQRetxBLER(0.9) > 0.9 {
		t.Fatal("retx BLER should never exceed first BLER")
	}
	if HARQRetxBLER(0) < 1e-7 {
		t.Fatal("retx BLER should be floored")
	}
}

func TestChannelStationaryStats(t *testing.T) {
	cfg := DefaultGoodChannel()
	cfg.DipRate = 0 // isolate the Gauss–Markov process
	ch := NewChannel(cfg, sim.NewRNG(11))
	var sum, sq float64
	const n = 20000
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now += 500 * sim.Microsecond
		v := ch.Sample(now)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-cfg.MeanSNRdB) > 1.5 {
		t.Fatalf("channel mean = %v, want ~%v", mean, cfg.MeanSNRdB)
	}
	want := math.Sqrt(cfg.StdSNRdB*cfg.StdSNRdB + cfg.FastFadeStdDB*cfg.FastFadeStdDB)
	if std < want*0.5 || std > want*2 {
		t.Fatalf("channel std = %v, want ~%v", std, want)
	}
}

func TestChannelScriptedDip(t *testing.T) {
	cfg := DefaultGoodChannel()
	cfg.DipRate = 0
	cfg.FastFadeStdDB = 0
	cfg.StdSNRdB = 0
	ch := NewChannel(cfg, sim.NewRNG(12))
	ch.ScriptDip(sim.Second, 2*sim.Second, 15)
	before := ch.Sample(500 * sim.Millisecond)
	during := ch.Sample(1500 * sim.Millisecond)
	after := ch.Sample(2500 * sim.Millisecond)
	if math.Abs(before-cfg.MeanSNRdB) > 0.01 || math.Abs(after-cfg.MeanSNRdB) > 0.01 {
		t.Fatalf("SNR outside dip: before=%v after=%v", before, after)
	}
	if math.Abs(during-(cfg.MeanSNRdB-15)) > 0.01 {
		t.Fatalf("SNR during dip = %v, want %v", during, cfg.MeanSNRdB-15)
	}
}

func TestChannelDeterminism(t *testing.T) {
	mk := func() []float64 {
		ch := NewChannel(DefaultPoorChannel(), sim.NewRNG(99))
		var out []float64
		for i := 1; i <= 1000; i++ {
			out = append(out, ch.Sample(sim.Time(i)*sim.Millisecond))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("channel stream diverged at %d", i)
		}
	}
}

func TestLinkAdapterReportInterval(t *testing.T) {
	la := NewLinkAdapter(0, 20*sim.Millisecond)
	m1 := la.MCSForSlot(0, 25)
	// Within the report interval the MCS must not change even if SNR
	// collapses.
	m2 := la.MCSForSlot(10*sim.Millisecond, -5)
	if m2 != m1 {
		t.Fatalf("MCS changed within report interval: %v -> %v", m1, m2)
	}
	m3 := la.MCSForSlot(25*sim.Millisecond, -5)
	if m3 >= m1 {
		t.Fatalf("MCS did not drop after report: %v -> %v", m1, m3)
	}
}

func TestLinkAdapterBackoff(t *testing.T) {
	agg := NewLinkAdapter(0, 0)
	con := NewLinkAdapter(5, 0)
	snr := 15.0
	if con.MCSForSlot(0, snr) >= agg.MCSForSlot(0, snr) {
		t.Fatal("conservative adapter should select lower MCS")
	}
}

// Property: BLER is always within (0,1] and decreasing margins raise it.
func TestBLERProperty(t *testing.T) {
	f := func(mRaw uint8, snrRaw int8) bool {
		m := MCS(int(mRaw) % 28)
		snr := float64(snrRaw) / 2
		b := BLER(m, snr)
		if b <= 0 || b > 1 {
			return false
		}
		return BLER(m, snr-3) >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMCSSelectionBLERAligned(t *testing.T) {
	// Link adaptation must be consistent with the BLER model: the MCS
	// selected for any SNR has first-transmission BLER at or below
	// ~10% plus quantization slack. (A misalignment here caused >50%
	// BLER retransmission storms in an earlier build.)
	for snr := -5.0; snr <= 35; snr += 0.5 {
		m := MCSForSNR(snr, 0)
		if b := BLER(m, snr); b > 0.12 {
			t.Fatalf("MCSForSNR(%v)=%v has BLER %v", snr, m, b)
		}
	}
	// Backoff only lowers the index.
	if MCSForSNR(20, 4) >= MCSForSNR(20, 0) {
		t.Fatal("backoff did not lower MCS")
	}
}

func TestMCSFromCQIConservative(t *testing.T) {
	// Quantizing SNR through CQI must never pick a higher MCS than the
	// unquantized selection at the same SNR.
	for snr := -5.0; snr <= 35; snr += 0.5 {
		cqi := CQIFromSNR(snr)
		if MCSFromCQI(cqi, 0) > MCSForSNR(snr, 0) {
			t.Fatalf("CQI path more aggressive than direct at %v dB", snr)
		}
	}
}
