package mac

import (
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/phy"
	"github.com/domino5g/domino/internal/rlc"
	"github.com/domino5g/domino/internal/sim"
)

func TestTDDPattern(t *testing.T) {
	p := TDD("DDDSU")
	want := []SlotKind{SlotDL, SlotDL, SlotDL, SlotSpecial, SlotUL}
	for i := int64(0); i < 10; i++ {
		if p.Kind(i) != want[i%5] {
			t.Fatalf("slot %d kind = %v", i, p.Kind(i))
		}
	}
	if p.IsFDD() {
		t.Fatal("TDD pattern claims FDD")
	}
	if p.String() != "DDDSU" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestTDDHasULDL(t *testing.T) {
	p := TDD("DDDSU")
	if p.HasUL(0) || !p.HasUL(4) {
		t.Fatal("HasUL wrong")
	}
	if !p.HasDL(0) || !p.HasDL(3) || p.HasDL(4) {
		t.Fatal("HasDL wrong")
	}
}

func TestFDDPattern(t *testing.T) {
	p := FDD()
	if !p.IsFDD() || p.Kind(17) != SlotBoth || !p.HasUL(3) || !p.HasDL(3) {
		t.Fatal("FDD pattern wrong")
	}
}

func TestTDDInvalidPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid pattern did not panic")
		}
	}()
	TDD("DDX")
}

func TestSlotClock(t *testing.T) {
	c := SlotClock{SlotDuration: 500 * sim.Microsecond}
	if c.SlotAt(1250*sim.Microsecond) != 2 {
		t.Fatal("SlotAt")
	}
}

// amarisoftHARQ is the Amarisoft cell's HARQ configuration.
var amarisoftHARQ = HARQConfig{RTT: 10 * sim.Millisecond, MaxAttempts: 5}

func mkTB(id uint64, mcs phy.MCS) *TB {
	return &TB{ID: id, MCS: mcs, PRBs: 20, TBSBits: phy.TransportBlockSizeBits(mcs, 20)}
}

func TestHARQAllDecodeAtHighSNR(t *testing.T) {
	e := sim.NewEngine()
	decoded := 0
	h := NewHARQEntity(amarisoftHARQ, e, sim.NewRNG(1),
		func(*TB, sim.Time) { decoded++ }, nil, nil, nil)
	e.Schedule(0, func() {
		for i := 0; i < 200; i++ {
			h.Transmit(mkTB(uint64(i), 10), 40 /* huge margin */, 500*sim.Microsecond)
		}
	})
	e.Run()
	if decoded != 200 {
		t.Fatalf("decoded %d/200 at 40 dB", decoded)
	}
	if h.Retx != 0 {
		t.Fatalf("%d retx at 40 dB", h.Retx)
	}
}

func TestHARQRetxAndExhaustion(t *testing.T) {
	e := sim.NewEngine()
	cfg := HARQConfig{RTT: 10 * sim.Millisecond, MaxAttempts: 3}
	var exhausted, decoded int
	var retxRequests []*TB
	var h *HARQEntity
	h = NewHARQEntity(cfg, e, sim.NewRNG(2),
		func(*TB, sim.Time) { decoded++ },
		func(*TB, sim.Time) { exhausted++ },
		func(tb *TB) {
			retxRequests = append(retxRequests, tb)
			// Cell resends immediately at terrible SNR so it keeps failing.
			h.Transmit(tb, -30, 500*sim.Microsecond)
		}, nil)
	e.Schedule(0, func() { h.Transmit(mkTB(1, 15), -30, 500*sim.Microsecond) })
	e.Run()
	if decoded != 0 {
		t.Fatal("decoded at -30 dB")
	}
	if exhausted != 1 {
		t.Fatalf("exhausted = %d, want 1", exhausted)
	}
	if len(retxRequests) != 2 { // attempts 1 and 2 after the first
		t.Fatalf("retx requests = %d, want 2", len(retxRequests))
	}
	if h.Exhausted != 1 {
		t.Fatal("stats: exhausted counter")
	}
}

func TestHARQRetxTiming(t *testing.T) {
	e := sim.NewEngine()
	cfg := HARQConfig{RTT: 10 * sim.Millisecond, MaxAttempts: 5}
	var retxAt []sim.Time
	var h *HARQEntity
	h = NewHARQEntity(cfg, e, sim.NewRNG(3), nil, nil, func(tb *TB) {
		retxAt = append(retxAt, e.Now())
		if len(retxAt) < 3 {
			h.Transmit(tb, -30, 500*sim.Microsecond)
		}
	}, nil)
	e.Schedule(0, func() {
		tb := mkTB(1, 10)
		tb.SentAt = 0
		h.Transmit(tb, -30, 500*sim.Microsecond)
	})
	e.Run()
	if len(retxAt) < 2 {
		t.Fatalf("only %d retx", len(retxAt))
	}
	// Retx n becomes schedulable at SentAt + n*RTT — the ~10 ms per
	// cycle delay inflation of Fig. 17.
	if retxAt[0] != 10*sim.Millisecond {
		t.Fatalf("first retx at %v, want 10ms", retxAt[0])
	}
	if retxAt[1] != 20*sim.Millisecond {
		t.Fatalf("second retx at %v, want 20ms", retxAt[1])
	}
}

func TestHARQOutcomeCallback(t *testing.T) {
	e := sim.NewEngine()
	var outcomes []HARQOutcome
	h := NewHARQEntity(amarisoftHARQ, e, sim.NewRNG(4), nil, nil, nil,
		func(o HARQOutcome) { outcomes = append(outcomes, o) })
	e.Schedule(0, func() { h.Transmit(mkTB(1, 5), 40, sim.Millisecond) })
	e.Run()
	if len(outcomes) != 1 || !outcomes[0].Decoded || outcomes[0].At != sim.Millisecond {
		t.Fatalf("outcomes = %+v", outcomes)
	}
}

func TestCrossTrafficQuiet(t *testing.T) {
	ct := NewCrossTraffic(QuietCell(), 100, sim.NewRNG(5))
	for i := sim.Time(0); i < sim.Second; i += 500 * sim.Microsecond {
		if d := ct.DemandPRBs(i, 500*sim.Microsecond); d != 0 {
			t.Fatalf("quiet cell demanded %d PRBs", d)
		}
	}
}

func TestCrossTrafficBusyStats(t *testing.T) {
	ct := NewCrossTraffic(BusyCommercialDL(), 79, sim.NewRNG(6))
	var sum, n float64
	nonzero := 0
	for i := sim.Time(0); i < 2*sim.Minute; i += sim.Millisecond {
		d := ct.DemandPRBs(i, sim.Millisecond)
		if d < 0 || d > 79 {
			t.Fatalf("demand %d out of range", d)
		}
		if d > 0 {
			nonzero++
		}
		sum += float64(d)
		n++
	}
	mean := sum / n
	if mean < 5 || mean > 70 {
		t.Fatalf("busy-cell mean demand = %v PRBs, implausible", mean)
	}
	if float64(nonzero)/n < 0.9 {
		t.Fatal("busy cell should have near-constant baseline demand")
	}
}

func TestCrossTrafficScriptedBurst(t *testing.T) {
	ct := NewCrossTraffic(QuietCell(), 100, sim.NewRNG(7))
	ct.ScriptBurst(sim.Second, 2*sim.Second, 0.8)
	if d := ct.DemandPRBs(1500*sim.Millisecond, sim.Millisecond); d != 80 {
		t.Fatalf("scripted demand = %d, want 80", d)
	}
	if d := ct.DemandPRBs(2500*sim.Millisecond, sim.Millisecond); d != 0 {
		t.Fatalf("demand after burst = %d", d)
	}
}

func TestULSchedulerBasicPipeline(t *testing.T) {
	cfg := GrantConfig{SchedulingDelay: 12 * sim.Millisecond, BSRPeriod: 2 * sim.Millisecond, MaxGrantBytes: 100000}
	s := NewULScheduler(cfg)
	// Slot at t=0 with 5000 buffered bytes: BSR goes out, nothing usable.
	usable, _ := s.OnULSlot(0, 5000)
	if usable != 0 {
		t.Fatalf("grant usable immediately: %d", usable)
	}
	if s.BSRsSent != 1 {
		t.Fatal("BSR not sent")
	}
	// Before the scheduling delay: still nothing, and no duplicate BSR
	// for the same bytes.
	usable, _ = s.OnULSlot(5*sim.Millisecond, 5000)
	if usable != 0 || s.BSRsSent != 1 {
		t.Fatalf("pipeline leaked early: usable=%d bsrs=%d", usable, s.BSRsSent)
	}
	// After the delay the grant is usable and covers the BSR.
	usable, proactive := s.OnULSlot(12*sim.Millisecond, 5000)
	if usable != 5000 || proactive {
		t.Fatalf("usable = %d (proactive=%v), want 5000", usable, proactive)
	}
}

func TestULSchedulerGrowingBuffer(t *testing.T) {
	cfg := GrantConfig{SchedulingDelay: 10 * sim.Millisecond, BSRPeriod: 2 * sim.Millisecond, MaxGrantBytes: 100000}
	s := NewULScheduler(cfg)
	s.OnULSlot(0, 3000)
	// Buffer grows: a second BSR should cover only the delta.
	s.OnULSlot(2*sim.Millisecond, 7000)
	if s.BSRsSent != 2 {
		t.Fatalf("BSRs = %d, want 2", s.BSRsSent)
	}
	total := 0
	u, _ := s.OnULSlot(10*sim.Millisecond, 7000)
	total += u
	u, _ = s.OnULSlot(12*sim.Millisecond, 7000)
	total += u
	if total != 7000 {
		t.Fatalf("granted %d total, want 7000", total)
	}
}

func TestULSchedulerMaxGrantCap(t *testing.T) {
	cfg := GrantConfig{SchedulingDelay: sim.Millisecond, BSRPeriod: sim.Millisecond, MaxGrantBytes: 1000}
	s := NewULScheduler(cfg)
	s.OnULSlot(0, 5000)
	u, _ := s.OnULSlot(sim.Millisecond, 5000)
	if u != 1000 {
		t.Fatalf("grant = %d, want cap 1000", u)
	}
}

func TestULSchedulerProactive(t *testing.T) {
	cfg := GrantConfig{
		SchedulingDelay: 15 * sim.Millisecond, BSRPeriod: 2 * sim.Millisecond,
		MaxGrantBytes: 100000, Proactive: true,
		ProactivePeriod: 5 * sim.Millisecond, ProactiveBytes: 800,
	}
	s := NewULScheduler(cfg)
	// Even with an empty buffer, proactive grants appear immediately.
	u, pro := s.OnULSlot(0, 0)
	if u != 800 || !pro {
		t.Fatalf("proactive grant missing: %d (%v)", u, pro)
	}
	// Next one only after the period.
	u, _ = s.OnULSlot(2*sim.Millisecond, 0)
	if u != 0 {
		t.Fatalf("proactive period violated: %d", u)
	}
	u, pro = s.OnULSlot(5*sim.Millisecond, 0)
	if u != 800 || !pro {
		t.Fatal("second proactive grant missing")
	}
	if s.ProactiveGrants != 2 {
		t.Fatalf("proactive counter = %d", s.ProactiveGrants)
	}
}

// Property: the scheduler eventually grants every buffered byte, with
// over-granting bounded by the grant floor (the last grant may be
// padded to MinGrantBytes).
func TestULSchedulerConservationProperty(t *testing.T) {
	f := func(bufRaw uint16, delayRaw uint8) bool {
		buf := int(bufRaw)%20000 + 1
		cfg := GrantConfig{
			SchedulingDelay: sim.Time(int(delayRaw)%20+1) * sim.Millisecond,
			BSRPeriod:       2 * sim.Millisecond,
			MaxGrantBytes:   4000,
		}
		s := NewULScheduler(cfg)
		granted := 0
		for now := sim.Time(0); now < 500*sim.Millisecond; now += sim.Millisecond {
			remaining := buf - granted
			if remaining < 0 {
				remaining = 0
			}
			u, _ := s.OnULSlot(now, remaining)
			granted += u
		}
		return granted >= buf && granted <= buf+DefaultMinGrantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTBDirectionField(t *testing.T) {
	tb := &TB{Dir: netem.Uplink, Segments: []rlc.Segment{{Length: 10}}}
	if tb.Dir.String() != "UL" || len(tb.Segments) != 1 {
		t.Fatal("TB fields")
	}
}
