package ran

import (
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// sendBurst enqueues n packets of size bytes on the link at time at.
func sendBurst(e *sim.Engine, link netem.Link, at sim.Time, n, size int, kind netem.MediaKind) {
	e.Schedule(at, func() {
		for i := 0; i < n; i++ {
			link.Send(&netem.Packet{Seq: uint64(at) + uint64(i), Kind: kind, Size: size, SentAt: e.Now()})
		}
	})
}

func newTestCell(t *testing.T, cfg CellConfig, seed uint64) (*sim.Engine, *Cell, *[]*netem.Packet, *[]*netem.Packet, *trace.Collector) {
	t.Helper()
	e := sim.NewEngine()
	var ulOut, dlOut []*netem.Packet
	col := trace.NewCollector(cfg.Name, cfg.HasGNBLog)
	cell, err := NewCell(e, sim.NewRNG(seed), cfg,
		func(p *netem.Packet) { ulOut = append(ulOut, p) },
		func(p *netem.Packet) { dlOut = append(dlOut, p) },
		col)
	if err != nil {
		t.Fatal(err)
	}
	return e, cell, &ulOut, &dlOut, col
}

func TestCellULDelivery(t *testing.T) {
	e, cell, ulOut, _, _ := newTestCell(t, Mosolabs(), 2)
	for b := 0; b < 30; b++ {
		sendBurst(e, cell.ULLink(), sim.Time(b)*33*sim.Millisecond, 6, 1200, netem.KindVideo)
	}
	e.RunUntil(3 * sim.Second)
	if len(*ulOut) != 180 {
		t.Fatalf("delivered %d/180 UL packets", len(*ulOut))
	}
	// All packets experience the request-grant scheduling delay: one-way
	// through the RAN must exceed a few ms but stay bounded.
	for _, p := range *ulOut {
		d := p.ArrivedAt - p.SentAt
		if d < sim.Millisecond {
			t.Fatalf("UL delay %v implausibly low", d)
		}
		if d > sim.Second {
			t.Fatalf("UL delay %v implausibly high", d)
		}
	}
}

func TestCellDLDelivery(t *testing.T) {
	e, cell, _, dlOut, _ := newTestCell(t, Mosolabs(), 3)
	for b := 0; b < 30; b++ {
		sendBurst(e, cell.DLLink(), sim.Time(b)*33*sim.Millisecond, 6, 1200, netem.KindVideo)
	}
	e.RunUntil(3 * sim.Second)
	if len(*dlOut) != 180 {
		t.Fatalf("delivered %d/180 DL packets", len(*dlOut))
	}
}

func TestCellULSlowerThanDL(t *testing.T) {
	// The request–grant loop makes UL median delay exceed DL on an
	// otherwise symmetric healthy cell (§5.2.1).
	e, cell, ulOut, dlOut, _ := newTestCell(t, Mosolabs(), 4)
	for b := 0; b < 100; b++ {
		at := sim.Time(b) * 33 * sim.Millisecond
		sendBurst(e, cell.ULLink(), at, 5, 1200, netem.KindVideo)
		sendBurst(e, cell.DLLink(), at, 5, 1200, netem.KindVideo)
	}
	e.RunUntil(5 * sim.Second)
	med := func(pkts []*netem.Packet) sim.Time {
		if len(pkts) == 0 {
			t.Fatal("no packets")
		}
		ds := make([]sim.Time, len(pkts))
		for i, p := range pkts {
			ds[i] = p.ArrivedAt - p.SentAt
		}
		for i := range ds {
			for j := i + 1; j < len(ds); j++ {
				if ds[j] < ds[i] {
					ds[i], ds[j] = ds[j], ds[i]
				}
			}
		}
		return ds[len(ds)/2]
	}
	ulMed, dlMed := med(*ulOut), med(*dlOut)
	if ulMed <= dlMed {
		t.Fatalf("UL median %v should exceed DL median %v", ulMed, dlMed)
	}
	if dlMed > 20*sim.Millisecond {
		t.Fatalf("DL median %v too high for a quiet private cell", dlMed)
	}
}

func TestCellEmitsDCITelemetry(t *testing.T) {
	e, cell, _, _, col := newTestCell(t, Amarisoft(), 5)
	for b := 0; b < 60; b++ {
		sendBurst(e, cell.ULLink(), sim.Time(b)*33*sim.Millisecond, 4, 1200, netem.KindVideo)
	}
	e.RunUntil(2 * sim.Second)
	if len(col.Set.DCI) == 0 {
		t.Fatal("no DCI records")
	}
	sawOwn := false
	for _, r := range col.Set.DCI {
		if r.OwnPRB > 0 {
			sawOwn = true
			if r.MCS < 0 || r.MCS > 27 {
				t.Fatalf("DCI MCS %d out of range", r.MCS)
			}
			if r.TBSBits <= 0 {
				t.Fatal("DCI with own PRBs but zero TBS")
			}
		}
	}
	if !sawOwn {
		t.Fatal("no DCI records with own-UE allocations")
	}
	// Amarisoft exposes gNB logs.
	if len(col.Set.GNBLogs) == 0 {
		t.Fatal("no gNB log records on the Amarisoft cell")
	}
}

func TestCellCommercialHasNoGNBLogs(t *testing.T) {
	e, cell, _, _, col := newTestCell(t, TMobileTDD(), 6)
	for b := 0; b < 30; b++ {
		sendBurst(e, cell.ULLink(), sim.Time(b)*33*sim.Millisecond, 4, 1200, netem.KindVideo)
	}
	e.RunUntil(sim.Second)
	if len(col.Set.GNBLogs) != 0 {
		t.Fatalf("commercial cell leaked %d gNB log records", len(col.Set.GNBLogs))
	}
}

func TestCellPoorULChannelCausesHARQRetx(t *testing.T) {
	e, cell, ulOut, _, _ := newTestCell(t, Amarisoft(), 7)
	for b := 0; b < 300; b++ {
		sendBurst(e, cell.ULLink(), sim.Time(b)*33*sim.Millisecond, 4, 1200, netem.KindVideo)
	}
	// Generous drain time: deep fades can stall the last packets for a
	// while.
	e.RunUntil(14 * sim.Second)
	st := cell.ULStats()
	if st.HARQRetx == 0 {
		t.Fatal("poor UL channel produced no HARQ retransmissions")
	}
	if len(*ulOut) != 1200 {
		t.Fatalf("delivered %d/1200 despite retx (RLC AM must not lose data)", len(*ulOut))
	}
}

func TestCellCrossTrafficInflatesDelay(t *testing.T) {
	quiet := Mosolabs()
	e1, c1, _, out1, _ := newTestCell(t, quiet, 8)
	for b := 0; b < 150; b++ {
		sendBurst(e1, c1.DLLink(), sim.Time(b)*33*sim.Millisecond, 6, 1200, netem.KindVideo)
	}
	e1.RunUntil(6 * sim.Second)

	e2, c2, _, out2, _ := newTestCell(t, Mosolabs(), 8)
	c2.DLCross().ScriptBurst(0, 6*sim.Second, 0.92)
	for b := 0; b < 150; b++ {
		sendBurst(e2, c2.DLLink(), sim.Time(b)*33*sim.Millisecond, 6, 1200, netem.KindVideo)
	}
	e2.RunUntil(6 * sim.Second)

	mean := func(pkts []*netem.Packet) float64 {
		var s float64
		for _, p := range pkts {
			s += (p.ArrivedAt - p.SentAt).Milliseconds()
		}
		return s / float64(len(pkts))
	}
	if len(*out2) == 0 {
		t.Fatal("no packets under cross traffic")
	}
	m1, m2 := mean(*out1), mean(*out2)
	if m2 < m1*1.5 {
		t.Fatalf("cross traffic did not inflate DL delay: quiet %.2fms vs loaded %.2fms", m1, m2)
	}
	_ = c1
}

func TestCellRRCOutageBuffersAndRecovers(t *testing.T) {
	cfg := Mosolabs()
	e, cell, ulOut, _, col := newTestCell(t, cfg, 9)
	cell.RRC().ScriptRelease(sim.Second)
	for b := 0; b < 90; b++ {
		sendBurst(e, cell.ULLink(), sim.Time(b)*33*sim.Millisecond, 4, 1200, netem.KindVideo)
	}
	e.RunUntil(4 * sim.Second)
	if len(*ulOut) != 360 {
		t.Fatalf("delivered %d/360 across RRC outage", len(*ulOut))
	}
	var maxDelay sim.Time
	for _, p := range *ulOut {
		if d := p.ArrivedAt - p.SentAt; d > maxDelay {
			maxDelay = d
		}
	}
	// Packets caught in the ~300 ms outage see large delay spikes.
	if maxDelay < 200*sim.Millisecond {
		t.Fatalf("max delay %v too small for an RRC outage", maxDelay)
	}
	if len(col.Set.RRC) < 2 {
		t.Fatalf("RRC transitions not in telemetry: %d", len(col.Set.RRC))
	}
	if col.Set.RRC[0].RNTI == col.Set.RRC[len(col.Set.RRC)-1].RNTI &&
		col.Set.RRC[0].Connected != col.Set.RRC[len(col.Set.RRC)-1].Connected {
		t.Fatal("RNTI should change across reconnection")
	}
}

func TestCellProactiveGrantsReduceFirstPacketDelay(t *testing.T) {
	pro := Mosolabs()
	noPro := Mosolabs()
	noPro.ULGrants.Proactive = false

	firstDelay := func(cfg CellConfig) sim.Time {
		e, cell, out, _, _ := newTestCell(t, cfg, 10)
		// One isolated small packet: proactive credit should carry it
		// without waiting for the BSR round trip.
		sendBurst(e, cell.ULLink(), 100*sim.Millisecond, 1, 600, netem.KindAudio)
		e.RunUntil(sim.Second)
		if len(*out) != 1 {
			t.Fatalf("%s: delivered %d", cfg.Name, len(*out))
		}
		return (*out)[0].ArrivedAt - (*out)[0].SentAt
	}
	dPro, dNoPro := firstDelay(pro), firstDelay(noPro)
	if dPro >= dNoPro {
		t.Fatalf("proactive grants did not cut first-packet delay: %v vs %v", dPro, dNoPro)
	}
}

func TestCellProactiveWaste(t *testing.T) {
	e, cell, _, _, col := newTestCell(t, Mosolabs(), 11)
	// No traffic at all: every proactive grant is wasted.
	e.RunUntil(2 * sim.Second)
	if cell.ULStats().WastedBytes == 0 {
		t.Fatal("idle proactive grants wasted no bytes")
	}
	unused := 0
	for _, r := range col.Set.DCI {
		if r.Proactive && r.Unused {
			unused++
		}
	}
	if unused == 0 {
		t.Fatal("no unused proactive DCI records")
	}
}

func TestCellChannelDipBuildsBuffer(t *testing.T) {
	cfg := Amarisoft()
	cfg.ULChannel.DipRate = 0 // deterministic: only the scripted dip
	e, cell, ulOut, _, _ := newTestCell(t, cfg, 12)
	cell.ULChannel().ScriptDip(sim.Second, 2*sim.Second, 18)

	var maxBufDuringDip int
	e.NewTicker(0, 10*sim.Millisecond, func(now sim.Time) {
		if now >= sim.Second && now < 2200*sim.Millisecond {
			if b := cell.ULBufferBytes(); b > maxBufDuringDip {
				maxBufDuringDip = b
			}
		}
	})
	// Keep the offered load below the cell's post-dip UL capacity so
	// the buffer can drain once the channel recovers.
	for b := 0; b < 120; b++ {
		sendBurst(e, cell.ULLink(), sim.Time(b)*33*sim.Millisecond, 5, 1200, netem.KindVideo)
	}
	e.RunUntil(8 * sim.Second)
	if maxBufDuringDip < 20000 {
		t.Fatalf("RLC buffer during dip only %d bytes; expected build-up", maxBufDuringDip)
	}
	if len(*ulOut) != 600 {
		t.Fatalf("delivered %d/600", len(*ulOut))
	}
	var maxDelay sim.Time
	for _, p := range *ulOut {
		if d := p.ArrivedAt - p.SentAt; d > maxDelay {
			maxDelay = d
		}
	}
	if maxDelay < 80*sim.Millisecond {
		t.Fatalf("max delay %v during 18 dB dip; expected a surge", maxDelay)
	}
}

func TestSplitPRBs(t *testing.T) {
	own, cross := splitPRBs(10, 20, 100)
	if own != 10 || cross != 20 {
		t.Fatal("uncontended split should satisfy both")
	}
	own, cross = splitPRBs(50, 150, 100)
	if own+cross > 100 {
		t.Fatal("split exceeds budget")
	}
	if own != 25 {
		t.Fatalf("proportional share = %d, want 25", own)
	}
	own, _ = splitPRBs(1, 10000, 100)
	if own < 1 {
		t.Fatal("nonzero demand should never starve completely")
	}
	own, cross = splitPRBs(0, 0, 100)
	if own != 0 || cross != 0 {
		t.Fatal("zero demand")
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"fdd", "tdd", "amarisoft", "mosolabs", " tdd ", " T-Mobile 15MHz FDD "} {
		if _, err := PresetByName(name); err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatal("unknown preset should error")
	}
	for _, cfg := range Presets() {
		if _, err := PresetByName(cfg.Name); err != nil {
			t.Fatalf("full-name lookup %q failed", cfg.Name)
		}
	}
}

// TestCellCatalog pins the cell table: Table 1 order, which every
// artifact rendered from Presets() follows, and one cell per lookup
// name — a slug, alias or full name that two cells shared would
// resolve to whichever comes first.
func TestCellCatalog(t *testing.T) {
	want := []string{"tmobile-tdd", "tmobile-fdd", "amarisoft", "mosolabs"}
	if got := CellNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CellNames() = %v, want %v", got, want)
	}
	seen := map[string]string{}
	for _, e := range cells {
		for _, n := range append([]string{e.slug, e.build().Name}, e.aliases...) {
			key := strings.ToLower(n)
			if prev, dup := seen[key]; dup {
				t.Errorf("lookup name %q of %s also names %s", n, e.slug, prev)
			}
			seen[key] = e.slug
		}
		for _, n := range append([]string{e.slug}, e.aliases...) {
			if n != strings.ToLower(n) {
				t.Errorf("%s: slug or alias %q is not lowercase, so PresetByName never matches it", e.slug, n)
			}
		}
	}
}

func TestCellInvalidConfig(t *testing.T) {
	e := sim.NewEngine()
	cfg := Mosolabs()
	cfg.BandwidthMHz = 17
	if _, err := NewCell(e, sim.NewRNG(1), cfg, nil, nil, nil); err == nil {
		t.Fatal("invalid bandwidth accepted")
	}
	cfg = Mosolabs()
	cfg.MaxUEShare = 0
	if _, err := NewCell(e, sim.NewRNG(1), cfg, nil, nil, nil); err == nil {
		t.Fatal("invalid MaxUEShare accepted")
	}
}
