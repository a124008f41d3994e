package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

func sampleSet() *Set {
	c := NewCollector("testcell", true)
	c.OnDCI(DCIRecord{At: 2 * sim.Millisecond, Dir: netem.Uplink, RNTI: 7, OwnPRB: 10, MCS: 12, TBSBits: 8000})
	c.OnDCI(DCIRecord{At: sim.Millisecond, Dir: netem.Downlink, RNTI: 7, OwnPRB: 4, OtherPRB: 30, MCS: 9, TBSBits: 3000, HARQRetx: true})
	c.OnGNBLog(GNBLogRecord{At: 3 * sim.Millisecond, Kind: GNBLogRLCRetx, Dir: netem.Uplink, Note: "x"})
	c.OnPacket(PacketRecord{Seq: 1, Kind: netem.KindVideo, Dir: netem.Uplink, Size: 1200, SentAt: 0, Arrived: 30 * sim.Millisecond})
	c.OnPacket(PacketRecord{Seq: 2, Kind: netem.KindRTCP, Dir: netem.Downlink, Size: 100, SentAt: sim.Millisecond, Arrived: 9 * sim.Millisecond})
	c.OnStats(WebRTCStatsRecord{At: 50 * sim.Millisecond, Local: true, InboundFPS: 30, TargetBitrateBps: 1e6})
	c.OnStats(WebRTCStatsRecord{At: 50 * sim.Millisecond, Local: false, InboundFPS: 29, TargetBitrateBps: 2e6})
	c.OnRRC(RRCRecord{At: 10 * sim.Millisecond, Connected: true, RNTI: 9})
	c.Set.Duration = sim.Second
	c.Set.Sort()
	return &c.Set
}

func TestCollectorAndSort(t *testing.T) {
	set := sampleSet()
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.DCI[0].At > set.DCI[1].At {
		t.Fatal("DCI not sorted")
	}
	counts := set.Counts()
	if counts.DCI != 2 || counts.GNBLog != 1 || counts.Packets != 2 || counts.WebRTC != 2 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestCollectorGNBLogGating(t *testing.T) {
	c := NewCollector("commercial", false)
	c.OnGNBLog(GNBLogRecord{At: 0, Kind: GNBLogRLCRetx})
	if len(c.Set.GNBLogs) != 0 {
		t.Fatal("commercial collector kept gNB logs")
	}
}

func TestRatePerMinute(t *testing.T) {
	set := sampleSet()
	if got := set.RatePerMinute(120); got != 7200 {
		t.Fatalf("RatePerMinute = %v", got)
	}
	empty := &Set{}
	if empty.RatePerMinute(10) != 0 {
		t.Fatal("zero-duration rate should be 0")
	}
}

func TestPacketDelays(t *testing.T) {
	set := sampleSet()
	ul := set.PacketDelays(netem.Uplink)
	if len(ul) != 1 || ul[0] != 30 {
		t.Fatalf("UL delays = %v", ul)
	}
	rtcp := set.PacketDelays(netem.Downlink, netem.KindRTCP)
	if len(rtcp) != 1 || rtcp[0] != 8 {
		t.Fatalf("RTCP delays = %v", rtcp)
	}
	if n := len(set.PacketDelays(netem.Downlink, netem.KindVideo)); n != 0 {
		t.Fatalf("unexpected DL video packets: %d", n)
	}
}

func TestStatsSide(t *testing.T) {
	set := sampleSet()
	if len(set.StatsSide(true)) != 1 || len(set.StatsSide(false)) != 1 {
		t.Fatal("StatsSide split wrong")
	}
	if !set.StatsSide(true)[0].Local {
		t.Fatal("local filter returned remote record")
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*Set)
	}{
		{"negative transit", func(s *Set) { s.Packets[0].Arrived = s.Packets[0].SentAt - sim.Millisecond }},
		{"negative duration", func(s *Set) { s.Duration = -1 }},
		{"unsorted DCI", func(s *Set) { s.DCI[1].At = 0 }},
		{"unsorted stats", func(s *Set) { s.Stats[1].At = sim.Millisecond }},
		// Window analysis starts at 0: a bucket index truncated toward
		// zero would fold -30 ms into the first MCS group.
		{"negative DCI time", func(s *Set) { s.DCI[0].At = -30 * sim.Millisecond }},
		{"negative gNB log time", func(s *Set) { s.GNBLogs[0].At = -1 }},
		{"negative packet send time", func(s *Set) { s.Packets[0].SentAt = -1 }},
		{"negative stats time", func(s *Set) { s.Stats[0].At = -1 }},
		{"negative RRC time", func(s *Set) { s.RRC[0].At = -1 }},
	} {
		set := sampleSet()
		tc.spoil(set)
		if err := set.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	set := sampleSet()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := readSet(NewStreamReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.CellName != set.CellName || got.Duration != set.Duration || got.HasGNBLog != set.HasGNBLog {
		t.Fatal("header mismatch")
	}
	if got.Counts() != set.Counts() {
		t.Fatalf("counts mismatch: %+v vs %+v", got.Counts(), set.Counts())
	}
	if got.DCI[0] != set.DCI[0] || got.Packets[0] != set.Packets[0] {
		t.Fatal("record contents mismatch")
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := readSet(NewStreamReader(strings.NewReader(""))); err == nil {
		t.Fatal("empty input needs a header")
	}
	if _, err := readSet(NewStreamReader(strings.NewReader("not json\n"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := readSet(NewStreamReader(strings.NewReader(`{"type":"mystery","data":{}}` + "\n"))); err == nil {
		t.Fatal("unknown record type accepted")
	}
}

func TestGCCStateString(t *testing.T) {
	if GCCNormal.String() != "normal" || GCCOveruse.String() != "overuse" || GCCUnderuse.String() != "underuse" {
		t.Fatal("GCC state strings")
	}
}

func TestPacketRecordDelay(t *testing.T) {
	p := PacketRecord{SentAt: sim.Millisecond, Arrived: 5 * sim.Millisecond}
	if p.Delay() != 4*sim.Millisecond {
		t.Fatal("Delay")
	}
}
