package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// goldenSet is a hand-built set that owes nothing to the simulator:
// 1 206 records over all five series (three binary blocks), every field
// of every record non-zero, the booleans true on some rows and false on
// others. The gNB note changes at tick 150 and the RRC cause at tick 120,
// both inside the second block, so the binary stream carries a dict
// frame between blocks.
func goldenSet() *Set {
	set := &Set{CellName: "golden <cell>", Scenario: "hand-built", Duration: 240 * sim.Millisecond, HasGNBLog: true}
	for i := 0; i < 240; i++ {
		at := sim.Time(i+1) * sim.Millisecond
		for j := 1; j <= 2; j++ {
			set.DCI = append(set.DCI, DCIRecord{
				At: at + sim.Time(j), Dir: netem.Direction(j), RNTI: 17000 + uint32(i%3),
				OwnPRB: 1 + i%50, OtherPRB: -1 - i, MCS: 1 + i%28, TBSBits: 200 + 977*i, UsedBits: 100 + 31*i,
				HARQRetx: i%2 == 0, RLCRetx: i%3 == 0, Proactive: i%5 == 0, Unused: i%7 == 0,
			})
		}
		note := "rlc \"buffer\" <ul>\n"
		if i >= 150 {
			note = "retx ✓ & more"
		}
		set.GNBLogs = append(set.GNBLogs, GNBLogRecord{
			At: at + 3, Kind: GNBLogKind(1 + i%2), Dir: netem.Downlink, BufferBytes: 1 + 1500*i, RNTI: 1 + uint32(i), Note: note,
		})
		set.Packets = append(set.Packets, PacketRecord{
			Seq: 1 << 40 * uint64(i+1), Kind: netem.MediaKind(1 + i%3), Dir: netem.Downlink, Size: 60 + i,
			SentAt: at + 4, Arrived: at + 4 + sim.Time(9000-100*i), // the later packets arrive before they were sent
		})
		f := float64(i + 1)
		set.Stats = append(set.Stats, WebRTCStatsRecord{
			At: at + 5, Local: i%2 == 1, InboundFPS: 29.97, OutboundFPS: f / 8, OutboundHeight: 180 * (1 + i%4),
			InboundHeight: 720, VideoJBDelayMs: 42.5 + f, AudioJBDelayMs: f * 1e-7, MinJBDelayMs: -f,
			FrozenNow: i%4 == 0, FreezeTotalMs: f * 1e21, ConcealedSamples: uint64(i + 1), TotalSamples: 1<<63 + uint64(i),
			TargetBitrateBps: 2.5e6, PushbackRateBps: 1e6 / f, OutstandingBytes: 1 + 3*i, CongestionWindow: -1 - i,
			GCCNetState: GCCState(1 + i%2), TrendlineSlope: -1.25e-3 * f, TrendlineThreshold: 12.5, AckedBitrateBps: 2.1e6 + f,
		})
		if i%40 == 0 {
			cause := "setup"
			if i >= 120 {
				cause = "re-establishment"
			}
			set.RRC = append(set.RRC, RRCRecord{At: at + 6, Connected: i%80 == 0, RNTI: 17000 + uint32(i), Cause: cause})
		}
	}
	return set
}

// TestWireGolden pins the bytes of both encodings of goldenSet. The
// round trips and the encoding/json oracle pin the encoders to their
// decoders and to the legacy JSON; only a committed digest notices the
// DMNTRCB1 layout itself moving. A failure here means written traces
// changed: that is a format change, not a refactor.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		write  func(io.Writer, *Set) error
		size   int
		sha256 string
	}{
		{"binary", WriteBinary, 41301, "16c21e8b8bf7c8df9decca5ba7f8993fc29c3f066a5474d441fe7351d314f6fb"},
		{"jsonl", WriteJSONL, 267643, "1b4bae4d9e578372496ec5733c5e3bcf0f1f172d973ee2f43e3b7985052d1c3c"},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf, goldenSet()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 || buf.Len() != tc.size {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.name, buf.Len(), got, tc.size, tc.sha256)
		}
	}
}
