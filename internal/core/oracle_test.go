package core_test

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// rollAgainstOracle drives eval over set exactly like the streaming
// analyzer drives it (observe the time-merged records the wire format
// delivers, evict to the window start, evaluate monotonically advancing
// windows) and requires the feature vector at every window position to
// be byte-identical to the full-recompute oracle's over the set.
func rollAgainstOracle(t *testing.T, cfg core.DetectorConfig, eval *core.WindowEvaluator, set *trace.Set) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	sr := trace.NewStreamReader(&buf)
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		eval.Observe(rec)
	}
	end := set.Duration - cfg.Window
	for start := sim.Time(0); start <= end; start += cfg.Step {
		eval.EvictBefore(start)
		got := eval.Eval(start)
		want := core.OracleWindow(set, cfg, start)
		if got != want {
			t.Fatalf("window [%v, %v) diverged:\nrolling: %v\noracle:  %v",
				start, start+cfg.Window, got.Active(), want.Active())
		}
	}
}

// hostileMCS plants in the set's DCI series MCS values outside 0–31,
// which the index saturates and the oracle groups raw; in the middle of
// the call more rows of one MCS in one group than a uint16 counts, so a
// histogram count narrower than its group's sample count would wrap;
// and rows with a negative PRB count, which both group by MCS. Windows
// over them must still match the oracle.
func hostileMCS(set *trace.Set) {
	for i := range set.DCI {
		switch r := &set.DCI[i]; {
		case i%97 == 0:
			r.MCS = [...]int{-3, 32, 1 << 40}[i/97%3]
		case i%211 == 0:
			r.OwnPRB = -r.OwnPRB
		}
	}
	mid := len(set.DCI) / 2
	burst := make([]trace.DCIRecord, 1<<16+1)
	for i := range burst {
		burst[i] = set.DCI[mid]
		burst[i].OwnPRB, burst[i].MCS = 4, 7
	}
	set.DCI = slices.Insert(set.DCI, mid, burst...)
}

// TestRollingEvalMatchesOracle is the rolling engine's differential
// pin: for every registered scenario, and for one with hostileMCS rows,
// a WindowEvaluator must match the oracle at every window position (see
// rollAgainstOracle). One evaluator is recycled across scenarios via
// Reset, so the pooled-reuse path is pinned against the oracle too.
func TestRollingEvalMatchesOracle(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const dur = 12 * sim.Second
	var eval *core.WindowEvaluator
	names := scenario.Names()
	for i, name := range append(names, "hostile-mcs") {
		seed := uint64(17 + i)
		t.Run(name, func(t *testing.T) {
			if i == len(names) {
				name = "midcall-snr-collapse"
			}
			sc, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sc.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			set := sess.Run(dur)
			if i == len(names) {
				hostileMCS(set)
			}
			if eval == nil {
				eval = analyzer.NewWindowEvaluator(set.HasGNBLog)
			} else {
				eval.Reset(set.HasGNBLog)
			}
			rollAgainstOracle(t, analyzer.Config(), eval, set)
		})
	}
}

// TestRollingEvalCustomGeometry pins the rolling engine against the
// oracle under aligned geometries other than the paper's: a shorter
// window with finer rate bins and a coarser trend group, and a window
// whose last rate bin is partial — each over a clean trace and over one
// with hostileMCS rows.
func TestRollingEvalCustomGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.DetectorConfig
	}{
		{"short-window", core.DetectorConfig{Window: 1500 * sim.Millisecond, Step: 250 * sim.Millisecond, RateBin: 50 * sim.Millisecond, TrendGroup: 4}},
		{"partial-rate-bin", core.DetectorConfig{Window: 2050 * sim.Millisecond, Step: 500 * sim.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			analyzer, err := core.NewAnalyzer(tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.ByName("worst-case-combined")
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sc.Build(5)
			if err != nil {
				t.Fatal(err)
			}
			set := sess.Run(10 * sim.Second)
			rollAgainstOracle(t, analyzer.Config(), analyzer.NewWindowEvaluator(set.HasGNBLog), set)
			t.Run("hostile-mcs", func(t *testing.T) {
				hostileMCS(set)
				rollAgainstOracle(t, analyzer.Config(), analyzer.NewWindowEvaluator(set.HasGNBLog), set)
			})
		})
	}
}

// TestNewAnalyzerGeometry pins which configurations NewAnalyzer takes:
// every geometry the tree uses, and the MCS thresholds at both ends of
// (0, 31]; and, each with an error naming its rule, a window start that
// splits a rate bin or an MCS group, a window end that splits an MCS
// group, a bin or group width below zero (zero selects the default) and
// an MCS threshold just outside (0, 31].
func TestNewAnalyzerGeometry(t *testing.T) {
	const ms = sim.Millisecond
	above31, below0 := math.Nextafter(31, 32), math.Nextafter(0, -1)
	for _, tc := range []struct {
		name string
		cfg  core.DetectorConfig
		rule string // "" when accepted
	}{
		{"defaults", core.DetectorConfig{}, ""},
		{"window-2s", core.DetectorConfig{Window: 2 * sim.Second}, ""},
		{"window-5s", core.DetectorConfig{Window: 5 * sim.Second}, ""},
		{"window-10s", core.DetectorConfig{Window: 10 * sim.Second}, ""},
		{"window-1s-step-500ms", core.DetectorConfig{Window: sim.Second, Step: 500 * ms}, ""},
		{"short-window", core.DetectorConfig{Window: 1500 * ms, Step: 250 * ms, RateBin: 50 * ms}, ""},
		{"partial-rate-bin", core.DetectorConfig{Window: 2050 * ms}, ""},
		{"mcs-thresholds-at-ends", core.DetectorConfig{MCSMedianBelow: math.SmallestNonzeroFloat64, MCSP90Below: 31}, ""},
		{"unaligned-step", core.DetectorConfig{Window: 3 * sim.Second, Step: 330 * ms}, "Step 0.330s must be a multiple of RateBin"},
		{"step-splits-mcs-group", core.DetectorConfig{MCSGroup: 200 * ms}, "Step 0.500s must be a multiple of MCSGroup"},
		{"window-splits-mcs-group", core.DetectorConfig{Window: 5030 * ms}, "Window 5.030s must be a multiple of MCSGroup"},
		{"negative-rate-bin", core.DetectorConfig{RateBin: -100 * ms}, "RateBin -0.100s must be positive"},
		{"negative-mcs-group", core.DetectorConfig{MCSGroup: -50 * ms}, "MCSGroup -0.050s must be positive"},
		{"median-threshold-below-0", core.DetectorConfig{MCSMedianBelow: below0}, "MCSMedianBelow"},
		{"median-threshold-above-31", core.DetectorConfig{MCSMedianBelow: above31}, "MCSMedianBelow"},
		{"p90-threshold-below-0", core.DetectorConfig{MCSP90Below: below0}, "MCSP90Below"},
		{"p90-threshold-above-31", core.DetectorConfig{MCSP90Below: above31}, "MCSP90Below"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.NewAnalyzer(tc.cfg, nil)
			switch {
			case tc.rule == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.rule != "" && err == nil:
				t.Fatalf("accepted; want an error naming %q", tc.rule)
			case tc.rule != "" && !strings.Contains(err.Error(), tc.rule):
				t.Fatalf("error %q does not name %q", err, tc.rule)
			}
		})
	}
}

// TestNewAnalyzerRefusesOutOfRange: a negative value in any field of
// DetectorConfig, and 1 in each of the three fractions, would pin an
// event for every input, so NewAnalyzer refuses each with an error
// naming the field; a fraction just below 1 is taken.
func TestNewAnalyzerRefusesOutOfRange(t *testing.T) {
	typ := reflect.TypeOf(core.DetectorConfig{})
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		var cfg core.DetectorConfig
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		if f.CanInt() {
			f.SetInt(-1)
		} else {
			f.SetFloat(-1)
		}
		if _, err := core.NewAnalyzer(cfg, nil); err == nil || !strings.Contains(err.Error(), "core: "+name+" ") || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s -1: err %v, want one naming %s as not positive", name, err, name)
		}
	}
	for _, name := range []string{"RelDrop", "PushbackNeqFrac", "RateExceedFrac"} {
		var cfg core.DetectorConfig
		f := reflect.ValueOf(&cfg).Elem().FieldByName(name)
		f.SetFloat(1)
		if _, err := core.NewAnalyzer(cfg, nil); err == nil || !strings.Contains(err.Error(), "core: "+name+" 1 must be below 1") {
			t.Errorf("%s 1: err %v, want one naming %s as not below 1", name, err, name)
		}
		f.SetFloat(math.Nextafter(1, 0))
		if _, err := core.NewAnalyzer(cfg, nil); err != nil {
			t.Errorf("%s just below 1: %v", name, err)
		}
	}
}

// fuzzRow is how many fuzzer bytes make one record in fuzzSet.
const fuzzRow = 8

// fuzzSet decodes a sorted trace from fuzzer bytes, eight a record. The
// low three bits of a record's byte 0 pick its series (0–2 DCI, 3–4
// stats, 5–6 packet, 7 a gNB log line or an RRC change) and the high
// five advance the clock by 0–62 ms; bytes 1–7 are its fields. A DCI
// row's MCS is byte 2 as an int8 shifted left by byte 7 (so any sign and
// beyond 32 bits), its own PRB count byte 3 as an int8, its TBS bytes
// 5–6 as an int16 times 64.
func fuzzSet(data []byte) *trace.Set {
	set := &trace.Set{HasGNBLog: len(data)%2 == 0}
	var at sim.Time
	for ; len(data) >= fuzzRow; data = data[fuzzRow:] {
		b := data[:fuzzRow]
		at += sim.Time(b[0]>>3) * 2 * sim.Millisecond
		dir := netem.Direction(b[1] & 1)
		switch b[0] & 7 {
		case 0, 1, 2:
			set.DCI = append(set.DCI, trace.DCIRecord{
				At: at, Dir: dir, OwnPRB: int(int8(b[3])), OtherPRB: int(b[4]),
				MCS: int(int8(b[2])) << (b[7] & 63), TBSBits: int(int16(uint16(b[5])<<8|uint16(b[6]))) * 64,
				HARQRetx: b[1]&2 != 0, RLCRetx: b[1]&4 != 0,
			})
		case 3, 4:
			set.Stats = append(set.Stats, trace.WebRTCStatsRecord{
				At: at, Local: b[1]&1 == 0, GCCNetState: trace.GCCState(b[1] >> 1 & 3 % 3), OutboundHeight: 180 * int(b[1]>>5),
				InboundFPS: float64(b[2] % 40), OutboundFPS: float64(b[3] % 40), VideoJBDelayMs: float64(b[4] % 4),
				TargetBitrateBps: float64(b[5]) * 1e4, PushbackRateBps: float64(b[6]) * 1e4,
				OutstandingBytes: int(b[7]&15) * 1000, CongestionWindow: int(b[7]>>4) * 3000,
			})
		case 5, 6:
			set.Packets = append(set.Packets, trace.PacketRecord{
				Kind: netem.MediaKind(b[2] & 3), Dir: dir, Size: int(b[3]) * 8,
				SentAt: at, Arrived: at + sim.Time(b[4])*sim.Millisecond,
			})
		default:
			if b[1]&2 == 0 {
				set.GNBLogs = append(set.GNBLogs, trace.GNBLogRecord{At: at, Kind: trace.GNBLogKind(b[2] % 3), Dir: dir})
			} else {
				set.RRC = append(set.RRC, trace.RRCRecord{At: at, Connected: true, RNTI: uint32(b[3])})
			}
		}
	}
	set.Duration = at + sim.Second
	return set
}

// FuzzRollingMatchesOracle requires the rolling engine to match the
// oracle at every window of a trace the fuzzer's bytes build (fuzzSet):
// DCI rows with any MCS, PRB counts of either sign and any TBS, beside
// stats, packets, gNB log lines and RRC changes, under a short geometry
// whose windows a few hundred records fill and under a 2 s window. The
// seeds carry hostileMCS's shapes: MCS values of -3, 32 and 2^40, rows
// with a negative PRB count, and a burst of rows of one MCS in one
// group.
func FuzzRollingMatchesOracle(f *testing.F) {
	var analyzers []*core.Analyzer
	for _, cfg := range []core.DetectorConfig{
		{Window: sim.Second, Step: 250 * sim.Millisecond, RateBin: 50 * sim.Millisecond, TrendGroup: 2, MCSLowCount: 1, HARQCount: 1},
		{Window: 2 * sim.Second},
	} {
		a, err := core.NewAnalyzer(cfg, nil)
		if err != nil {
			f.Fatal(err)
		}
		analyzers = append(analyzers, a)
	}
	row := func(kind, ms byte, fields ...byte) []byte {
		return append([]byte{ms/2<<3 | kind}, append(fields, make([]byte, fuzzRow-1-len(fields))...)...)
	}
	var hostile []byte
	for i := 0; i < 50; i++ {
		mcs, shift, own := [...]byte{12, 0xfd, 32, 1}[i%4], byte(i%4/3*40), byte(10)
		if i%7 == 0 {
			own = 0xf6 // -10
		}
		hostile = append(hostile, row(0, 20, byte(i%2), mcs, own, byte(i%5), 0x01, 0x40, shift)...)
		hostile = append(hostile, row(5, 0, byte(i%2), byte(i%4), 150, byte(20+i%120))...)
		hostile = append(hostile, row(3, 0, byte(i%2)|byte(3-i/17)<<5, byte(30-i%25), 30, 1, 100, 100, 0x35)...)
		if i == 25 { // a burst of one MCS at one instant
			for k := 0; k < 40; k++ {
				hostile = append(hostile, row(0, 0, 0, 7, 4, 0, 0x01, 0x40)...)
			}
		}
	}
	f.Add(hostile)
	f.Add(hostile[:len(hostile)/3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512*fuzzRow {
			t.Skip("more than 512 records")
		}
		set := fuzzSet(data)
		for _, a := range analyzers {
			rollAgainstOracle(t, a.Config(), a.NewWindowEvaluator(set.HasGNBLog), set)
		}
	})
}
