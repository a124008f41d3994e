package core

import (
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

func TestFeatureNamesCount(t *testing.T) {
	names := featureNames
	if len(names) != 36 {
		t.Fatalf("feature vector has %d dims, want 36", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"local_jitter_buffer_drain", "remote_target_bitrate_down",
		"forward_delay_up", "reverse_delay_up",
		"ul_harq_retx", "dl_rlc_retx", "ul_scheduling", "rrc_state_change",
	} {
		if !seen[want] {
			t.Fatalf("missing feature %q", want)
		}
	}
}

func TestDefaultGraphHas24Chains(t *testing.T) {
	g := DefaultGraph()
	chains := g.EnumerateChains()
	if len(chains) != 24 {
		t.Fatalf("default graph enumerates %d chains, paper specifies 24", len(chains))
	}
	// All six causes and three consequence classes appear.
	causes := map[string]bool{}
	cons := map[string]bool{}
	for _, c := range chains {
		causes[c.Cause()] = true
		cons[c.Consequence()] = true
	}
	for _, c := range CauseClasses() {
		if !causes[c] {
			t.Fatalf("cause %q missing from default chains", c)
		}
	}
	for _, c := range ConsequenceClasses() {
		if !cons[c] {
			t.Fatalf("consequence %q missing from default chains", c)
		}
	}
}

func TestGraphKinds(t *testing.T) {
	g := DefaultGraph()
	if g.Kind("poor_channel") != KindCause {
		t.Fatal("poor_channel should be a cause")
	}
	if g.Kind("forward_delay_up") != KindIntermediate {
		t.Fatal("forward_delay_up should be intermediate")
	}
	if g.Kind("pushback_rate_down") != KindConsequence {
		t.Fatal("pushback_rate_down should be a consequence")
	}
}

func TestParserRejectsCycle(t *testing.T) {
	_, err := ParseChainsString("a --> b\nb --> a\n")
	if err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestParserRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"A --> b", "a ->> b", "a -->", "alias x y", "alias = b"} {
		if _, err := ParseChainsString(bad); err == nil {
			t.Fatalf("accepted invalid line %q", bad)
		}
	}
}

func TestParserFig11Example(t *testing.T) {
	// The exact example from the paper's Fig. 11.
	text := `dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain
`
	g, err := ParseChainsString(text)
	if err != nil {
		t.Fatal(err)
	}
	chains := g.EnumerateChains()
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	if g.Kind("local_jitter_buffer_drain") != KindConsequence {
		t.Fatal("consequence kind wrong")
	}
	if len(g.Causes()) != 2 {
		t.Fatalf("causes = %v", g.Causes())
	}
}

// synthSet builds a synthetic trace that triggers a known causal chain:
// DL HARQ retx → forward delay up → local jitter buffer drain, active
// between 10 s and 15 s of a 30 s trace.
func synthSet() *trace.Set {
	set := &trace.Set{CellName: "synthetic", Duration: 30 * sim.Second, HasGNBLog: true}
	// Stats at 50 ms for both sides.
	for at := sim.Time(0); at < 30*sim.Second; at += 50 * sim.Millisecond {
		inEvent := at >= 10*sim.Second && at < 15*sim.Second
		local := trace.WebRTCStatsRecord{
			At: at, Local: true,
			InboundFPS: 30, OutboundFPS: 30, OutboundHeight: 540,
			VideoJBDelayMs: 120, TargetBitrateBps: 2e6, PushbackRateBps: 2e6,
			OutstandingBytes: 10000, CongestionWindow: 50000,
		}
		if inEvent {
			local.VideoJBDelayMs = 0 // drain
			local.InboundFPS = 12
		}
		remote := local
		remote.Local = false
		remote.VideoJBDelayMs = 100
		remote.InboundFPS = 30
		set.Stats = append(set.Stats, local, remote)
	}
	// Media packets every 10 ms in both directions; DL delay ramps
	// during the event (30 → 200 ms), UL stays flat.
	seq := uint64(0)
	for at := sim.Time(0); at < 30*sim.Second; at += 10 * sim.Millisecond {
		seq++
		set.Packets = append(set.Packets, trace.PacketRecord{
			Seq: seq, Kind: netem.KindVideo, Dir: netem.Uplink, Size: 1200,
			SentAt: at, Arrived: at + 30*sim.Millisecond,
		})
		dlDelay := 30 * sim.Millisecond
		if at >= 10*sim.Second && at < 15*sim.Second {
			frac := float64(at-10*sim.Second) / float64(5*sim.Second)
			dlDelay = sim.FromMilliseconds(30 + 170*frac)
		}
		seq++
		set.Packets = append(set.Packets, trace.PacketRecord{
			Seq: seq, Kind: netem.KindVideo, Dir: netem.Downlink, Size: 1200,
			SentAt: at, Arrived: at + dlDelay,
		})
	}
	// DCI: healthy UL and DL scheduling; DL HARQ retx burst in-event.
	for at := sim.Time(0); at < 30*sim.Second; at += 2 * sim.Millisecond {
		set.DCI = append(set.DCI, trace.DCIRecord{
			At: at, Dir: netem.Uplink, RNTI: 100, OwnPRB: 20, MCS: 20, TBSBits: 20000,
		})
		rec := trace.DCIRecord{At: at, Dir: netem.Downlink, RNTI: 100, OwnPRB: 20, MCS: 20, TBSBits: 20000}
		if at >= 10*sim.Second && at < 15*sim.Second && (at/(2*sim.Millisecond))%10 == 0 {
			rec.HARQRetx = true
		}
		set.DCI = append(set.DCI, rec)
	}
	set.Sort()
	return set
}

func TestAnalyzerDetectsInjectedChain(t *testing.T) {
	a, err := NewAnalyzer(DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(synthSet())
	if err != nil {
		t.Fatal(err)
	}
	// The drain consequence must be detected...
	if rep.EventCount("jitter_buffer_drain") == 0 {
		t.Fatal("jitter buffer drain not detected")
	}
	// ...the forward delay intermediate...
	if rep.EventCount("forward_delay_up") == 0 {
		t.Fatal("forward delay uptrend not detected")
	}
	// ...and the HARQ cause, linked via a matched chain.
	if rep.EventCount("harq_retx") == 0 {
		t.Fatal("HARQ retx cause not detected")
	}
	found := false
	for _, w := range rep.Windows {
		for _, id := range w.ChainIDs {
			c := a.Chains()[id-1]
			if c.Cause() == "harq_retx" && c.Consequence() == "jitter_buffer_drain" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("harq→jb-drain chain never matched")
	}
	// The detection must be localized around the injected window.
	for _, runs := range rep.NodeEvents["jitter_buffer_drain"] {
		if runs.End < 9*sim.Second || runs.Start > 17*sim.Second {
			t.Fatalf("drain detected far from injection: %+v", runs)
		}
	}
}

func TestAnalyzerQuietTraceIsQuiet(t *testing.T) {
	set := &trace.Set{CellName: "quiet", Duration: 20 * sim.Second}
	for at := sim.Time(0); at < 20*sim.Second; at += 50 * sim.Millisecond {
		rec := trace.WebRTCStatsRecord{
			At: at, Local: true, InboundFPS: 30, OutboundFPS: 30, OutboundHeight: 540,
			VideoJBDelayMs: 100, TargetBitrateBps: 2e6, PushbackRateBps: 2e6,
			OutstandingBytes: 10000, CongestionWindow: 50000,
		}
		rem := rec
		rem.Local = false
		set.Stats = append(set.Stats, rec, rem)
	}
	seq := uint64(0)
	for at := sim.Time(0); at < 20*sim.Second; at += 10 * sim.Millisecond {
		for _, dir := range []netem.Direction{netem.Uplink, netem.Downlink} {
			seq++
			set.Packets = append(set.Packets, trace.PacketRecord{
				Seq: seq, Kind: netem.KindVideo, Dir: dir, Size: 1200,
				SentAt: at, Arrived: at + 25*sim.Millisecond,
			})
		}
	}
	set.Sort()
	a, _ := NewAnalyzer(DetectorConfig{}, nil)
	rep, err := a.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, cons := range ConsequenceClasses() {
		if n := rep.EventCount(cons); n != 0 {
			t.Fatalf("quiet trace produced %d %s events", n, cons)
		}
	}
	if rep.TotalChainEvents() != 0 {
		t.Fatalf("quiet trace matched %d chains", rep.TotalChainEvents())
	}
}

func TestConditionalProbabilities(t *testing.T) {
	a, _ := NewAnalyzer(DetectorConfig{}, nil)
	rep, err := a.Analyze(synthSet())
	if err != nil {
		t.Fatal(err)
	}
	probs := rep.ConditionalProbabilities(CauseClasses(), ConsequenceClasses())
	row := probs["jitter_buffer_drain"]
	if row["harq_retx"] == 0 {
		t.Fatalf("P(harq|jb_drain) = 0; row = %v", row)
	}
	for cause, p := range row {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %s=%v", cause, p)
		}
	}
}

func TestChainRatiosSumBounded(t *testing.T) {
	a, _ := NewAnalyzer(DetectorConfig{}, nil)
	rep, _ := a.Analyze(synthSet())
	ratios := rep.ChainRatios(CauseClasses(), ConsequenceClasses())
	var sum float64
	for _, row := range ratios {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("ratio out of range: %v", v)
			}
			sum += v
		}
	}
	if sum > 1.0001 {
		t.Fatalf("ratios sum to %v > 1", sum)
	}
}

func TestEventRunCollapsing(t *testing.T) {
	// A single 5 s event seen by ~10 overlapping windows must count as
	// one event run, not ten.
	a, _ := NewAnalyzer(DetectorConfig{}, nil)
	rep, _ := a.Analyze(synthSet())
	runs := rep.NodeEvents["jitter_buffer_drain"]
	if len(runs) > 2 {
		t.Fatalf("one injected drain produced %d event runs", len(runs))
	}
	if runs[0].Windows < 3 {
		t.Fatalf("run covers only %d windows", runs[0].Windows)
	}
}

func TestMergeReports(t *testing.T) {
	a, _ := NewAnalyzer(DetectorConfig{}, nil)
	r1, _ := a.Analyze(synthSet())
	r2, _ := a.Analyze(synthSet())
	m := MergeReports([]*Report{r1, r2})
	if m.Duration != r1.Duration*2 {
		t.Fatal("merged duration wrong")
	}
	if m.EventCount("jitter_buffer_drain") != 2*r1.EventCount("jitter_buffer_drain") {
		t.Fatal("merged event counts wrong")
	}
}

// TestMergeReportsKeepsSessionsApart: a merged report attributes a
// consequence run only to chain runs of its own session, so its Table 2
// row is the per-session rows weighted by their event counts.
func TestMergeReportsKeepsSessionsApart(t *testing.T) {
	a, _ := NewAnalyzer(DetectorConfig{}, nil)
	rng := rand.New(rand.NewSource(1))
	var reps []*Report
	for range 4 {
		inc := a.NewIncremental("")
		for w := range 200 {
			var b FeatureBits
			for i := range NumFeatures {
				b.Assign(i, rng.Intn(3) == 0)
			}
			inc.Step(FeatureVector{Start: sim.Time(w) * sim.Second, End: sim.Time(w+5) * sim.Second, Bits: b})
		}
		reps = append(reps, inc.Finish(204*sim.Second))
	}
	causes, cons := CauseClasses(), ConsequenceClasses()
	got := MergeReports(reps).ConditionalProbabilities(causes, cons)
	for _, c := range cons {
		for _, cause := range append(causes, "unknown") {
			var hits, events float64
			for _, r := range reps {
				n := float64(r.EventCount(c))
				hits += r.ConditionalProbabilities(causes, cons)[c][cause] * n
				events += n
			}
			if want := hits / events; math.Abs(got[c][cause]-want) > 1e-9 {
				t.Errorf("P(%s | %s) = %.4f merged, %.4f over the sessions", cause, c, got[c][cause], want)
			}
		}
	}
}

func TestGeneratedGoParses(t *testing.T) {
	src := GenerateGo(DefaultGraph(), "detect")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "detect.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	// Every chain ID appears exactly once.
	for i := 1; i <= 24; i++ {
		marker := "res.Chains = append(res.Chains, "
		if !strings.Contains(src, marker) {
			t.Fatal("no chain appends in generated code")
		}
	}
	if got := strings.Count(src, "res.Chains = append"); got != 24 {
		t.Fatalf("generated code has %d chain sites, want 24", got)
	}
}

// TestGeneratedGoMatchesInterpreter: a window's ChainIDs, as
// Incremental.Step matches them over the compiled graph, are the chains
// whose every node NodeActive finds active by name — the predicate
// GenerateGo emits. It checks every assignment of the Fig. 11 graph's
// four features and a seeded sample of vectors on the default graph.
func TestGeneratedGoMatchesInterpreter(t *testing.T) {
	fig11, err := ParseChainsString(`dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain
`)
	if err != nil {
		t.Fatal(err)
	}
	var every, sample []FeatureBits
	for mask := range 16 {
		var b FeatureBits
		for k, name := range []string{"dl_rlc_retx", "dl_harq_retx", "forward_delay_up", "local_jitter_buffer_drain"} {
			b.Assign(slices.Index(featureNames, name), mask&(1<<k) != 0)
		}
		every = append(every, b)
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		var b FeatureBits
		density := rng.Float64()
		for i := range NumFeatures {
			b.Assign(i, rng.Float64() < density)
		}
		sample = append(sample, b)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		vecs []FeatureBits
	}{{"fig11", fig11, every}, {"default", DefaultGraph(), sample}} {
		a, err := NewAnalyzer(DetectorConfig{}, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		inc := a.NewIncremental(tc.name)
		matched := 0
		for w, bits := range tc.vecs {
			v := FeatureVector{Start: sim.Time(w), End: sim.Time(w + 1), Bits: bits}
			inc.Step(v)
			var want []int
			for _, c := range a.Chains() {
				if !slices.ContainsFunc(c.Nodes, func(n string) bool { return !tc.g.NodeActive(n, v) }) {
					want = append(want, c.ID)
				}
			}
			if got := inc.rep.Windows[w].ChainIDs; !slices.Equal(got, want) {
				t.Fatalf("%s: features %v match chains %v, want %v", tc.name, v.Active(), got, want)
			}
			matched += len(want)
		}
		if matched == 0 {
			t.Fatalf("%s: no vector matched a chain", tc.name)
		}
	}
}

// Property: any parseable acyclic chain file enumerates at least one
// chain per line.
func TestParserProperty(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	f := func(edges []uint8) bool {
		var lines []string
		for _, e := range edges {
			from := nodes[int(e)%3]   // a,b,c
			to := nodes[3+int(e/3)%3] // d,e,f — guarantees acyclicity
			lines = append(lines, from+" --> "+to)
		}
		if len(lines) == 0 {
			return true
		}
		g, err := ParseChainsString(strings.Join(lines, "\n"))
		if err != nil {
			return false
		}
		return len(g.EnumerateChains()) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
