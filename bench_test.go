package domino

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/experiments"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// Every table and figure of the paper's evaluation has a benchmark that
// regenerates it (DESIGN.md §6). Benchmarks double as the reproduction
// harness: run `go test -bench=. -benchmem` to regenerate all
// artifacts; per-artifact text output comes from cmd/experiments.

const benchDuration = 20 * sim.Second

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.Options{Duration: benchDuration, Seed: 1, Sessions: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunParallel([]string{id}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res[0].Text) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// benchRunAll regenerates every artifact through the batch engine with
// the given worker-pool width; the sequential/parallel pair below is
// the headline scaling comparison (artifact text is identical in both,
// only the wall clock moves).
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	opts := experiments.Options{Duration: benchDuration, Seed: 1, Sessions: 1, Workers: workers}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunParallel(experiments.IDs(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(experiments.IDs()) {
			b.Fatalf("got %d artifacts, want %d", len(results), len(experiments.IDs()))
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B)   { benchRunAll(b, runtime.GOMAXPROCS(0)) }

// BenchmarkAnalyzeBatch measures the concurrent batch analyzer over
// eight independent 10 s traces.
func BenchmarkAnalyzeBatch(b *testing.B) {
	sets := make([]*trace.Set, 8)
	for i := range sets {
		sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Amarisoft(), uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = sess.Run(10 * sim.Second)
	}
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analyzer.AnalyzeBatch(workers, sets...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamAnalyzer compares the incremental analyzer against
// batch analysis on one 10 s session: records/s is ingest throughput,
// max-buffered-samples the peak trace state each path holds (the
// streaming path's O(window) bound versus the batch path's O(trace)).
func BenchmarkStreamAnalyzer(b *testing.B) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Amarisoft(), 1))
	if err != nil {
		b.Fatal(err)
	}
	set := sess.Run(10 * sim.Second)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		b.Fatal(err)
	}
	sr := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
	var records []trace.Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		records = append(records, rec)
	}
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	totalSamples := float64(len(records) - 1) // minus header

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		// One analyzer recycled across sessions via Reset — the pooled
		// steady state a fleet ingest service (cmd/dominod) runs in.
		sa := stream.New(analyzer, stream.Config{})
		var peak int
		for i := 0; i < b.N; i++ {
			sa.Reset()
			for _, rec := range records {
				if err := sa.Push(rec); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sa.Close(); err != nil {
				b.Fatal(err)
			}
			peak = sa.Stats().MaxBuffered
		}
		b.ReportMetric(totalSamples*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(float64(peak), "max-buffered-samples")
	})
	b.Run("block", func(b *testing.B) {
		// The same session as the wire's columnar blocks, pushed whole:
		// the path dominod's binary ingest takes.
		var bin bytes.Buffer
		if err := trace.WriteBinary(&bin, set); err != nil {
			b.Fatal(err)
		}
		br := trace.NewBinaryStreamReader(&bin)
		var blocks []*trace.Block
		for {
			blk, err := br.ReadBlock()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			blocks = append(blocks, blk)
		}
		b.ReportAllocs()
		b.ResetTimer()
		sa := stream.New(analyzer, stream.Config{})
		var peak int
		for i := 0; i < b.N; i++ {
			sa.Reset()
			for _, blk := range blocks {
				if _, err := sa.PushBlock(blk, 0); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sa.Close(); err != nil {
				b.Fatal(err)
			}
			peak = sa.Stats().MaxBuffered
		}
		b.ReportMetric(totalSamples*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(float64(peak), "max-buffered-samples")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.Analyze(set); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(totalSamples*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(totalSamples, "max-buffered-samples")
	})
}

// BenchmarkWindowEval measures the rolling window evaluator alone: one
// 10 s session's records observed and every window position evaluated
// with eviction, exactly as the streaming analyzer drives it. The
// evaluator is recycled via Reset, so the number reflects the pooled
// steady state (windows/s and the zero-alloc eval contract).
func BenchmarkWindowEval(b *testing.B) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Amarisoft(), 3))
	if err != nil {
		b.Fatal(err)
	}
	set := sess.Run(10 * sim.Second)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		b.Fatal(err)
	}
	sr := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
	var records []trace.Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		if rec.Header == nil {
			records = append(records, rec)
		}
	}
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := analyzer.Config()
	eval := analyzer.NewWindowEvaluator(set.HasGNBLog)
	end := set.Duration - cfg.Window
	windows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Reset(set.HasGNBLog)
		for _, rec := range records {
			eval.Observe(rec)
		}
		windows = 0
		for start := sim.Time(0); start <= end; start += cfg.Step {
			eval.EvictBefore(start)
			eval.Eval(start)
			windows++
		}
	}
	b.ReportMetric(float64(windows*b.N)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(len(records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkIncrementalStep measures the compiled-DAG state machine
// alone: feeding one session's precomputed feature vectors through
// Incremental.Step (backward trace, run collapsing), with the
// Incremental recycled via Reset.
func BenchmarkIncrementalStep(b *testing.B) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Amarisoft(), 3))
	if err != nil {
		b.Fatal(err)
	}
	set := sess.Run(10 * sim.Second)
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := analyzer.Analyze(set)
	if err != nil {
		b.Fatal(err)
	}
	vectors := make([]core.FeatureVector, len(rep.Windows))
	for i, w := range rep.Windows {
		vectors[i] = w.Vector
	}
	inc := analyzer.NewIncremental(set.CellName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Reset(set.CellName)
		inc.SetKeepWindows(false)
		for _, v := range vectors {
			inc.Step(v)
		}
		inc.Finish(set.Duration)
	}
	b.ReportMetric(float64(len(vectors)*b.N)/b.Elapsed().Seconds(), "steps/s")
}

func BenchmarkTable1DatasetRates(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig2DelayCDF(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkFig3JitterBuffer(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4Playback(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5ZoomJitter(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6ZoomLoss(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig8CellMetrics(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig10EventFrequencies(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTable2ConditionalProb(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3Resolutions(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4ChainRatios(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkFig11Codegen(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12ChannelDip(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13CrossTraffic(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14DelaySpread(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig16ProactiveGrants(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17HARQ(b *testing.B)             { benchExperiment(b, "fig17") }
func BenchmarkFig18RLCRetx(b *testing.B)          { benchExperiment(b, "fig18") }
func BenchmarkFig19RRC(b *testing.B)              { benchExperiment(b, "fig19") }
func BenchmarkFig20Freeze(b *testing.B)           { benchExperiment(b, "fig20") }
func BenchmarkFig21GCCTargetRate(b *testing.B)    { benchExperiment(b, "fig21") }
func BenchmarkFig22Pushback(b *testing.B)         { benchExperiment(b, "fig22") }
func BenchmarkHeadlineEventsPerMin(b *testing.B)  { benchExperiment(b, "headline") }
func BenchmarkScenarioCatalog(b *testing.B)       { benchExperiment(b, "scenarios") }

// BenchmarkScenarioTraceGen measures trace-generation throughput per
// registered scenario: one simulated call per iteration, reporting
// emitted trace records per wall-clock second. fleetbench's
// scenario.gen_records_per_s is the figure that is kept.
func BenchmarkScenarioTraceGen(b *testing.B) {
	for _, name := range scenario.Names() {
		b.Run(name, func(b *testing.B) {
			sc, err := scenario.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var total float64
			for i := 0; i < b.N; i++ {
				sess, err := sc.Build(1)
				if err != nil {
					b.Fatal(err)
				}
				set := sess.Run(benchDuration)
				c := set.Counts()
				total += float64(c.DCI + c.GNBLog + c.Packets + c.WebRTC)
			}
			b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(benchDuration.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
		})
	}
}

// --- Component benchmarks: simulator throughput and analyzer cost. ---

// BenchmarkSimulatedCallSecond measures simulator throughput: one
// simulated call-second on the Amarisoft preset per iteration.
func BenchmarkSimulatedCallSecond(b *testing.B) {
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Amarisoft(), 1))
	if err != nil {
		b.Fatal(err)
	}
	sess.Local.Start()
	sess.Remote.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Engine.RunUntil(sim.Time(i+1) * sim.Second)
	}
}

// benchTraceSet builds one reusable trace for analyzer benchmarks.
func benchTraceSet(b *testing.B) *trace.Set {
	b.Helper()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(ran.Amarisoft(), 5))
	if err != nil {
		b.Fatal(err)
	}
	return sess.Run(30 * sim.Second)
}

// BenchmarkAnalyzerInterp measures the in-process backward-trace
// detector over a 30 s cross-layer trace.
func BenchmarkAnalyzerInterp(b *testing.B) {
	set := benchTraceSet(b)
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.Analyze(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorCodegen measures generating the Go detector source
// from the default graph (the Fig. 11 path).
func BenchmarkDetectorCodegen(b *testing.B) {
	g := core.DefaultGraph()
	for i := 0; i < b.N; i++ {
		src := core.GenerateGo(g, "detect")
		if !strings.Contains(src, "BackwardTrace") {
			b.Fatal("bad codegen")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §7). ---

// BenchmarkAblationWindow sweeps the sliding-window length W and
// reports detected chain events, showing detection stability versus
// window geometry.
func BenchmarkAblationWindow(b *testing.B) {
	set := benchTraceSet(b)
	for _, w := range []sim.Time{2 * sim.Second, 5 * sim.Second, 10 * sim.Second} {
		name := w.String()
		b.Run("W="+name, func(b *testing.B) {
			analyzer, err := core.NewAnalyzer(core.DetectorConfig{Window: w}, nil)
			if err != nil {
				b.Fatal(err)
			}
			var events int
			for i := 0; i < b.N; i++ {
				rep, err := analyzer.Analyze(set)
				if err != nil {
					b.Fatal(err)
				}
				events = rep.TotalChainEvents()
			}
			b.ReportMetric(float64(events), "chain-events")
		})
	}
}

// BenchmarkAblationProactiveGrants compares first-packet UL latency
// with and without Mosolabs-style proactive grants.
func BenchmarkAblationProactiveGrants(b *testing.B) {
	for _, pro := range []bool{true, false} {
		name := "proactive=off"
		if pro {
			name = "proactive=on"
		}
		b.Run(name, func(b *testing.B) {
			var medMs float64
			for i := 0; i < b.N; i++ {
				cfg := ran.Mosolabs()
				cfg.ULGrants.Proactive = pro
				sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				set := sess.Run(benchDuration)
				delays := set.PacketDelays(0) // uplink, all kinds
				if len(delays) == 0 {
					b.Fatal("no packets")
				}
				sum := 0.0
				for _, d := range delays {
					sum += d
				}
				medMs = sum / float64(len(delays))
			}
			b.ReportMetric(medMs, "mean-UL-delay-ms")
		})
	}
}

// BenchmarkAblationHARQLimit sweeps the HARQ retransmission cap and
// reports RLC recovery activity: lower caps push recovery to the
// (much slower) RLC layer.
func BenchmarkAblationHARQLimit(b *testing.B) {
	for _, maxAttempts := range []int{2, 5, 8} {
		b.Run("maxAttempts="+strconv.Itoa(maxAttempts), func(b *testing.B) {
			var rlcRetx uint64
			for i := 0; i < b.N; i++ {
				cfg := ran.Amarisoft()
				cfg.HARQ.MaxAttempts = maxAttempts
				sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cfg, 9))
				if err != nil {
					b.Fatal(err)
				}
				sess.Run(benchDuration)
				rlcRetx = sess.Cell.ULStats().RLCRetx
			}
			b.ReportMetric(float64(rlcRetx), "rlc-retx")
		})
	}
}

// BenchmarkAblationTrendlineThreshold compares the adaptive threshold
// against a fixed one by counting overuse events on the same trace.
func BenchmarkAblationTrendlineThreshold(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		name := "threshold=fixed"
		if adaptive {
			name = "threshold=adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var overuses uint64
			for i := 0; i < b.N; i++ {
				cfg := rtc.DefaultSessionConfig(ran.TMobileFDD(), 13)
				if !adaptive {
					// Freeze the threshold by zeroing the gains.
					cfg.Local.GCC.Trendline.KUp = 0
					cfg.Local.GCC.Trendline.KDown = 0
				}
				sess, err := rtc.NewSession(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sess.Run(benchDuration)
				overuses = sess.Local.Controller().Snapshot(benchDuration).OveruseEvents
			}
			b.ReportMetric(float64(overuses), "overuse-events")
		})
	}
}
