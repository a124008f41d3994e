package core_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// rollAgainstOracle drives eval over set exactly like the streaming
// analyzer drives it (observe the time-merged records the wire format
// delivers, evict to the window start, evaluate monotonically advancing
// windows) and requires the feature vector at every window position to
// be byte-identical to the retained full-recompute oracle's.
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
		want := eval.EvalFull(start)
		if got != want {
			t.Fatalf("window [%v, %v) diverged:\nrolling: %v\noracle:  %v",
				start, start+cfg.Window, got.Active(), want.Active())
		}
	}
}

// hostileMCS plants in the set's DCI series what event 16's count
// histograms cannot hold — MCS values outside their range, and in the
// middle of the call more rows of one MCS in one group than a counter
// counts — and rows with a negative PRB count, which the oracle takes
// for allocations. Windows over them must still match the oracle.
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
// oracle under a non-default geometry that breaks the bucket alignment
// of the cached bin events (step not a multiple of the 100 ms rate bin
// or the 50 ms MCS group), forcing the full-recompute fallbacks, and
// under a shorter window with a coarser trend group — each over a clean
// trace and over one with hostileMCS rows.
func TestRollingEvalCustomGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.DetectorConfig
	}{
		{"unaligned-step", core.DetectorConfig{Window: 3 * sim.Second, Step: 330 * sim.Millisecond}},
		{"short-window", core.DetectorConfig{Window: 1500 * sim.Millisecond, Step: 250 * sim.Millisecond, TrendGroup: 4}},
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
