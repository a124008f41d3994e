package stream

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

func simulate(t testing.TB, cell ran.CellConfig, seed uint64, d sim.Time) *trace.Set {
	t.Helper()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cell, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sess.Run(d)
}

// records round-trips a set through the JSONL wire format into the
// time-ordered record sequence a live collector would deliver.
func records(t testing.TB, set *trace.Set) []trace.Record {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	sr := trace.NewStreamReader(&buf)
	var recs []trace.Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func streamReport(t testing.TB, a *core.Analyzer, recs []trace.Record, cfg Config) (*core.Report, Stats) {
	t.Helper()
	s := New(a, cfg)
	for _, rec := range recs {
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rep, stats
}

// diffReports asserts full equality of the two analysis outputs: every
// window's feature vector, consequences, causes and chain matches, and
// every collapsed node/chain event run.
func diffReports(t *testing.T, batch, stream *core.Report) {
	t.Helper()
	if batch.CellName != stream.CellName {
		t.Fatalf("cell: %q vs %q", batch.CellName, stream.CellName)
	}
	if batch.Duration != stream.Duration {
		t.Fatalf("duration: %v vs %v", batch.Duration, stream.Duration)
	}
	if len(batch.Windows) != len(stream.Windows) {
		t.Fatalf("windows: %d vs %d", len(batch.Windows), len(stream.Windows))
	}
	for i := range batch.Windows {
		if !reflect.DeepEqual(batch.Windows[i], stream.Windows[i]) {
			t.Fatalf("window %d diverged:\nbatch:  %+v\nstream: %+v", i, batch.Windows[i], stream.Windows[i])
		}
	}
	if !reflect.DeepEqual(batch.NodeEvents, stream.NodeEvents) {
		t.Fatalf("node events diverged:\nbatch:  %+v\nstream: %+v", batch.NodeEvents, stream.NodeEvents)
	}
	if !reflect.DeepEqual(batch.ChainEvents, stream.ChainEvents) {
		t.Fatalf("chain events diverged:\nbatch:  %+v\nstream: %+v", batch.ChainEvents, stream.ChainEvents)
	}
}

// TestDifferentialAllPresets is the subsystem's pinning test: for every
// Table 1 preset at a fixed seed, the streaming analyzer fed one record
// at a time produces a report identical to the batch analyzer over the
// complete trace — windows, node events, and chain runs.
func TestDifferentialAllPresets(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const dur = 15 * sim.Second
	for i, cell := range ran.Presets() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			set := simulate(t, cell, uint64(41+i), dur)
			batch, err := analyzer.Analyze(set)
			if err != nil {
				t.Fatal(err)
			}
			recs := records(t, set)
			stream, stats := streamReport(t, analyzer, recs, Config{})
			diffReports(t, batch, stream)

			total := len(set.DCI) + len(set.GNBLogs) + len(set.Packets) + len(set.Stats) + len(set.RRC)
			if stats.Records != total {
				t.Fatalf("streamed %d records, trace holds %d", stats.Records, total)
			}
			// The O(window) claim: with a 5 s window over a 15 s trace
			// the peak buffered state must stay well below the trace.
			if stats.MaxBuffered >= total*2/3 {
				t.Fatalf("buffered %d of %d samples — window eviction is not bounding state", stats.MaxBuffered, total)
			}
			if stats.Windows != len(batch.Windows) {
				t.Fatalf("evaluated %d windows, batch has %d", stats.Windows, len(batch.Windows))
			}
		})
	}
}

// TestDifferentialAllScenarios extends the stream≡batch pin to the
// full scenario catalog: every registered scenario (the four Table 1
// presets plus the ten degradation scenarios) must produce identical
// windows, node events, and chain runs through both paths. One
// streaming analyzer is recycled across scenarios via Reset, pinning
// the pooled fleet-ingest path against the same oracle.
func TestDifferentialAllScenarios(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const dur = 12 * sim.Second
	s := New(analyzer, Config{})
	for i, name := range scenario.Names() {
		name := name
		seed := uint64(61 + i)
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sc.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			set := sess.Run(dur)
			batch, err := analyzer.Analyze(set)
			if err != nil {
				t.Fatal(err)
			}
			s.Reset()
			for _, rec := range records(t, set) {
				if err := s.Push(rec); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			diffReports(t, batch, rep)
		})
	}
}

// TestBatchedPushesAndCallbacks checks chunked ingestion and that the
// hooks announce exactly what the final report holds.
func TestBatchedPushesAndCallbacks(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := simulate(t, ran.Amarisoft(), 7, 12*sim.Second)
	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	recs := records(t, set)

	h := &captureHooks{}
	s := New(analyzer, Config{})
	s.SetHooks(h)
	for len(recs) > 0 {
		n := 97
		if n > len(recs) {
			n = len(recs)
		}
		if err := s.PushBatch(recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, batch, rep)
	if !reflect.DeepEqual(rep.Windows, batch.Windows) {
		t.Fatal("report windows diverged from batch windows")
	}
	h.matchReport(t, rep, s.Stats())
}

// TestHooksInstalledAfterHeader installs hooks once the session is
// under way: they hear every window and every run closed from then on,
// and here, where no run opens before the first window, all of them.
func TestHooksInstalledAfterHeader(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := records(t, simulate(t, ran.TMobileFDD(), 3, 12*sim.Second))
	h := &captureHooks{}
	s := New(analyzer, Config{})
	for i, rec := range recs {
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			s.SetHooks(h)
		}
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalChainEvents() == 0 {
		t.Fatal("no chain run to hear: pick a session that degrades")
	}
	h.matchReport(t, rep, s.Stats())
}

// TestOpenEndedStream analyzes a stream whose header carries no
// duration (a live capture): the final report must equal batch
// analysis with the watermark as the session duration.
func TestOpenEndedStream(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := simulate(t, ran.Mosolabs(), 11, 12*sim.Second)
	recs := records(t, set)

	var watermark sim.Time
	s := New(analyzer, Config{})
	for _, rec := range recs {
		if rec.Header != nil {
			open := *rec.Header
			open.Duration = 0
			if err := s.Push(trace.Record{Header: &open}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if at, ok := rec.Time(); ok && at > watermark {
			watermark = at
		}
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	truncated := *set
	truncated.Duration = watermark
	batch, err := analyzer.Analyze(&truncated)
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, batch, rep)
}

func testHeader() trace.Record {
	return trace.Record{Header: &trace.Header{CellName: "t", Duration: 10 * sim.Second, HasGNBLog: true}}
}

func rrcAt(at sim.Time) trace.Record {
	return trace.Record{RRC: &trace.RRCRecord{At: at, Connected: true}}
}

func TestStreamProtocolErrors(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("record before header", func(t *testing.T) {
		s := New(analyzer, Config{})
		if err := s.Push(rrcAt(0)); !errors.Is(err, ErrNoHeader) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate header", func(t *testing.T) {
		s := New(analyzer, Config{})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(testHeader()); err == nil {
			t.Fatal("duplicate header accepted")
		}
	})
	t.Run("close without header", func(t *testing.T) {
		s := New(analyzer, Config{})
		if _, err := s.Close(); err == nil {
			t.Fatal("headerless close accepted")
		}
	})
	t.Run("empty record", func(t *testing.T) {
		s := New(analyzer, Config{})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(trace.Record{}); err == nil {
			t.Fatal("empty record accepted")
		}
	})
	t.Run("use after close", func(t *testing.T) {
		s := New(analyzer, Config{})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(rrcAt(0)); !errors.Is(err, ErrClosed) {
			t.Fatalf("push after close: %v", err)
		}
		if _, err := s.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("double close: %v", err)
		}
	})
}

// TestLateRecords pins the watermark contract: a record behind an
// already-evaluated window fails the stream (or is counted under
// DropLate), while a record within Lateness is folded in and the
// result still matches batch analysis.
func TestLateRecords(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("reject", func(t *testing.T) {
		s := New(analyzer, Config{})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		// Watermark to 6 s evaluates windows [0,5) and [0.5,5.5).
		if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Windows; got != 3 {
			t.Fatalf("evaluated %d windows, want 3", got)
		}
		if err := s.Push(rrcAt(sim.Second)); !errors.Is(err, ErrLateRecord) {
			t.Fatalf("late record: %v", err)
		}
	})
	t.Run("drop", func(t *testing.T) {
		s := New(analyzer, Config{DropLate: true})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(rrcAt(sim.Second)); err != nil {
			t.Fatal(err)
		}
		if s.Stats().LateDropped != 1 {
			t.Fatalf("LateDropped = %d", s.Stats().LateDropped)
		}
	})
	t.Run("lateness slack matches batch", func(t *testing.T) {
		set := simulate(t, ran.TMobileTDD(), 3, 10*sim.Second)
		batch, err := analyzer.Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		recs := records(t, set)
		// Perturb delivery two ways: swap adjacent records (mostly
		// cross-series jitter), then displace every 10th record five
		// positions later — in a dense merged stream that inverts
		// records of the *same* series, which must be insertion-sorted
		// back into the window index, not just appended.
		perturbed := append([]trace.Record(nil), recs...)
		for i := 1; i+1 < len(perturbed); i += 2 {
			perturbed[i], perturbed[i+1] = perturbed[i+1], perturbed[i]
		}
		for i := 10; i+6 < len(perturbed); i += 10 {
			r := perturbed[i]
			copy(perturbed[i:], perturbed[i+1:i+6])
			perturbed[i+5] = r
		}
		rep, _ := streamReport(t, analyzer, perturbed, Config{Lateness: 100 * sim.Millisecond})
		diffReports(t, batch, rep)
	})
	t.Run("same-series reorder within slack", func(t *testing.T) {
		// Regression: two records of one series delivered out of order
		// within the slack must land sorted in the index — an appended
		// 5.4 s RRC sample after a 5.6 s one would otherwise corrupt
		// the binary-searched series and drop the detection silently.
		s := New(analyzer, Config{Lateness: 300 * sim.Millisecond})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		for _, at := range []sim.Time{5600 * sim.Millisecond, 5400 * sim.Millisecond} {
			if err := s.Push(rrcAt(at)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Both samples sit in windows covering [5.4s, 5.6s]; with a
		// corrupted series the rrc_state_change runs differ from the
		// batch analysis of the same two records.
		set := &trace.Set{
			CellName: "t", Duration: 10 * sim.Second, HasGNBLog: true,
			RRC: []trace.RRCRecord{{At: 5400 * sim.Millisecond, Connected: true}, {At: 5600 * sim.Millisecond, Connected: true}},
		}
		batch, err := analyzer.Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch.NodeEvents["rrc_state_change"], rep.NodeEvents["rrc_state_change"]) {
			t.Fatalf("rrc runs diverged:\nbatch:  %+v\nstream: %+v",
				batch.NodeEvents["rrc_state_change"], rep.NodeEvents["rrc_state_change"])
		}
	})
}

// TestSnapshotAfterReset pins the pooled-analyzer edge: a Reset
// analyzer that has not yet seen its next session's header must report
// no snapshot (not panic on the recycled engine state).
func TestSnapshotAfterReset(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(analyzer, Config{})
	if err := s.Push(testHeader()); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if snap := s.Snapshot(); snap != nil {
		t.Fatalf("snapshot before the recycled session's header: %+v", snap)
	}
	// The recycled analyzer must still work for the next session.
	if err := s.Push(testHeader()); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NodeEvents["rrc_state_change"]) == 0 {
		t.Fatal("recycled analyzer dropped the detection")
	}
}

// TestSnapshotMidStream checks that a live snapshot halfway through the
// session is a usable prefix report: same cell, partial duration, and
// event counts that only grow as the stream completes.
func TestSnapshotMidStream(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := simulate(t, ran.Amarisoft(), 5, 12*sim.Second)
	recs := records(t, set)
	s := New(analyzer, Config{})
	half := len(recs) / 2
	for _, rec := range recs[:half] {
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if snap == nil || snap.CellName != set.CellName {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Duration <= 0 || snap.Duration > set.Duration {
		t.Fatalf("snapshot duration %v outside (0, %v]", snap.Duration, set.Duration)
	}
	snapChains := snap.TotalChainEvents()
	for _, rec := range recs[half:] {
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalChainEvents() < snapChains {
		t.Fatalf("chain events shrank: %d then %d", snapChains, rep.TotalChainEvents())
	}
}

// TestDropWindows checks the bounded-report mode: no per-window results
// retained, event runs unchanged.
func TestDropWindows(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := simulate(t, ran.Mosolabs(), 9, 10*sim.Second)
	batch, err := analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := streamReport(t, analyzer, records(t, set), Config{DropWindows: true})
	if len(rep.Windows) != 0 {
		t.Fatalf("DropWindows kept %d windows", len(rep.Windows))
	}
	if !reflect.DeepEqual(batch.NodeEvents, rep.NodeEvents) || !reflect.DeepEqual(batch.ChainEvents, rep.ChainEvents) {
		t.Fatal("event runs diverged under DropWindows")
	}
}

// captureHooks records every obs hook invocation for assertions.
type captureHooks struct {
	obs.NopHooks
	windows     int
	nodeFired   []string
	chainOpened []string
	// runs holds every closed run as announced, keyed by node name or
	// chain signature (a chain run's Node is its signature).
	runs map[string][]core.EventRun
}

func (h *captureHooks) closed(key string, start, end int64, windows int) {
	if h.runs == nil {
		h.runs = map[string][]core.EventRun{}
	}
	h.runs[key] = append(h.runs[key], core.EventRun{Node: key, Start: sim.Time(start), End: sim.Time(end), Windows: windows})
}

// matchReport checks that the hooks announced exactly what rep holds:
// each run in the report by one close with its start, end and window
// count, and nothing else; and one WindowEvaluated per window.
func (h *captureHooks) matchReport(t *testing.T, rep *core.Report, st Stats) {
	t.Helper()
	if h.windows != st.Windows {
		t.Fatalf("WindowEvaluated fired %d times, Stats().Windows = %d", h.windows, st.Windows)
	}
	want := map[string][]core.EventRun{}
	for _, runs := range rep.NodeEvents {
		for _, r := range runs {
			want[r.Node] = append(want[r.Node], r)
		}
	}
	for _, runs := range rep.ChainEvents {
		for _, r := range runs {
			sig := r.Chain.String()
			want[sig] = append(want[sig], core.EventRun{Node: sig, Start: r.Start, End: r.End, Windows: r.Windows})
		}
	}
	if len(h.runs) != len(want) {
		t.Errorf("hooks announced runs of %d nodes and chains, the report has %d", len(h.runs), len(want))
	}
	for key, runs := range want {
		if !reflect.DeepEqual(h.runs[key], runs) {
			t.Errorf("%s: announced %+v, report %+v", key, h.runs[key], runs)
		}
	}
}

func (h *captureHooks) WindowEvaluated(start, end int64) { h.windows++ }
func (h *captureHooks) NodeFired(node string, at int64)  { h.nodeFired = append(h.nodeFired, node) }
func (h *captureHooks) NodeRunClosed(node string, start, end int64, windows int) {
	h.closed(node, start, end, windows)
}
func (h *captureHooks) ChainRunOpened(chain string, at int64) {
	h.chainOpened = append(h.chainOpened, chain)
}
func (h *captureHooks) ChainRunClosed(chain string, start, end int64, windows int) {
	h.closed(chain, start, end, windows)
}

// TestObsHooks pins the observability seam: the hooks announce what the
// final report holds (every run that opened also closed), chain hooks
// carry the DSL signature, and Reset clears the hooks with the rest of
// the session state.
func TestObsHooks(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := simulate(t, ran.TMobileTDD(), 7, 20*sim.Second)
	recs := records(t, set)

	h := &captureHooks{}
	s := New(analyzer, Config{})
	s.SetHooks(h)
	for _, rec := range recs {
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}

	if h.windows == 0 {
		t.Fatal("WindowEvaluated never fired")
	}
	h.matchReport(t, rep, s.Stats())
	var nodeRuns int
	for _, runs := range rep.NodeEvents {
		nodeRuns += len(runs)
	}
	if len(h.nodeFired) != nodeRuns {
		t.Fatalf("NodeFired %d times, report has %d runs (Close must close every open run)", len(h.nodeFired), nodeRuns)
	}
	var chainRuns int
	for _, runs := range rep.ChainEvents {
		chainRuns += len(runs)
	}
	if len(h.chainOpened) != chainRuns {
		t.Fatalf("ChainRunOpened %d times, report has %d runs", len(h.chainOpened), chainRuns)
	}
	for _, sig := range h.chainOpened {
		if !strings.Contains(sig, " --> ") {
			t.Fatalf("chain hook got %q, want a DSL signature", sig)
		}
	}

	// Reset drops the hooks: the next session must stay silent.
	s.Reset()
	before := h.windows
	if err := s.Push(testHeader()); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h.windows != before {
		t.Fatalf("hooks fired after Reset: %d windows before, %d after", before, h.windows)
	}
}

// TestLateAccounting pins the drop-side bookkeeping of the watermark
// contract: every record behind the horizon is counted (and only
// counted — the report is as if it never arrived), accepted records
// are tallied separately, and the horizon boundary itself is inclusive.
func TestLateAccounting(t *testing.T) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("each dropped record counted once", func(t *testing.T) {
		s := New(analyzer, Config{DropLate: true})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		for _, at := range []sim.Time{sim.Second, 2 * sim.Second, 3 * sim.Second} {
			if err := s.Push(rrcAt(at)); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.LateDropped != 3 {
			t.Fatalf("LateDropped = %d, want 3", st.LateDropped)
		}
		if st.Records != 1 {
			t.Fatalf("Records = %d, want 1 (dropped records must not count as accepted)", st.Records)
		}
	})

	t.Run("horizon boundary is inclusive", func(t *testing.T) {
		s := New(analyzer, Config{})
		if err := s.Push(testHeader()); err != nil {
			t.Fatal(err)
		}
		// Watermark 6 s evaluates through window [1s, 6s): the horizon
		// is exactly 6 s. A record at 6 s is on time; one tick earlier
		// is late.
		if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(rrcAt(6 * sim.Second)); err != nil {
			t.Fatalf("record at the horizon rejected: %v", err)
		}
		if err := s.Push(rrcAt(6*sim.Second - 1)); !errors.Is(err, ErrLateRecord) {
			t.Fatalf("record one tick behind the horizon: %v", err)
		}
	})

	t.Run("dropped records leave the report untouched", func(t *testing.T) {
		set := simulate(t, ran.TMobileTDD(), 11, 10*sim.Second)
		recs := records(t, set)
		clean, cleanStats := streamReport(t, analyzer, recs, Config{DropLate: true})

		// Same stream with stale duplicates injected after the watermark
		// has moved on: they must be dropped, counted, and invisible in
		// the report.
		s := New(analyzer, Config{DropLate: true})
		for _, rec := range recs {
			if err := s.Push(rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, at := range []sim.Time{sim.Second, 2 * sim.Second} {
			if err := s.Push(rrcAt(at)); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		dirty, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.LateDropped != 2 {
			t.Fatalf("LateDropped = %d, want 2", st.LateDropped)
		}
		if st.Records != cleanStats.Records {
			t.Fatalf("accepted records %d != clean run %d", st.Records, cleanStats.Records)
		}
		diffReports(t, clean, dirty)
	})
}

// TestSessionAllocs is the whole-session counterpart of
// TestBlockIngestAllocs' steady-state zero: a recycled analyzer allocates
// for what a call reports — windows, runs, the report — and not per
// record. A 10 s Amarisoft call of 10 726 records costs 163 allocations
// pushed record by record and 808 analysed in batch, where a fresh index
// grows to the whole trace (184 and 829 while a step also built a window
// result the stream dropped and returned its closed runs in slices of
// their own; 196 and 2 244 while an MCS group kept its samples in a
// slice of its own); ceilings are 1.3 × those.
func TestSessionAllocs(t *testing.T) {
	a, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := simulate(t, ran.Amarisoft(), 1, 10*sim.Second)
	recs := records(t, set)
	s := New(a, Config{})
	for _, path := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"Push", 211, func() error {
			s.Reset()
			for _, rec := range recs {
				if err := s.Push(rec); err != nil {
					return err
				}
			}
			_, err := s.Close()
			return err
		}},
		{"Analyze", 1050, func() error { _, err := a.Analyze(set); return err }},
	} {
		got := testing.AllocsPerRun(3, func() {
			if err := path.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > path.ceiling {
			t.Errorf("%s: %.0f allocs per session, ceiling %.0f", path.name, got, path.ceiling)
		} else {
			t.Logf("%s: %.0f allocs per session of %d records", path.name, got, len(recs))
		}
	}
}
