package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// writeFixtureStore spills a small three-session fleet to disk.
func writeFixtureStore(t *testing.T) string {
	t.Helper()
	st := rcastore.New(rcastore.Options{})
	mk := func(session, cell, scen string, minute int, fired []string, chain, cause string, runs int) {
		start := sim.Time(minute) * sim.Minute
		rec := rcastore.Record{
			Session: session, Cell: cell, Scenario: scen,
			Start: start, End: start + sim.Minute, Fired: fired,
		}
		if chain != "" {
			rec.Chains = []rcastore.ChainRuns{{Chain: chain, Runs: runs}}
			rec.Causes = []rcastore.CauseRuns{{Cause: cause, Runs: runs}}
		}
		st.Insert(rec)
	}
	mk("s1", "tdd", "harq-storm", 0, []string{"harq_retx", "jitter_buffer_drain"},
		"harq_retx --> jitter_buffer_drain", "harq_retx", 4)
	mk("s2", "tdd", "grant-starvation", 30, []string{"ul_scheduling", "target_bitrate_down"},
		"ul_scheduling --> target_bitrate_down", "ul_scheduling", 7)
	mk("s3", "fdd", "harq-storm", 60, []string{"harq_retx"},
		"harq_retx --> jitter_buffer_drain", "harq_retx", 1)
	path := filepath.Join(t.TempDir(), "fleet.spill")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Spill(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestListRecords(t *testing.T) {
	store := writeFixtureStore(t)
	out, errOut, code := runCLI(t, "-store", store)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"s1", "s2", "s3", "harq-storm", "ul_scheduling"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
	// Filters narrow the listing.
	out, _, _ = runCLI(t, "-store", store, "-cell", "fdd")
	if strings.Contains(out, "s1") || !strings.Contains(out, "s3") {
		t.Fatalf("-cell filter wrong:\n%s", out)
	}
	out, _, _ = runCLI(t, "-store", store, "-cause", "ul_scheduling")
	if !strings.Contains(out, "s2") || strings.Contains(out, "s3") {
		t.Fatalf("-cause filter wrong:\n%s", out)
	}
	out, _, _ = runCLI(t, "-store", store, "-last", "45m")
	if strings.Contains(out, "s1") || !strings.Contains(out, "s3") {
		t.Fatalf("-last window wrong (anchored at newest record):\n%s", out)
	}
}

func TestTopChainsAction(t *testing.T) {
	store := writeFixtureStore(t)
	out, _, code := runCLI(t, "-store", store, "-top-chains", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// ul_scheduling chain has 7 runs vs harq's 5: it must be ranked.
	if !strings.Contains(out, "ul_scheduling --> target_bitrate_down") {
		t.Fatalf("top chain wrong:\n%s", out)
	}
	if strings.Contains(out, "harq_retx --> jitter_buffer_drain") {
		t.Fatalf("-top-chains 1 returned more than one chain:\n%s", out)
	}
}

func TestCauseRatesAction(t *testing.T) {
	store := writeFixtureStore(t)
	out, _, code := runCLI(t, "-store", store, "-cause-rates", "30m")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"tdd", "fdd", "harq_retx", "ul_scheduling"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cause-rates missing %q:\n%s", want, out)
		}
	}
}

func TestSimilarAction(t *testing.T) {
	store := writeFixtureStore(t)
	out, _, code := runCLI(t, "-store", store, "-similar", "s1", "-k", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// s3 shares harq_retx (distance 1); s2 shares nothing (distance 4).
	if !strings.Contains(out, "s3") || strings.Contains(out, "s2") {
		t.Fatalf("similar ranking wrong:\n%s", out)
	}
	if strings.Contains(out, "s1") {
		t.Fatalf("probe session listed as its own match:\n%s", out)
	}
	out, _, code = runCLI(t, "-store", store, "-similar-fired", "ul_scheduling,target_bitrate_down", "-k", "1")
	if code != 0 || !strings.Contains(out, "s2") {
		t.Fatalf("similar-fired wrong (exit %d):\n%s", code, out)
	}
	if _, errOut, code := runCLI(t, "-store", store, "-similar", "nope"); code != 1 || !strings.Contains(errOut, "no stored report") {
		t.Fatalf("unknown probe session: exit %d, stderr %s", code, errOut)
	}
}

func TestStatsAction(t *testing.T) {
	store := writeFixtureStore(t)
	out, _, code := runCLI(t, "-store", store, "-stats")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "rows 3") || !strings.Contains(out, "2 chains") {
		t.Fatalf("stats output wrong:\n%s", out)
	}
}

func TestBadInvocations(t *testing.T) {
	if _, _, code := runCLI(t); code != 2 {
		t.Fatalf("missing -store: exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-store", "does-not-exist.spill"); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.spill")
	if err := os.WriteFile(bad, []byte("not a store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCLI(t, "-store", bad); code != 1 {
		t.Fatalf("corrupt store: exit %d, want 1", code)
	}
	if _, _, code := runCLI(t, "-bogus-flag"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}
