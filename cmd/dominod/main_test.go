package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/node"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// What only this command does — flags, -stdin, the persistence wiring's
// usage error — is tested here; the node's HTTP surface is tested in
// internal/node.

func testAnalyzer(t testing.TB) *core.Analyzer {
	t.Helper()
	a, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sessionTrace(t testing.TB, cell ran.CellConfig, seed uint64, d sim.Time) (*trace.Set, []byte) {
	t.Helper()
	sess, err := rtc.NewSession(rtc.DefaultSessionConfig(cell, seed))
	if err != nil {
		t.Fatal(err)
	}
	set := sess.Run(d)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	return set, buf.Bytes()
}

// TestRunStdin covers the single-session CLI mode end to end.
func TestRunStdin(t *testing.T) {
	_, body := sessionTrace(t, ran.Mosolabs(), 4, 8*sim.Second)
	var out, errOut bytes.Buffer
	newStream := func() *stream.Analyzer { return node.NewStream(testAnalyzer(t), node.Options{}) }
	if code := runStdin(newStream(), bytes.NewReader(body), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"degradation events/min", "5G causes", "peak buffer"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdin output missing %q:\n%s", want, out.String())
		}
	}
	if code := runStdin(newStream(), strings.NewReader("garbage\n"), &out, &errOut); code != 1 {
		t.Fatalf("garbage stdin: exit %d, want 1", code)
	}
}

// TestSpillNeedsJournal: the one persistence path is the journal's, so
// asking for a checkpoint file with the journal off is a usage error,
// not a second, unsynced way to write one.
func TestSpillNeedsJournal(t *testing.T) {
	var out, errOut bytes.Buffer
	spill := t.TempDir() + "/fleet.spill"
	if code := run([]string{"-store-spill", spill, "-store-journal", "off"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-store-spill needs the journal") {
		t.Fatalf("stderr does not say why: %s", errOut.String())
	}
	if _, err := os.Stat(spill); err == nil {
		t.Fatal("a refused invocation wrote the checkpoint file")
	}
}
