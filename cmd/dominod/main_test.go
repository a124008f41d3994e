package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// What only this command does — flags, the persistence wiring's usage
// error — is tested here; the node's HTTP surface is tested in
// internal/node.

// TestSpillNeedsJournal: the one persistence path is the journal's, so
// asking for a checkpoint file with the journal off is a usage error,
// not a second, unsynced way to write one.
func TestSpillNeedsJournal(t *testing.T) {
	var errOut bytes.Buffer
	spill := t.TempDir() + "/fleet.spill"
	if code := run([]string{"-store-spill", spill, "-store-journal", "off"}, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-store-spill needs the journal") {
		t.Fatalf("stderr does not say why: %s", errOut.String())
	}
	if _, err := os.Stat(spill); err == nil {
		t.Fatal("a refused invocation wrote the checkpoint file")
	}
}

// TestBoundsMustBePositive: the node's bounds are always on, so each of
// the seven bound flags refuses zero and a negative value with a usage
// error that names it, before anything is recovered or served.
func TestBoundsMustBePositive(t *testing.T) {
	for _, c := range []struct{ flag, zero, negative string }{
		{"max-streams", "0", "-1"},
		{"max-sessions", "0", "-1"},
		{"store-blocks", "0", "-1"},
		{"flightrec", "0", "-16"},
		{"max-body", "0", "-1"},
		{"admit-wait", "0", "-1s"},
		{"stream-idle", "0s", "-5m"},
	} {
		for _, v := range []string{c.zero, c.negative} {
			var errOut bytes.Buffer
			// The bad -log-format, checked after the bounds, makes a bound
			// that slips through fail here instead of serving.
			if code := run([]string{"-" + c.flag, v, "-log-format", "none"}, &errOut); code != 2 {
				t.Fatalf("-%s %s: exit %d, want 2; stderr: %s", c.flag, v, code, errOut.String())
			}
			if want := "-" + c.flag + " must be positive"; !strings.Contains(errOut.String(), want) {
				t.Fatalf("-%s %s: stderr does not say %q: %s", c.flag, v, want, errOut.String())
			}
		}
	}
}

// TestOrderedInputFlagsRefuseNegatives: -store-sync syncs at least every
// append, and -lateness, -checkpoint-every and -drain cannot be negative
// (a negative slack would fail in-order records as late), so each such
// value is a usage error that names the flag; the values fleetbench and
// the docs pass stay legal.
func TestOrderedInputFlagsRefuseNegatives(t *testing.T) {
	for _, c := range []struct{ flag, value, says string }{
		{"store-sync", "0", "-store-sync must be positive"},
		{"store-sync", "-1", "-store-sync must be positive"},
		{"lateness", "-1ms", "-lateness must be zero or more"},
		{"checkpoint-every", "-1", "-checkpoint-every must be zero or more"},
		{"drain", "-1s", "-drain must be zero or more"},
		// Legal: these reach the -log-format check after the flags.
		{"store-sync", "1", `bad -log-format "none"`},
		{"lateness", "0", `bad -log-format "none"`},
		{"checkpoint-every", "0", `bad -log-format "none"`},
		{"drain", "0", `bad -log-format "none"`},
	} {
		var errOut bytes.Buffer
		if code := run([]string{"-" + c.flag, c.value, "-log-format", "none"}, &errOut); code != 2 {
			t.Fatalf("-%s %s: exit %d, want 2; stderr: %s", c.flag, c.value, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), c.says) {
			t.Fatalf("-%s %s: stderr does not say %q: %s", c.flag, c.value, c.says, errOut.String())
		}
	}
}
