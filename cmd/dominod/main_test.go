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
