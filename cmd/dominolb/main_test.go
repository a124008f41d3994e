package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags pins the command lines run refuses before it
// builds a balancer or listens: each exits 2 and says why on stderr.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		says string
	}{
		{"no backend", nil, "at least one -backend is required"},
		{"bad log format", []string{"-backend", "http://127.0.0.1:9", "-log-format", "xml"}, `bad -log-format "xml"`},
		{"replay-max is gone", []string{"-backend", "http://127.0.0.1:9", "-replay-max", "-1"}, "flag provided but not defined: -replay-max"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(c.args, io.Discard, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2; stderr: %s", c.args, code, &stderr)
			}
			if !strings.Contains(stderr.String(), c.says) {
				t.Fatalf("run(%q) stderr lacks %q: %s", c.args, c.says, &stderr)
			}
		})
	}
}
