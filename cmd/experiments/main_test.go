package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a flag value the run would otherwise replace
// or cannot use is a usage error that names the flag, and -workers 0
// (all cores) stays legal.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		says string
	}{
		{[]string{"-duration", "0"}, 2, "-duration must be positive"},
		{[]string{"-duration", "-5"}, 2, "-duration must be positive"},
		{[]string{"-sessions", "0"}, 2, "-sessions must be positive"},
		{[]string{"-sessions", "-1"}, 2, "-sessions must be positive"},
		{[]string{"-seed", "0"}, 2, "-seed must be positive"},
		{[]string{"-workers", "-1"}, 2, "-workers must be zero (all cores) or more"},
		// -list after the checks: a legal value reaches it and exits 0.
		{[]string{"-workers", "0", "-list"}, 0, ""},
		{[]string{"-seed", "7", "-duration", "1", "-sessions", "1", "-list"}, 0, ""},
	} {
		var stderr bytes.Buffer
		if code := run(c.args, io.Discard, &stderr); code != c.code {
			t.Fatalf("run(%q) = %d, want %d; stderr: %s", c.args, code, c.code, &stderr)
		}
		if !strings.Contains(stderr.String(), c.says) {
			t.Fatalf("run(%q) stderr lacks %q: %s", c.args, c.says, &stderr)
		}
	}
}
