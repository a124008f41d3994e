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
		{"https backend", []string{"-backend", "http://127.0.0.1:9,https://127.0.0.1:10"}, `backend "https://127.0.0.1:10" is not an http:// URL`},
		{"backend without a scheme", []string{"-backend", "127.0.0.1:9"}, `backend "127.0.0.1:9" is not an http:// URL`},
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

// TestSettingsMustBePositive: the balancer's probe and scrape settings
// are always on, so each of the four flags refuses zero and a negative
// value with a usage error that names it, before any backend is probed.
func TestSettingsMustBePositive(t *testing.T) {
	for _, c := range []struct{ flag, zero, negative string }{
		{"health-interval", "0", "-1s"},
		{"health-timeout", "0s", "-500ms"},
		{"health-fails", "0", "-3"},
		{"scrape-timeout", "0", "-5s"},
	} {
		for _, v := range []string{c.zero, c.negative} {
			var stderr bytes.Buffer
			// The bad -log-format, checked after the settings, makes one
			// that slips through fail here instead of serving.
			args := []string{"-backend", "http://127.0.0.1:9", "-" + c.flag, v, "-log-format", "none"}
			if code := run(args, io.Discard, &stderr); code != 2 {
				t.Fatalf("-%s %s: exit %d, want 2; stderr: %s", c.flag, v, code, &stderr)
			}
			if want := "-" + c.flag + " must be positive"; !strings.Contains(stderr.String(), want) {
				t.Fatalf("-%s %s: stderr does not say %q: %s", c.flag, v, want, &stderr)
			}
		}
	}
}
