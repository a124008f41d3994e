package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/domino5g/domino"
)

// writeTestTrace simulates a short call and writes its JSONL trace.
func writeTestTrace(t *testing.T, dir string) string {
	t.Helper()
	cell, err := domino.PresetByName("mosolabs")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := domino.NewSession(domino.DefaultSessionConfig(cell, 17))
	if err != nil {
		t.Fatal(err)
	}
	set := sess.Run(8 * domino.Second)
	path := filepath.Join(dir, "call.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := domino.WriteTrace(f, set); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagValidation is the table-driven CLI contract: exit codes and
// messages for every flag combination, including the required-flag
// error path (missing -trace without -codegen).
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTestTrace(t, dir)
	badGraph := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badGraph, []byte("not a chain line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("not jsonl\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		stdin      string
		code       int
		wantStdout string
		wantStderr string
	}{
		{
			name:       "no args",
			args:       nil,
			code:       2,
			wantStderr: "-trace is required unless -codegen",
		},
		{
			name:       "missing trace with graph",
			args:       []string{"-v"},
			code:       2,
			wantStderr: "Usage of domino",
		},
		{
			name:       "unknown flag",
			args:       []string{"-bogus"},
			code:       2,
			wantStderr: "flag provided but not defined",
		},
		{
			name:       "codegen without trace is valid",
			args:       []string{"-codegen", filepath.Join(dir, "det.go")},
			code:       0,
			wantStdout: "wrote generated detector (24 chains)",
		},
		{
			name:       "nonexistent trace file",
			args:       []string{"-trace", filepath.Join(dir, "nope.jsonl")},
			code:       1,
			wantStderr: "no such file",
		},
		{
			name:       "nonexistent graph file",
			args:       []string{"-graph", filepath.Join(dir, "nope.txt"), "-trace", tracePath},
			code:       1,
			wantStderr: "no such file",
		},
		{
			name:       "invalid graph file",
			args:       []string{"-graph", badGraph, "-trace", tracePath},
			code:       1,
			wantStderr: "parsing",
		},
		{
			name:       "malformed trace",
			args:       []string{"-trace", garbage},
			code:       1,
			wantStderr: "streaming trace",
		},
		{
			name:       "malformed trace on stdin",
			args:       []string{"-trace", "-"},
			stdin:      "garbage\n",
			code:       1,
			wantStderr: "streaming trace",
		},
		{
			name:       "analyze trace on stdin",
			args:       []string{"-trace", "-"},
			stdin:      string(traceBytes),
			code:       0,
			wantStdout: "degradation events/min",
		},
		{
			name:       "analyze trace",
			args:       []string{"-trace", tracePath},
			code:       0,
			wantStdout: "degradation events/min",
		},
		{
			name:       "analyze verbose",
			args:       []string{"-trace", tracePath, "-v"},
			code:       0,
			wantStdout: "trace: Mosolabs 20MHz TDD",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			if code != 0 && stdout.Len() > 0 {
				t.Fatalf("exit %d, yet a report on stdout:\n%s", code, stdout.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}

// TestBinaryTraceMatchesJSONL analyzes the same call from a JSONL file
// and from its binary columnar twin: the CLI must sniff the format and
// print byte-identical reports.
func TestBinaryTraceMatchesJSONL(t *testing.T) {
	dir := t.TempDir()
	jsonlPath := writeTestTrace(t, dir)
	blob, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	set, err := domino.ReadTrace(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "call.dmnt")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := domino.WriteTraceBinary(f, set); err != nil {
		t.Fatal(err)
	}
	f.Close()

	outputs := make([]string, 2)
	for i, p := range []string{jsonlPath, binPath} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-trace", p, "-v"}, nil, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", p, code, stderr.String())
		}
		outputs[i] = stdout.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("binary report differs from JSONL report:\n--- jsonl ---\n%s\n--- binary ---\n%s", outputs[0], outputs[1])
	}
}

// TestCodegenOutputCompiles-ish: the generated file must at least be
// written and contain the package clause.
func TestCodegenWritesDetector(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "detect.go")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-codegen", out}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "package detect") || !strings.Contains(string(src), "BackwardTrace") {
		t.Fatalf("generated detector malformed:\n%.200s", src)
	}
}

// TestCustomGraphClasses: with -graph the report lists the classes of
// the graph it runs — its causes and consequences, each in the event
// rates and the P(cause | consequence) block — and none of the default
// graph's.
func TestCustomGraphClasses(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTestTrace(t, dir)
	graph := filepath.Join(dir, "chains.txt")
	dsl := "dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain\n" +
		"dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain\n"
	if err := os.WriteFile(graph, []byte(dsl), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", tracePath, "-graph", graph}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"5G causes (events/min):\n  dl_rlc_retx ",
		"\n  dl_harq_retx ",
		"WebRTC consequences (events/min):\n  local_jitter_buffer_drain ",
		"P(cause | consequence):\n  local_jitter_buffer_drain:\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	defaults := append(domino.CauseClasses(), domino.ConsequenceClasses()...)
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && slices.Contains(defaults, strings.TrimSuffix(f[0], ":")) {
			t.Errorf("report lists the default graph's %s:\n%s", f[0], out)
		}
	}
}
