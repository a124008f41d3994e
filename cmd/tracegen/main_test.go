package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino"
)

// TestFlagValidation is the table-driven CLI contract, mirroring the
// cmd/domino flag tests: exit codes and messages for every flag
// combination, including the unknown-name paths that must list the
// valid cells/scenarios.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	badCell := filepath.Join(dir, "badcell.json")
	if err := os.WriteFile(badCell, []byte(`{"name":"x","cell":"nokia"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		code       int
		wantStdout string
		wantStderr string
	}{
		{
			name:       "unknown flag",
			args:       []string{"-bogus"},
			code:       2,
			wantStderr: "flag provided but not defined",
		},
		{
			name:       "zero duration",
			args:       []string{"-duration", "0"},
			code:       2,
			wantStderr: "-duration must be > 0",
		},
		{
			name:       "negative duration",
			args:       []string{"-duration", "-3"},
			code:       2,
			wantStderr: "-duration must be > 0",
		},
		{
			name:       "unknown cell lists valid names",
			args:       []string{"-cell", "nokia", "-duration", "1"},
			code:       2,
			wantStderr: "valid: tmobile-tdd, tmobile-fdd, amarisoft, mosolabs",
		},
		{
			name:       "unknown scenario lists valid names",
			args:       []string{"-scenario", "tsunami", "-duration", "1"},
			code:       2,
			wantStderr: "midcall-snr-collapse",
		},
		{
			name:       "cell and scenario are exclusive",
			args:       []string{"-cell", "amarisoft", "-scenario", "harq-storm"},
			code:       2,
			wantStderr: "mutually exclusive",
		},
		{
			name:       "scenario and scenario-file are exclusive",
			args:       []string{"-scenario", "harq-storm", "-scenario-file", badJSON},
			code:       2,
			wantStderr: "mutually exclusive",
		},
		{
			name:       "list scenarios",
			args:       []string{"-list-scenarios"},
			code:       0,
			wantStdout: "midcall-snr-collapse",
		},
		{
			name:       "nonexistent scenario file",
			args:       []string{"-scenario-file", filepath.Join(dir, "nope.json"), "-duration", "1"},
			code:       1,
			wantStderr: "no such file",
		},
		{
			name:       "malformed scenario file",
			args:       []string{"-scenario-file", badJSON, "-duration", "1"},
			code:       1,
			wantStderr: "decoding",
		},
		{
			name:       "scenario file with unknown cell",
			args:       []string{"-scenario-file", badCell, "-duration", "1"},
			code:       1,
			wantStderr: "unknown cell",
		},
		{
			name:       "unwritable output",
			args:       []string{"-duration", "1", "-o", filepath.Join(dir, "missing", "out.jsonl")},
			code:       1,
			wantStderr: "no such file",
		},
		{
			name:       "unknown format",
			args:       []string{"-format", "protobuf", "-duration", "1"},
			code:       2,
			wantStderr: "-format must be jsonl or binary",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
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

// TestUploadSettingsMustBeInRange: -backoff ≤ 0 (once silently the
// client's own delay) and -retries below 0 are usage errors that name
// the flag, checked before a trace is generated; -retries 0 stays legal.
func TestUploadSettingsMustBeInRange(t *testing.T) {
	for _, c := range []struct {
		flag, value string
		code        int
		says        string
	}{
		{"backoff", "0", 2, "-backoff must be > 0"},
		{"backoff", "-50ms", 2, "-backoff must be > 0"},
		{"retries", "-1", 2, "-retries must be >= 0"},
		// Legal: these reach the -duration check after them.
		{"retries", "0", 2, "-duration must be > 0"},
		{"backoff", "1ms", 2, "-duration must be > 0"},
	} {
		var stderr bytes.Buffer
		args := []string{"-" + c.flag, c.value, "-duration", "0"}
		if code := run(args, io.Discard, &stderr); code != c.code {
			t.Fatalf("-%s %s: exit %d, want %d; stderr: %s", c.flag, c.value, code, c.code, &stderr)
		}
		if !strings.Contains(stderr.String(), c.says) {
			t.Fatalf("-%s %s: stderr does not say %q: %s", c.flag, c.value, c.says, &stderr)
		}
	}
}

// TestGenerateByCellAliasAndScenario runs three short generations and
// checks the header labels: a cell alias resolves to its canonical
// registered scenario, a registered scenario keeps its name, and a
// scenario file keeps the file's name.
func TestGenerateByCellAliasAndScenario(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name     string
		args     []string
		wantCell string
		wantScen string
	}{
		{
			name:     "cell alias",
			args:     []string{"-cell", "fdd"},
			wantCell: `"cell_name":"T-Mobile 15MHz FDD"`,
			wantScen: `"scenario":"tmobile-fdd"`,
		},
		{
			name:     "registered scenario",
			args:     []string{"-scenario", "harq-storm"},
			wantCell: `"cell_name":"Amarisoft 20MHz TDD"`,
			wantScen: `"scenario":"harq-storm"`,
		},
		{
			name:     "scenario file",
			args:     []string{"-scenario-file", filepath.Join("..", "..", "examples", "scenarios", "custom-degraded-cell.json")},
			wantCell: `"cell_name":"T-Mobile 100MHz TDD"`,
			wantScen: `"scenario":"custom-degraded-cell"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".jsonl")
			var stdout, stderr bytes.Buffer
			args := append(tc.args, "-duration", "2", "-seed", "5", "-o", out)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "tracegen: ") {
				t.Fatalf("missing summary line: %s", stderr.String())
			}
			blob, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			header := string(bytes.SplitN(blob, []byte("\n"), 2)[0])
			if !strings.Contains(header, tc.wantCell) || !strings.Contains(header, tc.wantScen) {
				t.Fatalf("header %s\nwant %s and %s", header, tc.wantCell, tc.wantScen)
			}
		})
	}
}

// TestBinaryFormatRoundTrips generates the same call in both encodings
// and checks the binary output starts with the format magic, is
// smaller than its JSONL twin, and decodes to the identical record
// set.
func TestBinaryFormatRoundTrips(t *testing.T) {
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "call.jsonl")
	binPath := filepath.Join(dir, "call.dmnt")
	for _, args := range [][]string{
		{"-duration", "3", "-seed", "11", "-o", jsonlPath},
		{"-format", "binary", "-duration", "3", "-seed", "11", "-o", binPath},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
	}
	jsonlBlob, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	binBlob, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(binBlob, []byte("DMNTRCB1")) {
		t.Fatalf("binary output lacks the format magic: % x", binBlob[:16])
	}
	if len(binBlob) >= len(jsonlBlob) {
		t.Fatalf("binary (%d bytes) is not smaller than JSONL (%d bytes)", len(binBlob), len(jsonlBlob))
	}
	want, err := domino.ReadTrace(bytes.NewReader(jsonlBlob))
	if err != nil {
		t.Fatal(err)
	}
	got, err := domino.ReadTrace(bytes.NewReader(binBlob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("binary trace decodes to a different set than its JSONL twin")
	}
}

// TestStdoutTraceIsAnalyzable pipes a default generation to a buffer
// and checks the stream shape (header first, records after).
func TestStdoutTraceIsAnalyzable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-duration", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	first := strings.SplitN(stdout.String(), "\n", 2)[0]
	if !strings.Contains(first, `"type":"header"`) || !strings.Contains(first, `"scenario":"amarisoft"`) {
		t.Fatalf("first line is not a labeled header: %s", first)
	}
	if stdout.Len() < 1000 {
		t.Fatalf("suspiciously small trace (%d bytes)", stdout.Len())
	}
}
