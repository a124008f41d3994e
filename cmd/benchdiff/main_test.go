package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineDoc = `{"benchmarks":[
	{"name":"BenchmarkScenarioTraceGen/amarisoft","iterations":1,"metrics":{"ns/op":1e7,"records/s":1000000,"sim-s/s":1000}},
	{"name":"BenchmarkCodecEncode/fast","iterations":1,"metrics":{"rec/s":5000000,"allocs/rec":0}},
	{"name":"BenchmarkCodecDecode/fast","iterations":1,"metrics":{"rec/s":2000000,"allocs/rec":1}}
]}`

func runDiff(t *testing.T, baseline, current string, extra ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	b := writeDoc(t, dir, "base.json", baseline)
	c := writeDoc(t, dir, "cur.json", current)
	var stdout, stderr bytes.Buffer
	args := append([]string{"-baseline", b, "-current", c}, extra...)
	code := run(args, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestBenchdiffPass(t *testing.T) {
	current := strings.ReplaceAll(baselineDoc, `"sim-s/s":1000`, `"sim-s/s":950`)
	code, out := runDiff(t, baselineDoc, current)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("no PASS in report:\n%s", out)
	}
}

func TestBenchdiffThroughputNotGated(t *testing.T) {
	// A 40% throughput drop is what a busier host does to an unchanged
	// tree: it is shown beside the baseline and never fails.
	current := strings.ReplaceAll(baselineDoc, `"sim-s/s":1000`, `"sim-s/s":600`)
	code, out := runDiff(t, baselineDoc, current)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (/s rows are information)\n%s", code, out)
	}
	if !strings.Contains(out, "-40.0%  info") || strings.Contains(out, "REGRESSED") {
		t.Fatalf("throughput drop not reported as information:\n%s", out)
	}
}

func TestBenchdiffNsOpNotGated(t *testing.T) {
	// ns/op tripling alone must not fail the gate.
	current := strings.ReplaceAll(baselineDoc, `"ns/op":1e7`, `"ns/op":3e7`)
	code, out := runDiff(t, baselineDoc, current)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (ns/op is not gated)\n%s", code, out)
	}
}

func TestBenchdiffAllocRegression(t *testing.T) {
	// allocs/rec growing 1 -> 2 is a 100% regression on a lower-better
	// metric.
	current := strings.ReplaceAll(baselineDoc, `"rec/s":2000000,"allocs/rec":1`, `"rec/s":2000000,"allocs/rec":2`)
	code, out := runDiff(t, baselineDoc, current)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "allocs/rec") {
		t.Fatalf("alloc regression not reported:\n%s", out)
	}
}

func TestBenchdiffZeroAllocContract(t *testing.T) {
	// A zero-alloc baseline must reject a real per-record allocation…
	current := strings.ReplaceAll(baselineDoc, `"rec/s":5000000,"allocs/rec":0`, `"rec/s":5000000,"allocs/rec":1`)
	code, out := runDiff(t, baselineDoc, current)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkCodecEncode/fast") {
		t.Fatalf("zero-alloc break not reported:\n%s", out)
	}
	// …but tolerate sub-half-alloc measurement noise.
	noisy := strings.ReplaceAll(baselineDoc, `"rec/s":5000000,"allocs/rec":0`, `"rec/s":5000000,"allocs/rec":0.002`)
	if code, out := runDiff(t, baselineDoc, noisy); code != 0 {
		t.Fatalf("noise tripped the zero-alloc gate: exit = %d\n%s", code, out)
	}
}

func TestBenchdiffZeroByteBaseline(t *testing.T) {
	// A zero-B/op baseline must catch a large amortized buffer that
	// rounds to 0 allocs/op…
	base := strings.ReplaceAll(baselineDoc, `"rec/s":5000000,"allocs/rec":0`, `"rec/s":5000000,"allocs/rec":0,"B/op":0`)
	grown := strings.ReplaceAll(baselineDoc, `"rec/s":5000000,"allocs/rec":0`, `"rec/s":5000000,"allocs/rec":0,"B/op":300`)
	code, out := runDiff(t, base, grown)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (B/op grew from zero)\n%s", code, out)
	}
	if !strings.Contains(out, "B/op") {
		t.Fatalf("B/op regression not reported:\n%s", out)
	}
	// …while a few stray bytes pass.
	noisy := strings.ReplaceAll(baselineDoc, `"rec/s":5000000,"allocs/rec":0`, `"rec/s":5000000,"allocs/rec":0,"B/op":8`)
	if code, out := runDiff(t, base, noisy); code != 0 {
		t.Fatalf("byte noise tripped the gate: exit = %d\n%s", code, out)
	}
}

func TestBenchdiffVanishedBenchmarkFails(t *testing.T) {
	current := `{"benchmarks":[
		{"name":"BenchmarkScenarioTraceGen/amarisoft","iterations":1,"metrics":{"records/s":1000000,"sim-s/s":1000}},
		{"name":"BenchmarkCodecEncode/fast","iterations":1,"metrics":{"rec/s":5000000,"allocs/rec":0}}
	]}`
	code, out := runDiff(t, baselineDoc, current)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (vanished benchmark)\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkCodecDecode/fast") || !strings.Contains(out, "missing") {
		t.Fatalf("vanished benchmark not reported:\n%s", out)
	}
}

func TestBenchdiffNewBenchmarkIsAdvisory(t *testing.T) {
	current := strings.Replace(baselineDoc, `]}`, `,
		{"name":"BenchmarkBrandNew","iterations":1,"metrics":{"rec/s":1}}]}`, 1)
	code, out := runDiff(t, baselineDoc, current)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (new benchmark is advisory)\n%s", code, out)
	}
	if !strings.Contains(out, "unbaselined") {
		t.Fatalf("new benchmark not surfaced:\n%s", out)
	}
}

func TestBenchdiffImprovementHint(t *testing.T) {
	current := strings.ReplaceAll(baselineDoc, `"rec/s":2000000,"allocs/rec":1`, `"rec/s":2000000,"allocs/rec":0.5`)
	code, out := runDiff(t, baselineDoc, current)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "re-baselining") {
		t.Fatalf("improvement hint missing:\n%s", out)
	}
}

func TestBenchdiffGateSummaryLine(t *testing.T) {
	// The report always ends with the one-line gate summary.
	code, out := runDiff(t, baselineDoc, baselineDoc)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "gate summary: PASS") || !strings.Contains(last, "2 gated metric(s) compared, 2 ok, 0 regressed") {
		t.Fatalf("summary line wrong: %q", last)
	}

	// Regressions and vanished benchmarks flip the verdict and counts.
	current := `{"benchmarks":[
		{"name":"BenchmarkScenarioTraceGen/amarisoft","iterations":1,"metrics":{"ns/op":1e7,"records/s":1000000,"sim-s/s":600}},
		{"name":"BenchmarkCodecEncode/fast","iterations":1,"metrics":{"rec/s":5000000,"allocs/rec":1}}
	]}`
	code, out = runDiff(t, baselineDoc, current)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	lines = strings.Split(strings.TrimRight(out, "\n"), "\n")
	last = lines[len(lines)-1]
	if !strings.HasPrefix(last, "gate summary: FAIL") || !strings.Contains(last, "1 regressed") || !strings.Contains(last, "1 missing") {
		t.Fatalf("summary line wrong: %q", last)
	}
}

func TestBenchdiffThreshold(t *testing.T) {
	// The allocation tolerance is the constant 30%: 25% growth passes,
	// 35% fails.
	grow := func(to string) string {
		return strings.ReplaceAll(baselineDoc, `"rec/s":2000000,"allocs/rec":1`, `"rec/s":2000000,"allocs/rec":`+to)
	}
	if code, out := runDiff(t, baselineDoc, grow("1.25")); code != 0 {
		t.Fatalf("exit = %d, want 0 at 25%% growth\n%s", code, out)
	}
	if code, out := runDiff(t, baselineDoc, grow("1.35")); code != 1 {
		t.Fatalf("exit = %d, want 1 at 35%% growth\n%s", code, out)
	}
}

func TestBenchdiffFloorHolds(t *testing.T) {
	// A floor the current run clears passes and is reported.
	code, out := runDiff(t, baselineDoc, baselineDoc, "-floor", "BenchmarkCodecDecode/fast:rec/s=1500000")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "1/1 floor(s) held") {
		t.Fatalf("floor not reported in summary:\n%s", out)
	}
}

func TestBenchdiffFloorViolated(t *testing.T) {
	code, out := runDiff(t, baselineDoc, baselineDoc, "-floor", "BenchmarkCodecDecode/fast:rec/s=3000000")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "BELOW FLOOR") || !strings.Contains(out, "floor contract(s) not met") {
		t.Fatalf("floor violation not reported:\n%s", out)
	}
}

func TestBenchdiffFloorLowerBetter(t *testing.T) {
	// For lower-better units the floor is a ceiling: allocs/rec 1 passes
	// a <=2 contract and fails a <=0.5 one.
	if code, out := runDiff(t, baselineDoc, baselineDoc, "-floor", "BenchmarkCodecDecode/fast:allocs/rec=2"); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if code, out := runDiff(t, baselineDoc, baselineDoc, "-floor", "BenchmarkCodecDecode/fast:allocs/rec=0.5"); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
}

func TestBenchdiffFloorOnUnbaselinedBenchmark(t *testing.T) {
	// Floors gate benchmarks that have no baseline entry yet — that is
	// their point: absolute contracts for new fast paths.
	current := strings.Replace(baselineDoc, `]}`, `,
		{"name":"BenchmarkBrandNew","iterations":1,"metrics":{"rec/s":4000000}}]}`, 1)
	if code, out := runDiff(t, baselineDoc, current, "-floor", "BenchmarkBrandNew:rec/s=3000000"); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if code, out := runDiff(t, baselineDoc, current, "-floor", "BenchmarkBrandNew:rec/s=5000000"); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
}

func TestBenchdiffFloorMissingBenchmarkFails(t *testing.T) {
	code, out := runDiff(t, baselineDoc, baselineDoc, "-floor", "BenchmarkNope:rec/s=1")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (floored benchmark absent)\n%s", code, out)
	}
	if !strings.Contains(out, "missing from current run") {
		t.Fatalf("missing floored benchmark not reported:\n%s", out)
	}
}

func TestBenchdiffFloorFlagErrors(t *testing.T) {
	dir := t.TempDir()
	b := writeDoc(t, dir, "base.json", baselineDoc)
	c := writeDoc(t, dir, "cur.json", baselineDoc)
	for _, bad := range []string{
		"no-colon=1",              // missing unit separator
		"Name:rec/s",              // missing value
		"Name:rec/s=zero",         // non-numeric value
		"Name:rec/s=-5",           // non-positive value
		"Name:ns/op=100",          // ns/op is not a gated unit
		":rec/s=1", "Name:=1", "", // empty pieces
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-baseline", b, "-current", c, "-floor", bad}, &stdout, &stderr); code != 2 {
			t.Fatalf("floor %q: exit = %d, want 2", bad, code)
		}
	}
}

func TestBenchdiffReportFile(t *testing.T) {
	dir := t.TempDir()
	b := writeDoc(t, dir, "base.json", baselineDoc)
	c := writeDoc(t, dir, "cur.json", baselineDoc)
	report := filepath.Join(dir, "report.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", b, "-current", c, "-o", report}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != stdout.String() {
		t.Fatal("report file differs from stdout")
	}
}

func TestBenchdiffUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing -current: exit = %d, want 2", code)
	}
	if code := run([]string{"-baseline", "nope.json", "-current", "also-nope.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing files: exit = %d, want 2", code)
	}
	dir := t.TempDir()
	b := writeDoc(t, dir, "base.json", baselineDoc)
	c := writeDoc(t, dir, "cur.json", baselineDoc)
	if code := run([]string{"-baseline", b, "-current", c, "-max-regress", "0.2"}, &stdout, &stderr); code != 2 {
		t.Fatalf("the deleted -max-regress flag: exit = %d, want 2", code)
	}
}
