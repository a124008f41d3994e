package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validScrape = `# HELP x_total A counter.
# TYPE x_total counter
x_total 3
# HELP y_seconds A histogram.
# TYPE y_seconds histogram
y_seconds_bucket{le="0.1"} 1
y_seconds_bucket{le="+Inf"} 2
y_seconds_sum 0.3
y_seconds_count 2
`

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(good, []byte(validScrape), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("naked_sample 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{good}, &out, &errOut); code != 0 {
		t.Fatalf("valid scrape: exit %d, out:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok (2 families, 2 series)") {
		t.Fatalf("summary missing: %s", out.String())
	}

	out.Reset()
	if code := run([]string{good, bad}, &out, &errOut); code != 1 {
		t.Fatalf("invalid scrape: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "bad.txt:") {
		t.Fatalf("findings not attributed to file: %s", out.String())
	}

	if code := run([]string{filepath.Join(dir, "missing.txt")}, &out, &errOut); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
}
