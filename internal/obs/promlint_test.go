package obs

import (
	"strings"
	"testing"
)

const validExposition = `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="200"} 41
app_requests_total{code="500"} 1
# HELP app_active_sessions Sessions currently open.
# TYPE app_active_sessions gauge
app_active_sessions 3
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.01"} 2
app_latency_seconds_bucket{le="0.1"} 5
app_latency_seconds_bucket{le="+Inf"} 6
app_latency_seconds_sum 0.73
app_latency_seconds_count 6
`

func TestLintValidDocument(t *testing.T) {
	errs, stats := Lint(strings.NewReader(validExposition))
	if len(errs) != 0 {
		t.Fatalf("valid document rejected: %v", errs)
	}
	if stats.Families != 3 {
		t.Fatalf("families = %d, want 3", stats.Families)
	}
	if stats.Samples != 4 {
		t.Fatalf("samples = %d, want 4 (a histogram series is one)", stats.Samples)
	}
}

// TestLintReportsEveryRule: ParseText stops at the first rule a scrape
// breaks, Lint names them all.
func TestLintReportsEveryRule(t *testing.T) {
	doc := "# HELP c\n# TYPE c counter\nc{a=\"1\",a=\"2\"} -1\n"
	errs, stats := Lint(strings.NewReader(doc))
	if len(errs) != 4 || stats != (LintStats{Families: 1, Samples: 1}) {
		t.Fatalf("want the 4 rules broken (HELP, _total, duplicate label, negative) over 1 family / 1 series, got %v, %+v", errs, stats)
	}
	_, err := ParseText(strings.NewReader(doc))
	if err == nil || err.Error() != errs[0].Error() {
		t.Fatalf("ParseText error %v, want Lint's first: %v", err, errs[0])
	}
}

// TestLintInvalidDocuments: every document here is an error from Lint
// and from ParseText — one reader, one set of rules.
func TestLintInvalidDocuments(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{
			"sample without metadata",
			"orphan_metric 1\n",
			"before # HELP and # TYPE",
		},
		{
			"counter without _total",
			"# HELP bad Requests.\n# TYPE bad counter\nbad 1\n",
			"must be named *_total",
		},
		{
			"negative counter",
			"# HELP c_total C.\n# TYPE c_total counter\nc_total -1\n",
			"is negative",
		},
		{
			"bad label escape",
			"# HELP g G.\n# TYPE g gauge\ng{cell=\"a\\qb\"} 1\n",
			`bad escape \q`,
		},
		{
			"unquoted label value",
			"# HELP g G.\n# TYPE g gauge\ng{cell=bare} 1\n",
			"not quoted",
		},
		{
			"bad value",
			"# HELP g G.\n# TYPE g gauge\ng one\n",
			`bad value "one"`,
		},
		{
			"non-monotonic le",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"0.01\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"buckets out of order",
		},
		{
			"non-cumulative buckets",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative",
		},
		{
			"bucket above +Inf",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 4\n",
			"above the +Inf bucket",
		},
		{
			"negative bucket count",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} -1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"negative bucket count",
		},
		{
			"empty HELP",
			"# HELP g\n# TYPE g gauge\ng 1\n",
			"empty HELP",
		},
		{
			"missing +Inf bucket",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n",
			"no +Inf bucket",
		},
		{
			"+Inf disagrees with _count",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
			"!= _count",
		},
		{
			"interleaved families",
			"# HELP a A.\n# TYPE a gauge\n# HELP b B.\n# TYPE b gauge\na 1\nb 1\na 2\n",
			`sample "a" outside family "b" block`,
		},
		{
			"duplicate TYPE",
			"# HELP g G.\n# TYPE g gauge\n# TYPE g gauge\ng 1\n",
			"duplicate TYPE",
		},
		{
			"unknown TYPE",
			"# HELP g G.\n# TYPE g matrix\ng 1\n",
			"unsupported TYPE",
		},
		{
			"duplicate label",
			"# HELP g G.\n# TYPE g gauge\ng{a=\"1\",a=\"2\"} 1\n",
			`duplicate label "a"`,
		},
		{
			"invalid metric name",
			"# HELP 0g G.\n# TYPE 0g gauge\n0g 1\n",
			"invalid",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if snap, err := ParseText(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("ParseText accepted the document as %+v", snap)
			}
			errs, _ := Lint(strings.NewReader(tc.doc))
			if len(errs) == 0 {
				t.Fatalf("document accepted, want error containing %q", tc.wantErr)
			}
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.wantErr) {
					return
				}
			}
			t.Fatalf("no error contains %q; got %v", tc.wantErr, errs)
		})
	}
}
