package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// roundTripRegistry builds a registry exercising every metric kind and
// the exposition escapes, returns its snapshot.
func roundTripSnapshot(t testing.TB) Snapshot {
	t.Helper()
	r := NewRegistry()
	c := r.Counter("rt_requests_total", "Requests handled.", L("node", "a"), L("path", `with "quotes" and \slash`))
	c.Add(41)
	r.Counter("rt_requests_total", "Requests handled.", L("node", "b")).Add(1)
	r.GaugeFunc("rt_temperature", "Help with\nnewline and \\ backslash.", func() float64 { return -3.25 })
	h := r.Histogram("rt_latency_us", "Latency.", []float64{100, 1000, 10000}, L("shard", "0"))
	for _, v := range []float64{50, 150, 2500, 99999} {
		h.Observe(v)
	}
	// A histogram series with zero observations must survive too.
	r.Histogram("rt_idle_us", "Never observed.", []float64{1, 2})
	return r.Snapshot()
}

func TestParseTextRoundTrip(t *testing.T) {
	want := roundTripSnapshot(t)
	var buf bytes.Buffer
	if err := want.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseText: %v\ninput:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v\ninput:\n%s", got, want, buf.String())
	}
	// The rules ran on the way in; on a scrape that keeps them they cost
	// no error, map or label signature.
	if n := testing.AllocsPerRun(10, func() { _ = got.violations() }); n != 0 {
		t.Fatalf("%v allocations to check a valid snapshot's rules, want 0", n)
	}
	// And the parsed snapshot re-renders byte-identically.
	var again bytes.Buffer
	if err := got.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatalf("re-render diverged:\nfirst:\n%s\nsecond:\n%s", buf.String(), again.String())
	}
}

// TestParseTextMergesAcrossNodes is the federation seam end to end:
// two nodes' expositions parse, Merge, and the merged text lints.
func TestParseTextMergesAcrossNodes(t *testing.T) {
	render := func(node string, requests int64) []byte {
		r := NewRegistry()
		r.Counter("fleet_requests_total", "Requests.", L("node", node)).Add(requests)
		r.GaugeFunc("fleet_sessions", "Active sessions.", func() float64 { return 2 })
		h := r.Histogram("fleet_latency_us", "Latency.", []float64{10, 100})
		h.Observe(5)
		h.Observe(50)
		var buf bytes.Buffer
		if err := r.Snapshot().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, err := ParseText(bytes.NewReader(render("a", 10)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(bytes.NewReader(render("b", 32)))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	errs, stats := Lint(bytes.NewReader(buf.Bytes()))
	for _, e := range errs {
		t.Errorf("merged exposition: %v", e)
	}
	if stats.Families != 3 {
		t.Fatalf("families = %d, want 3", stats.Families)
	}
	text := buf.String()
	if !strings.Contains(text, `fleet_requests_total{node="a"} 10`) ||
		!strings.Contains(text, `fleet_requests_total{node="b"} 32`) {
		t.Fatalf("per-node counters missing:\n%s", text)
	}
	if !strings.Contains(text, "fleet_sessions 4") {
		t.Fatalf("gauge not summed:\n%s", text)
	}
	if !strings.Contains(text, `fleet_latency_us_bucket{le="100"} 4`) ||
		!strings.Contains(text, "fleet_latency_us_count 4") {
		t.Fatalf("histogram not summed bucket-wise:\n%s", text)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"sample before metadata", "up 1\n", "before # HELP"},
		{"type without help", "# TYPE up gauge\nup 1\n", "without preceding HELP"},
		{"help without type", "# HELP up Up.\nup 1\n", "before # HELP and # TYPE"},
		{"unsupported type", "# HELP s Sum.\n# TYPE s summary\n", "unsupported TYPE"},
		{"duplicate family", "# HELP a A.\n# TYPE a gauge\na 1\n# HELP a A.\n# TYPE a gauge\n", "declared twice"},
		{"foreign sample in block", "# HELP a A.\n# TYPE a gauge\nb 1\n", "outside family"},
		{"bad value", "# HELP a A.\n# TYPE a gauge\na nope\n", "bad value"},
		{"histogram without inf", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_sum 0\nh_count 0\n", "no +Inf"},
		{"inf count mismatch", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 3\n", "!= _count"},
		{"buckets out of order", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"10\"} 0\nh_bucket{le=\"5\"} 0\n", "out of order"},
		{"fractional bucket count", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1.5\n", "integral"},
		{"two le labels", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\",le=\"+Inf\"} 0\n", `duplicate label "le"`},
		{"unterminated labels", "# HELP a A.\n# TYPE a gauge\na{x=\"1\" 1\n", "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseText(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("parsed malformed doc without error:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseTextIgnoresCommentsAndTimestamps: plain comments and
// optional sample timestamps are part of the format and must not trip
// the strict parser.
func TestParseTextIgnoresCommentsAndTimestamps(t *testing.T) {
	doc := "# just a comment\n# HELP a_total A.\n# TYPE a_total counter\n\na_total{x=\"1\"} 7 1754000000\n"
	snap, err := ParseText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Families) != 1 || snap.Families[0].Samples[0].Value != 7 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// FuzzParseText: the scrape parser faces backends over the network, so
// it must never panic, and any text it accepts is a snapshot that
// WriteText renders back into text that lints clean and that ParseText
// reads as the same snapshot — the federation seam loses nothing on the
// way through and re-serves nothing invalid. A body that arrives one
// byte per read parses as it does in one read: the same snapshot, or
// the same error.
func FuzzParseText(f *testing.F) {
	var seed bytes.Buffer
	if err := roundTripSnapshot(f).WriteText(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# HELP a A.\n# TYPE a counter\na{node=\"n1\"} 3 1700000000\n")
	f.Add("# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n")
	f.Add("# HELP g G.\n# TYPE g gauge\ng NaN\ng{k=\"v\"} -Inf\n")
	f.Add("# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n# HELP c C.\n# TYPE c counter\nc{a=\"1\",a=\"2\"} -1\n")
	f.Fuzz(func(t *testing.T, text string) {
		snap, err := ParseText(strings.NewReader(text))
		bytewise, bytewiseErr := ParseText(iotest.OneByteReader(strings.NewReader(text)))
		if fmt.Sprint(bytewiseErr) != fmt.Sprint(err) || fmt.Sprintf("%+v", bytewise) != fmt.Sprintf("%+v", snap) {
			t.Fatalf("one-byte reads parse differently\ninput:\n%s\nwhole: %+v, %v\nbytes: %+v, %v", text, snap, err, bytewise, bytewiseErr)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := snap.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		if errs, _ := Lint(bytes.NewReader(out.Bytes())); len(errs) > 0 {
			t.Fatalf("WriteText of an accepted snapshot does not lint: %v\ninput:\n%s\nrendered:\n%s", errs, text, out.String())
		}
		again, err := ParseText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("WriteText of an accepted snapshot does not parse: %v\ninput:\n%s\nrendered:\n%s", err, text, out.String())
		}
		// Compared as printed: a NaN gauge is a legal sample, and NaN is
		// not DeepEqual to itself.
		if want, got := fmt.Sprintf("%+v", snap), fmt.Sprintf("%+v", again); got != want {
			t.Fatalf("ParseText(WriteText(s)) != s\ninput:\n%s\ns:     %s\nagain: %s", text, want, got)
		}
	})
}

// TestParseTextAllocs pins the scrape parser's allocations on a
// document shaped like a dominod /metrics body (plain and labeled
// counters, gauges, labeled histograms): it reads the document into one
// string and parses every line, name and unescaped label value out of
// it, and computes a histogram series' key once, so a line costs at most
// its value fields (strings.Fields) beside what the snapshot keeps —
// families, labeled samples, histogram series and their buckets. A
// parser that makes a string or a read buffer per line, or a series key
// per histogram line, allocates several times the line count (≈ 6 per
// line before this ceiling).
func TestParseTextAllocs(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 24; i++ {
		r.Counter(fmt.Sprintf("node_events_%d_total", i), "Events of one kind.").Add(int64(i * 1000))
	}
	for _, reason := range []string{"capacity", "draining", "bad_header", "too_large", "timeout", "conflict"} {
		r.Counter("node_rejected_total", "Requests shed, by reason.", L("reason", reason)).Inc()
	}
	for i := 0; i < 9; i++ {
		r.GaugeFunc(fmt.Sprintf("node_level_%d", i), "A level.", func() float64 { return float64(i) + 0.5 })
	}
	for _, format := range []string{"jsonl", "binary"} {
		r.Counter("node_records_total", "Records, by format.", L("format", format)).Add(58638)
		for _, name := range []string{"node_decode_seconds", "node_wait_seconds"} {
			h := r.Histogram(name, "Wall time, by format.", nil, L("format", format))
			for v := 1e-5; v < 10; v *= 1.7 {
				h.Observe(v)
			}
		}
	}
	for _, name := range []string{"node_step_seconds", "node_insert_seconds"} {
		r.Histogram(name, "Wall time.", nil).Observe(0.003)
	}
	var text bytes.Buffer
	if err := r.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(text.Bytes(), []byte("\n"))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseText(bytes.NewReader(text.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(2*lines) {
		t.Fatalf("ParseText of a %d-line, %d-byte document made %.0f allocations, want at most two per line", lines, text.Len(), allocs)
	}
	t.Logf("%d lines, %d bytes: %.0f allocations", lines, text.Len(), allocs)
}
