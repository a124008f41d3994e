package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "help")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d", c.Value())
	}
	reg.GaugeFunc("g", "help", func() float64 { return 2 })
	h := reg.Histogram("h_seconds", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Sum() != 556.5 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
	snap := reg.Snapshot()
	var hs *Sample
	for i := range snap.Families {
		switch f := &snap.Families[i]; f.Name {
		case "g":
			if f.Type != TypeGauge || f.Samples[0].Value != 2 {
				t.Fatalf("gauge family = %+v", *f)
			}
		case "h_seconds":
			hs = &f.Samples[0]
		}
	}
	if hs == nil {
		t.Fatal("h_seconds missing from snapshot")
	}
	// Cumulative: <=1 holds {0.5, 1}; <=10 adds 5; <=100 adds 50; +Inf adds 500.
	want := []Bucket{{1, 2}, {10, 3}, {100, 4}}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if hs.Count != 5 {
		t.Fatalf("snapshot count = %d", hs.Count)
	}
}

func TestRegistryIdempotentAndPanics(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "h", L("k", "v"))
	b := reg.Counter("dup_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels did not return the same counter")
	}
	other := reg.Counter("dup_total", "h", L("k", "w"))
	if other == a {
		t.Fatal("different labels returned the same counter")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("counter without _total", func() { reg.Counter("bad", "h") })
	one := func() float64 { return 1 }
	mustPanic("invalid name", func() { reg.GaugeFunc("0bad", "h", one) })
	mustPanic("invalid label", func() { reg.GaugeFunc("ok", "h", one, L("0bad", "v")) })
	mustPanic("type conflict", func() { reg.GaugeFunc("dup_total", "h", one) })
	mustPanic("descending bounds", func() { reg.Histogram("hh", "h", []float64{2, 1}) })
}

// TestSnapshotMergeFederation is the dominolb federation seam: merging
// two node registries' snapshots must behave like one registry that
// observed both nodes' traffic.
func TestSnapshotMergeFederation(t *testing.T) {
	mk := func(sessions int64, lat []float64, cell string) Snapshot {
		reg := NewRegistry()
		reg.Counter("node_sessions_total", "sessions").Add(sessions)
		reg.GaugeFunc("node_active", "active", func() float64 { return float64(sessions % 3) })
		reg.Counter("node_cell_total", "per cell", L("cell", cell)).Add(2)
		h := reg.Histogram("node_latency_seconds", "lat", []float64{0.001, 0.01})
		for _, v := range lat {
			h.Observe(v)
		}
		return reg.Snapshot()
	}
	a := mk(5, []float64{0.0005, 0.005}, "amarisoft")
	b := mk(7, []float64{0.02}, "tdd")

	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Family{}
	for _, f := range m.Families {
		byName[f.Name] = f
	}
	if v := byName["node_sessions_total"].Samples[0].Value; v != 12 {
		t.Fatalf("merged counter = %v, want 12", v)
	}
	if v := byName["node_active"].Samples[0].Value; v != 3 {
		t.Fatalf("merged gauge = %v, want 3 (2+1)", v)
	}
	if n := len(byName["node_cell_total"].Samples); n != 2 {
		t.Fatalf("per-cell samples = %d, want the union 2", n)
	}
	h := byName["node_latency_seconds"].Samples[0]
	if h.Count != 3 {
		t.Fatalf("merged hist count = %d", h.Count)
	}
	if h.Buckets[0].Count != 1 || h.Buckets[1].Count != 2 {
		t.Fatalf("merged buckets = %+v", h.Buckets)
	}
	if math.Abs(h.Sum-0.0255) > 1e-12 {
		t.Fatalf("merged sum = %v", h.Sum)
	}

	// Merged output still passes the exposition linter.
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if errs, _ := Lint(strings.NewReader(sb.String())); len(errs) != 0 {
		t.Fatalf("merged exposition invalid: %v\n%s", errs, sb.String())
	}

	// Conflicting layouts fail loudly.
	reg := NewRegistry()
	reg.Histogram("node_latency_seconds", "lat", []float64{1, 2, 3}).Observe(1)
	if _, err := Merge(a, reg.Snapshot()); err == nil {
		t.Fatal("merging mismatched bucket layouts did not error")
	}
	regA := NewRegistry()
	regA.GaugeFunc("conflict", "x", func() float64 { return 1 })
	regB := NewRegistry()
	regB.Histogram("conflict", "x", []float64{1}).Observe(1)
	if _, err := Merge(regA.Snapshot(), regB.Snapshot()); err == nil {
		t.Fatal("merging conflicting types did not error")
	}
}

func TestWriteTextFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "a counter").Add(2)
	reg.GaugeFunc("b", "a gauge with \\ and\nnewline", func() float64 { return 1.5 }, L("cell", `va"l\ue`))
	reg.Histogram("lat_seconds", "latency", []float64{0.01, 0.1}).Observe(0.05)
	var sb strings.Builder
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total a counter\n",
		"# TYPE a_total counter\n",
		"a_total 2\n",
		"# HELP b a gauge with \\\\ and\\nnewline\n",
		`b{cell="va\"l\\ue"} 1.5` + "\n",
		`lat_seconds_bucket{le="0.01"} 0`,
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.05\n",
		"lat_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs, stats := Lint(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("own exposition invalid: %v", errs)
	} else if stats.Families != 3 {
		t.Fatalf("lint saw %d families, want 3", stats.Families)
	}
}

// TestHotPathZeroAlloc pins the kernel's core contract: the operations
// that sit on ingest hot paths allocate nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "h")
	h := reg.Histogram("h_seconds", "h", nil)
	names := NewNameTable()
	names.Intern("dl_grant_starvation")
	rec := NewFlightRecorder(64, names)
	name := "dl_grant_starvation"
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Histogram.Observe", func() { h.Observe(0.0023) }},
		{"FlightRecorder.Record", func() {
			rec.Record(Event{Kind: EvNodeFired, Wall: 1, Sim: 2, NameID: names.ID(name), N: 3})
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
