// Package obs is the self-contained observability kernel for the
// Domino fleet: zero-allocation metrics (atomic counters and
// fixed-bucket histograms, gauges computed at snapshot time) registered
// in a named Registry, a point-in-time Snapshot API whose Merge is the
// federation seam dominolb collapses its nodes' snapshots into one fleet
// view with, spec-valid Prometheus text exposition (with a Lint
// validator the tests and cmd/promlint share), a per-session pipeline flight
// recorder, and the nil-safe Hooks interface the per-session
// pipeline (internal/core, internal/stream) publishes stage events
// through.
//
// Design constraints, in order:
//
//  1. Hot-path operations — Counter.Add, Histogram.Observe,
//     FlightRecorder.Record — allocate nothing and take no locks, so
//     instrumentation-on is the default without breaking the perf
//     contract (TestHotPathZeroAlloc pins this). The metrics are
//     atomics; Record takes no lock because its owner already holds
//     one, the lock of the session the recorder belongs to.
//  2. The package depends only on the standard library: it sits below
//     every other internal package and any of them may import it.
//  3. Snapshots are plain serializable values: Merge(a, b) of two node
//     snapshots behaves exactly like one registry that had observed
//     both nodes' traffic, which is what lets a balancer tier
//     federate per-node /metrics without scraping infrastructure.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// NewLogger builds a daemon's log/slog logger on w from its -log-format
// ("text" or "json") and -v (debug level) flags. Any other format is an
// error that names it.
func NewLogger(w io.Writer, format string, verbose bool) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	if verbose {
		opts.Level = slog.LevelDebug
	}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// Label is one metric dimension (a Prometheus label pair). Labels are
// fixed at registration; dynamic label values should be pre-registered
// per known value (see internal/node's per-node event counters) so the
// increment path stays lock- and allocation-free.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Type is a metric family's Prometheus type.
type Type string

// Metric family types understood by the registry and the linter.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is usable, but counters are normally created via Registry.Counter so
// they appear in snapshots.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (which must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram: observation counts
// per upper bound plus a +Inf overflow bucket, a running sum, and a
// total count. Buckets are fixed at registration so Observe is one
// bounded scan plus two atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default bucket layout for per-stage pipeline
// latencies, in seconds: 1µs to 100ms in a 1-2.5-5 progression. The
// pipeline's hot stages sit in the microsecond range; anything past
// 100ms lands in +Inf and is pathological by definition.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1,
}

// sample is one registered metric instance (a label combination within
// a family). Exactly one of the value sources is set.
type sample struct {
	labels []Label
	ctr    *Counter
	hist   *Histogram
	fn     func() float64
}

// family groups every sample registered under one metric name.
type family struct {
	name, help string
	typ        Type
	keys       []string // sample signatures, registration order
	samples    map[string]*sample
}

// Registry is a named collection of metrics. Registration takes a
// lock and may allocate; it happens at service start. Reads of the
// returned metric handles are lock-free. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	names    []string // family registration order
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (and returns) a counter. Counter names must end in
// "_total" — the exposition convention the linter enforces. Registering
// the same name+labels twice returns the existing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	s := r.register(name, help, TypeCounter, labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// GaugeFunc registers a gauge whose value is computed by fn at
// snapshot time — for values another subsystem already maintains
// (registry occupancy, store rows) where mirroring them into an atomic
// would add a hot-path write for a scrape-time read.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, TypeGauge, labels)
	s.fn = fn
}

// CounterFunc registers a counter whose (monotonic) value is computed
// by fn at snapshot time. The "_total" naming rule applies.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	s := r.register(name, help, TypeCounter, labels)
	s.fn = fn
}

// Histogram registers (and returns) a fixed-bucket histogram. bounds
// must be ascending; nil selects LatencyBuckets. Registering the same
// name+labels twice returns the existing histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	s := r.register(name, help, TypeHistogram, labels)
	if s.hist == nil {
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return s.hist
}

// nameOK reports whether name is a valid metric or label name.
func nameOK(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(name) > 0
}

func (r *Registry) register(name, help string, typ Type, labels []Label) *sample {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameOK(l.Key) || strings.Contains(l.Key, ":") || strings.HasPrefix(l.Key, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, samples: map[string]*sample{}}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: %q registered as %s, re-registered as %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	s := f.samples[key]
	if s == nil {
		s = &sample{labels: append([]Label(nil), labels...)}
		f.samples[key] = s
		f.keys = append(f.keys, key)
	}
	return s
}

// labelKey is a sample's canonical signature: labels sorted by key, so
// registration order of labels never splits one logical series in two.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
		b.WriteByte(',')
	}
	return b.String()
}

// Bucket is one cumulative histogram bucket in a snapshot. LE is the
// finite upper bound; the implicit +Inf bucket equals Sample.Count.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Sample is one metric instance's point-in-time value.
type Sample struct {
	Labels []Label `json:"labels,omitempty"`
	// Value carries counters and gauges.
	Value float64 `json:"value"`
	// Buckets/Sum/Count carry histograms; Buckets are cumulative over
	// the finite bounds, Count is the +Inf cumulative total.
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
}

// Family is one metric family's point-in-time state.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help"`
	Type    Type     `json:"type"`
	Samples []Sample `json:"samples"`
}

// Snapshot is a registry's full point-in-time state: a plain
// serializable value, ordered by family registration. Snapshots from
// different nodes merge with Merge — the dominolb federation seam.
type Snapshot struct {
	Families []Family `json:"families"`
}

// Snapshot captures every registered metric's current value.
// Func-backed metrics are evaluated here, on the scrape path, never on
// the hot path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot
	for _, name := range r.names {
		f := r.families[name]
		fam := Family{Name: f.name, Help: f.help, Type: f.typ}
		for _, key := range f.keys {
			s := f.samples[key]
			out := Sample{Labels: s.labels}
			switch {
			case s.fn != nil:
				out.Value = s.fn()
			case s.ctr != nil:
				out.Value = float64(s.ctr.Value())
			case s.hist != nil:
				out.Buckets = make([]Bucket, len(s.hist.bounds))
				var cum int64
				for i, b := range s.hist.bounds {
					cum += s.hist.counts[i].Load()
					out.Buckets[i] = Bucket{LE: b, Count: cum}
				}
				out.Count = cum + s.hist.counts[len(s.hist.bounds)].Load()
				out.Sum = s.hist.Sum()
			}
			fam.Samples = append(fam.Samples, out)
		}
		snap.Families = append(snap.Families, fam)
	}
	return snap
}

// Merge combines node snapshots into one fleet view: counters and
// gauges sum across nodes (gauges are occupancy-style here — sessions,
// rows, slots — and fleet occupancy is the sum), histograms sum
// bucket-wise. Families and samples present on only some nodes pass
// through. Merging histograms with different bucket layouts, or one
// name with conflicting types, is an error.
func Merge(snaps ...Snapshot) (Snapshot, error) {
	type accFamily struct {
		fam     Family
		keys    map[string]*Sample
		keyList []string
	}
	acc := map[string]*accFamily{}
	var order []string
	for _, snap := range snaps {
		for _, f := range snap.Families {
			af := acc[f.Name]
			if af == nil {
				af = &accFamily{
					fam:  Family{Name: f.Name, Help: f.Help, Type: f.Type},
					keys: map[string]*Sample{},
				}
				acc[f.Name] = af
				order = append(order, f.Name)
			}
			if af.fam.Type != f.Type {
				return Snapshot{}, fmt.Errorf("obs: merge: %q is %s on one node, %s on another", f.Name, af.fam.Type, f.Type)
			}
			for _, s := range f.Samples {
				key := labelKey(s.Labels)
				as := af.keys[key]
				if as == nil {
					cp := s
					cp.Labels = append([]Label(nil), s.Labels...)
					cp.Buckets = append([]Bucket(nil), s.Buckets...)
					af.keys[key] = &cp
					af.keyList = append(af.keyList, key)
					continue
				}
				as.Value += s.Value
				as.Sum += s.Sum
				as.Count += s.Count
				if len(as.Buckets) != len(s.Buckets) {
					return Snapshot{}, fmt.Errorf("obs: merge: %q bucket layouts differ", f.Name)
				}
				for i := range s.Buckets {
					if as.Buckets[i].LE != s.Buckets[i].LE {
						return Snapshot{}, fmt.Errorf("obs: merge: %q bucket bounds differ", f.Name)
					}
					as.Buckets[i].Count += s.Buckets[i].Count
				}
			}
		}
	}
	var out Snapshot
	for _, name := range order {
		af := acc[name]
		for _, key := range af.keyList {
			af.fam.Samples = append(af.fam.Samples, *af.keys[key])
		}
		out.Families = append(out.Families, af.fam)
	}
	return out, nil
}

// WriteText renders the snapshot in Prometheus text exposition format
// (version 0.0.4): a # HELP and # TYPE line per family, then one line
// per sample, with histogram samples expanded to _bucket/_sum/_count.
// The output of a snapshot that breaks no rule (violations: what
// ParseText returns, and a Merge of such) passes Lint.
func (s Snapshot) WriteText(w io.Writer) error {
	var b []byte
	for _, f := range s.Families {
		b = b[:0]
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = appendEscapedHelp(b, f.Help)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		for _, smp := range f.Samples {
			switch f.Type {
			case TypeHistogram:
				for _, bk := range smp.Buckets {
					b = appendSample(b, f.Name+"_bucket", smp.Labels, fmtFloat(bk.LE), float64(bk.Count))
				}
				b = appendSample(b, f.Name+"_bucket", smp.Labels, "+Inf", float64(smp.Count))
				b = appendSample(b, f.Name+"_sum", smp.Labels, "", smp.Sum)
				b = appendSample(b, f.Name+"_count", smp.Labels, "", float64(smp.Count))
			default:
				b = appendSample(b, f.Name, smp.Labels, "", smp.Value)
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendSample renders one exposition line. le, when non-empty, is
// appended as the trailing "le" label (histogram buckets).
func appendSample(b []byte, name string, labels []Label, le string, v float64) []byte {
	b = append(b, name...)
	if len(labels) > 0 || le != "" {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l.Key...)
			b = append(b, '=', '"')
			b = appendEscapedValue(b, l.Value)
			b = append(b, '"')
		}
		if le != "" {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, le...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = append(b, fmtFloat(v)...)
	b = append(b, '\n')
	return b
}

// fmtFloat renders a sample value: integral values without a decimal
// point (counters read naturally), everything else in shortest form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendEscapedValue escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func appendEscapedValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendEscapedHelp escapes HELP text: backslash and newline (quotes
// are legal in help text).
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}
