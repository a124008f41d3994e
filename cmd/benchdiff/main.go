// Command benchdiff compares a fresh benchmark snapshot (benchjson
// output) against a committed baseline and fails on what any host can
// decide — the enforcement half of the perf trajectory that benchjson
// records.
//
// Usage:
//
//	benchdiff -baseline BENCH_scenarios.json -current BENCH_fresh.json \
//	    [-floor 'Name:unit=value' ...] [-o BENCH_diff.txt]
//
// The baseline was measured on one machine and the current run on
// another, so only metrics that do not depend on the host are gated:
//
//   - allocation metrics (allocs/op, allocs/rec, B/op) must not grow
//     more than 30% (allocTolerance), and a zero baseline is a
//     zero-alloc contract with an absolute tolerance;
//   - throughput metrics (any unit ending in "/s") are printed beside
//     the baseline as information and never fail: a slower or busier
//     host moves them by more than any change does. Paired runs on one
//     host (CHANGES.md) and the repo benchmark decide speed.
//
// ns/op is not shown: every throughput metric above is derived from the
// same clock. Benchmarks present only in the baseline fail the diff (a
// silently vanished benchmark is how perf contracts rot); benchmarks
// present only in the current run are reported as unbaselined, and
// allocation improvements beyond the tolerance are flagged as
// re-baseline hints.
//
// Relative gating cannot express "this new path must clear an absolute
// bar", so -floor pins one: each (repeatable) -floor Name:unit=value
// requires the named benchmark's metric in the CURRENT run to be at
// least value for higher-better units ("/s") and at most value for
// lower-better ones. A floored benchmark missing from the current run
// fails — a floor is a contract, not a hint — and floors apply whether
// or not the benchmark is baselined.
//
// Exit codes: 0 pass, 1 regression (or vanished benchmark), 2 usage or
// I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// document mirrors cmd/benchjson's output schema.
type document struct {
	Benchmarks []benchResult `json:"benchmarks"`
}

type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// allocTolerance is how far an allocation metric may grow over the
// baseline: allocs/op at -benchtime=3x carries warm-up allocations that
// amortize differently from run to run, but not by a third.
const allocTolerance = 0.30

// direction classifies how a metric should be compared.
type direction int

const (
	skip direction = iota
	higherBetter
	lowerBetter
)

func metricDirection(unit string) direction {
	switch {
	case strings.HasSuffix(unit, "/s"):
		return higherBetter
	case unit == "allocs/op" || unit == "allocs/rec" || unit == "B/op":
		return lowerBetter
	default:
		return skip
	}
}

// delta is one gated comparison result.
type delta struct {
	change              float64 // signed relative change, positive = better
	regressed, improved bool
}

// floor is one absolute -floor contract: the named benchmark's metric
// must clear value in the current run.
type floor struct {
	bench, unit string
	value       float64
}

// floorFlags collects repeated -floor arguments.
type floorFlags []floor

func (f *floorFlags) String() string {
	parts := make([]string, len(*f))
	for i, fl := range *f {
		parts[i] = fmt.Sprintf("%s:%s=%g", fl.bench, fl.unit, fl.value)
	}
	return strings.Join(parts, ",")
}

func (f *floorFlags) Set(s string) error {
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		return fmt.Errorf("floor %q: want Name:unit=value", s)
	}
	unit, valStr, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("floor %q: want Name:unit=value", s)
	}
	var val float64
	if _, err := fmt.Sscanf(valStr, "%g", &val); err != nil {
		return fmt.Errorf("floor %q: bad value %q", s, valStr)
	}
	if name == "" || unit == "" || val <= 0 {
		return fmt.Errorf("floor %q: name, unit and a positive value are required", s)
	}
	if metricDirection(unit) == skip {
		return fmt.Errorf("floor %q: unit %q is not a gated metric", s, unit)
	}
	*f = append(*f, floor{bench: name, unit: unit, value: val})
	return nil
}

// checkFloors evaluates every -floor contract against the current run,
// appending report lines and returning the failures.
func checkFloors(current map[string]benchResult, floors []floor, sb *strings.Builder) []string {
	var failures []string
	for _, fl := range floors {
		cur, ok := current[fl.bench]
		if ok {
			_, ok = cur.Metrics[fl.unit]
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("%s [%s]: floored benchmark missing from current run", fl.bench, fl.unit))
			continue
		}
		cv := cur.Metrics[fl.unit]
		holds := cv >= fl.value
		cmp := ">="
		if metricDirection(fl.unit) == lowerBetter {
			holds = cv <= fl.value
			cmp = "<="
		}
		status := "ok"
		if !holds {
			status = "BELOW FLOOR"
			failures = append(failures, fmt.Sprintf("%s [%s]: %.4g, floor requires %s %.4g", fl.bench, fl.unit, cv, cmp, fl.value))
		}
		fmt.Fprintf(sb, "%-60s %-12s %12s %s %-10.4g measured %-10.4g %s\n", fl.bench, fl.unit, "floor", cmp, fl.value, cv, status)
	}
	return failures
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_scenarios.json", "committed baseline benchjson document")
	currentPath := fs.String("current", "", "fresh benchjson document to compare (required)")
	var floors floorFlags
	fs.Var(&floors, "floor", "absolute contract Name:unit=value the current run must clear (repeatable)")
	outPath := fs.String("o", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *currentPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -current is required")
		fs.Usage()
		return 2
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	report, failed := diff(baseline, current, floors)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}
	fmt.Fprint(stdout, report)
	if failed {
		return 1
	}
	return 0
}

func load(path string) (map[string]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchResult, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		out[b.Name] = b
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return out, nil
}

// diff renders the comparison report and reports whether the gate
// failed.
func diff(baseline, current map[string]benchResult, floors []floor) (string, bool) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	var regressions, vanished []string
	improvements, compared, newBenches := 0, 0, 0
	fmt.Fprintf(&sb, "benchdiff: allocation metrics gated at %.0f%% growth; /s rows are information\n\n", allocTolerance*100)
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			vanished = append(vanished, name)
			continue
		}
		units := make([]string, 0, len(base.Metrics))
		for unit := range base.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			dir := metricDirection(unit)
			if dir == skip {
				continue
			}
			bv := base.Metrics[unit]
			cv, ok := cur.Metrics[unit]
			if !ok {
				vanished = append(vanished, name+" ["+unit+"]")
				continue
			}
			d := compare(bv, cv, unit, dir)
			if dir == higherBetter {
				fmt.Fprintf(&sb, "%-60s %-12s %12.4g -> %-12.4g %+6.1f%%  info (host-dependent, not gated)\n", name, unit, bv, cv, d.change*100)
				continue
			}
			compared++
			status := "ok"
			if d.regressed {
				status = "REGRESSED"
				regressions = append(regressions, fmt.Sprintf("%s [%s]: %.4g -> %.4g (%+.1f%%)", name, unit, bv, cv, d.change*100))
			} else if d.improved {
				status = "improved (consider re-baselining)"
				improvements++
			}
			fmt.Fprintf(&sb, "%-60s %-12s %12.4g -> %-12.4g %+6.1f%%  %s\n", name, unit, bv, cv, d.change*100, status)
		}
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			newBenches++
			fmt.Fprintf(&sb, "%-60s (new, unbaselined — run `make bench-json` to add it)\n", name)
		}
	}
	floorFailures := checkFloors(current, floors, &sb)
	sb.WriteString("\n")
	failed := false
	if len(floorFailures) > 0 {
		failed = true
		fmt.Fprintf(&sb, "FAIL: %d floor contract(s) not met:\n", len(floorFailures))
		for _, f := range floorFailures {
			fmt.Fprintf(&sb, "  - %s\n", f)
		}
	}
	if len(vanished) > 0 {
		failed = true
		fmt.Fprintf(&sb, "FAIL: %d baselined benchmark(s)/metric(s) missing from the current run:\n", len(vanished))
		for _, v := range vanished {
			fmt.Fprintf(&sb, "  - %s\n", v)
		}
	}
	if len(regressions) > 0 {
		failed = true
		fmt.Fprintf(&sb, "FAIL: %d metric(s) regressed beyond %.0f%%:\n", len(regressions), allocTolerance*100)
		for _, r := range regressions {
			fmt.Fprintf(&sb, "  - %s\n", r)
		}
	}
	if !failed {
		fmt.Fprintf(&sb, "PASS: no metric regressed beyond %.0f%% (%d improvement(s) beyond threshold)\n", allocTolerance*100, improvements)
	}
	verdict := "PASS"
	if failed {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "gate summary: %s — %d gated metric(s) compared, %d ok, %d regressed, %d improved, %d missing, %d unbaselined, %d/%d floor(s) held\n",
		verdict, compared, compared-len(regressions)-improvements, len(regressions), improvements, len(vanished), newBenches,
		len(floors)-len(floorFailures), len(floors))
	return sb.String(), failed
}

// compare evaluates one metric pair. change is signed so that positive
// is always an improvement regardless of direction; only lower-better
// (allocation) metrics can regress.
func compare(baseline, current float64, unit string, dir direction) delta {
	var d delta
	switch {
	case baseline == 0:
		// Zero baselines cannot regress relatively, so the zero-alloc
		// contract is enforced with absolute tolerances: half an
		// allocation for allocs/* (a real per-op allocation is always
		// ≥1; testing's integer rounding can hide up to that much) and
		// 16 bytes for B/op (catches a large amortized buffer that
		// rounds to 0 allocs/op), while measurement noise amortized
		// over thousands of records cannot trip CI.
		if dir == lowerBetter {
			switch {
			case strings.HasPrefix(unit, "allocs/") && current > 0.5,
				unit == "B/op" && current > 16:
				d.regressed = true
				d.change = -1
			}
		}
	case dir == higherBetter:
		d.change = current/baseline - 1
	case dir == lowerBetter:
		d.change = 1 - current/baseline
		d.regressed = d.change < -allocTolerance
		d.improved = d.change > allocTolerance
	}
	return d
}
