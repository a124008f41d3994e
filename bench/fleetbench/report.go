package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricValue is one metric of the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one metric with its unit and which way is better; an
// end-to-end metric also has the share of the parent's median by which
// it may get worse before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics BENCHMARK.json gates, in its order. Each is
// defined on every workload; what it means on one (the ISSUE's name for
// it) is in nativeName. The bounds come from bench/baseline.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_record", "ns", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// nativeName maps a generic end-to-end metric to what it measures on
// one workload.
var nativeName = map[string]map[string]string{
	"latency_p50_ms": {"bulk-binary": "upload_p50_ms", "bulk-jsonl": "upload_p50_ms", "fleet-live": "detect_p50_ms, sent → covering report, r1..r3 pooled", "query-mix": "query_p50_ms, the kinds' medians weighted by the mix"},
	"latency_p99_ms": {"bulk-binary": "upload_p99_ms", "bulk-jsonl": "upload_p99_ms", "fleet-live": "detect_p99_ms, sent → covering report, r1..r3 pooled", "query-mix": "query_p99_ms"},
	"ops_per_s":      {"bulk-binary": "sessions_per_s", "bulk-jsonl": "sessions_per_s", "fleet-live": "chunk_reports_per_s", "query-mix": "queries_per_s"},
}

// runAll runs every workload in turn. With tracing it runs each twice,
// untraced then traced, and prints the tracing overhead: the difference
// between the two runs' end-to-end figures.
func runAll(ctx context.Context, seed int64, length time.Duration, traced bool) (*result, error) {
	var last *result
	for _, w := range workloadNames {
		res, plain, err := run(ctx, w, seed, length, false)
		if err == nil && traced {
			var withSpans map[string]float64
			if res, withSpans, err = run(ctx, w, seed, length, true); err == nil {
				fmt.Printf("  tracing overhead on %s (traced run vs untraced run):\n", w)
				for _, d := range endToEnd[1:] {
					fmt.Printf("    %-20s %14.4f -> %14.4f  %+6.1f %%\n", d.name, plain[d.name], withSpans[d.name],
						100*(withSpans[d.name]-plain[d.name])/plain[d.name])
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		last = res
	}
	return last, nil
}

// run sets up, runs one workload (and, traced, the in-process passes),
// prints the report, and returns the contract's result line and the
// end-to-end figures by name.
func run(ctx context.Context, workload string, seed int64, length time.Duration, traced bool) (*result, map[string]float64, error) {
	if !slices.Contains(workloadNames, workload) {
		return nil, nil, fmt.Errorf("unknown --workload %q (want one of %v)", workload, workloadNames)
	}
	if length <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	e, costs, err := setUpRounds(ctx, root, workload, seed)
	if err != nil {
		return nil, nil, err
	}
	defer e.fleet.stop()
	cost := medianCost(costs)

	// Every window shrinks by the same factor from the stated 30 s.
	warm := time.Duration(float64(statedWarmup) * float64(length) / float64(statedWindow))
	budget := time.Duration(0) // what a traced run keeps for the in-process passes
	var rec *recorder
	if traced {
		rec = newRecorder()
		budget = time.Duration(float64(length) * (1 - tracedShare))
		length -= budget
	}

	var o *outcome
	switch workload {
	case "bulk-binary":
		o, err = runBulk(ctx, e, true, warm, length, rec)
	case "bulk-jsonl":
		o, err = runBulk(ctx, e, false, warm, length, rec)
	case "fleet-live":
		o, err = runLive(ctx, e, livePlan{rates: liveRates[:], warm: warm, length: length, every: chunkEvery}, rec)
	case "query-mix":
		o, err = runQuery(ctx, e, warm, length, rec)
	}
	if err != nil {
		return nil, nil, err
	}

	measured, m := figures(workload, o, cost)
	attempted, failed, errs := o.tally.counts()
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}

	prov := provenanceOf(root, e, seed)
	prov.WindowS, prov.WarmupS = length.Seconds(), warm.Seconds()
	fmt.Printf("fleetbench %s seed=%d window=%s warmup=%s traced=%v\n", workload, seed, length, warm, traced)
	fmt.Printf("  provenance: %s\n", prov)
	fmt.Printf("  attempted=%d failed=%d failed_share=%.6f latency_samples=%d\n", attempted, failed, share(failed, attempted), o.lat.count())
	for _, msg := range errs {
		fmt.Printf("  failure: %s\n", msg)
	}
	fmt.Printf("  setup rounds:")
	for _, c := range costs {
		fmt.Printf(" %.3fs at capacity %.3f", c.total.Seconds(), c.host.capacity())
	}
	fmt.Printf("  (median build %.3f corpus %.3f preload %.3f boot %.3f, of which recover %.3f)\n",
		cost.build.Seconds(), cost.corpus.Seconds(), cost.preload.Seconds(), cost.boot.Seconds(), cost.recover.Seconds())
	fmt.Printf("  host: %s\n", o.host)
	fmt.Printf("  %-20s %14s %14s %-4s %-6s %5s  %s\n", "end-to-end metric", "reported", "as measured", "unit", "better", "bound", "on this workload")
	for _, d := range endToEnd {
		fmt.Printf("  %-20s %14.4f %14.4f %-4s %-6s %4.0f%%  %s\n", d.name, m[d.name], measured[d.name], d.unit, d.better, 100*d.bound, nativeName[d.name][workload])
	}
	fmt.Printf("  %-20s %14.4f %14.4f %-4s %-6s        %s (n=%d)\n", "latency_p99_ms", m["latency_p99_ms"], measured["latency_p99_ms"], "ms", "lower",
		nativeName["latency_p99_ms"][workload], o.lat.count())

	// Every other timing series, as measured, with its sample count.
	names := make([]string, 0, len(o.series))
	for name := range o.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if sr := o.series[name]; sr.count() > 0 {
			fmt.Printf("  %-28s p50 %10.4f  p90 %10.4f  p99 %10.4f  max %10.4f  (n=%d)\n",
				name, sr.percentile(50), sr.percentile(90), sr.percentile(99), sr.percentile(100), sr.count())
		}
	}
	names = names[:0]
	for name := range o.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f\n", name, o.extra[name])
	}

	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		}
		return res, m, nil
	}

	// The rest of --seconds goes to the in-process passes.
	lb, err := readLB(ctx, e.fleet)
	if err != nil {
		return nil, nil, err
	}
	var lbM map[string]float64
	if e.fleet.lb != nil {
		budget /= 2
		if lbM, err = lbPass(ctx, e, workload, rec, budget); err != nil {
			return nil, nil, err
		}
	}
	replayM, err := layerReplay(e, o, rec, budget)
	if err != nil {
		return nil, nil, err
	}
	spans := rec.snapshot()
	pl := perLayerValues(workload, e, o, cost, m, replayM, lbM, lb, len(spans))
	pl["host.speed"], pl["host.probe_us"] = o.host.speed, o.host.probeUs
	pl["host.steal_share"], pl["host.granted_share"] = o.host.stealShare, o.host.granted
	if rows := ledgerRows(workload, e, pl); rows != nil {
		fmt.Printf("  ledger (ns per record of dominod CPU, %s):\n", workload)
		for _, row := range rows {
			fmt.Printf("    %-28s %10.1f  %5.1f %%\n", row.layer, row.ns, 100*row.ns/pl["dominod.cpu_ns_per_record"])
		}
		fmt.Printf("    %-28s %10.1f  %5.1f %%\n", "unattributed", pl["dominod.unattributed_ns_per_record"], 100*pl["dominod.unattributed_share"])
		fmt.Printf("    %-28s %10.1f\n", "dominod.cpu_ns_per_record", pl["dominod.cpu_ns_per_record"])
	}
	for _, d := range perLayer {
		fmt.Printf("  %-38s %16.4f %-5s %s better\n", d.name, pl[d.name], d.unit, d.better)
		res.Metrics[d.name] = metricValue{Value: pl[d.name], Unit: d.unit}
	}
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(filepath.Join(outDir(root), "trace-"+workload+".jsonl"), spans); err != nil {
		return nil, nil, err
	}
	return res, m, nil
}

// figures turns a window's outcome into the end-to-end figures (and the
// tail latency, which is reported but not gated): as the clock read
// them, and scaled to the reference machine (see probe.go).
func figures(workload string, o *outcome, cost setupCost) (measured, reported map[string]float64) {
	measured = map[string]float64{
		"setup_s":        cost.total.Seconds(),
		"records_per_s":  float64(o.records) / o.wall.Seconds(),
		"latency_p50_ms": o.p50(),
		"latency_p99_ms": o.lat.percentile(99),
		"ops_per_s":      float64(o.ops) / o.wall.Seconds(),
	}
	if o.records > 0 {
		measured["cpu_ns_per_record"] = float64(o.cpu) / float64(o.records)
	}
	reported = maps.Clone(measured)
	// Set-up is wall-clock work like any other, metered round by round.
	reported["setup_s"] = cost.scaled.Seconds()
	for _, k := range scaled[workload] {
		switch {
		case k == "cpu_ns_per_record":
			reported[k] = measured[k] * o.host.speed
		case strings.HasSuffix(k, "_per_s"):
			reported[k] = measured[k] / o.host.capacity()
		default:
			reported[k] = measured[k] * o.host.capacity()
		}
	}
	return measured, reported
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
