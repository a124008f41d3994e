package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"time"

	"github.com/domino5g/domino/internal/obs"
)

// perLayer are the traced run's metrics, in BENCHMARK.json's order. A
// traced run prints every one of them on every workload; a layer that
// does no work on a workload (the balancer on bulk-*, the journal with
// journaling off) reports 0.
var perLayer = []metricDef{
	// internal/trace: both codecs, replayed in-process.
	{"trace.binary_decode_ns_per_record", "ns", "lower", 0},
	{"trace.binary_bytes_per_record", "B", "lower", 0},
	{"trace.jsonl_decode_ns_per_record", "ns", "lower", 0},
	{"trace.jsonl_bytes_per_record", "B", "lower", 0},
	// internal/stream and internal/core.
	{"stream.push_ns_per_record", "ns", "lower", 0},
	{"stream.push_self_ns_per_record", "ns", "lower", 0},
	{"stream.close_us_per_session", "us", "lower", 0},
	{"stream.max_buffered_records", "count", "lower", 0},
	{"core.observe_ns_per_record", "ns", "lower", 0},
	{"core.eval_us_per_window", "us", "lower", 0},
	{"core.step_us_per_window", "us", "lower", 0},
	{"core.windows_per_session", "count", "lower", 0},
	// internal/rcastore.
	{"rcastore.from_report_us", "us", "lower", 0},
	{"rcastore.insert_us_per_report", "us", "lower", 0},
	{"rcastore.journal_append_us", "us", "lower", 0},
	{"rcastore.journal_bytes_per_report", "B", "lower", 0},
	{"rcastore.recover_us_per_report", "us", "lower", 0},
	{"rcastore.top_chains_us", "us", "lower", 0},
	{"rcastore.cause_rates_us", "us", "lower", 0},
	{"rcastore.records_query_us", "us", "lower", 0},
	{"rcastore.similar_us", "us", "lower", 0},
	// internal/obs.
	{"obs.write_text_us_per_scrape", "us", "lower", 0},
	{"obs.parse_text_us_per_scrape", "us", "lower", 0},
	{"obs.merge_us_per_scrape", "us", "lower", 0},
	{"obs.scrape_bytes", "B", "lower", 0},
	{"obs.hooks_ns_per_record", "ns", "lower", 0},
	{"obs.flightrec_ns_per_event", "ns", "lower", 0},
	// internal/ingest: the client protocol.
	{"ingest.client_us_per_upload", "us", "lower", 0},
	{"ingest.attempts_per_upload", "count", "lower", 0},
	{"ingest.chunk_ack_p50_ms", "ms", "lower", 0},
	{"ingest.chunk_ack_p99_ms", "ms", "lower", 0},
	{"ingest.final_chunk_ack_p50_ms", "ms", "lower", 0},
	{"ingest.generator_lag_p99_ms", "ms", "lower", 0},
	// internal/balancer.
	{"balancer.self_us_per_chunk", "us", "lower", 0},
	{"balancer.backend_us_per_chunk", "us", "lower", 0},
	{"balancer.tee_bytes_per_record", "B", "lower", 0},
	{"balancer.pin_skew", "ratio", "lower", 0},
	{"balancer.proxy_errors", "count", "lower", 0},
	{"balancer.failovers", "count", "lower", 0},
	{"balancer.fanout_self_us_per_query", "us", "lower", 0},
	{"balancer.scrape_self_us", "us", "lower", 0},
	// internal/parallel.
	{"parallel.submit_ns", "ns", "lower", 0},
	{"parallel.limiter_acquire_ns", "ns", "lower", 0},
	// The dominod process: /metrics deltas, /proc, and the ledger.
	{"dominod.decode_ns_per_record", "ns", "lower", 0},
	{"dominod.step_ns_per_record", "ns", "lower", 0},
	{"dominod.insert_us_per_report", "us", "lower", 0},
	{"dominod.cpu_ns_per_record", "ns", "lower", 0},
	{"dominod.sessions_per_s", "1/s", "higher", 0},
	{"dominod.sessions_evicted", "count", "lower", 0},
	{"dominod.records_deduped", "count", "lower", 0},
	{"dominod.rejected_total", "count", "lower", 0},
	{"dominod.pool_miss_share", "ratio", "lower", 0},
	{"dominod.peak_rss_mb", "MiB", "lower", 0},
	{"dominod.unattributed_ns_per_record", "ns", "lower", 0},
	{"dominod.unattributed_share", "ratio", "lower", 0},
	// The dominolb process.
	{"dominolb.cpu_ns_per_record", "ns", "lower", 0},
	{"dominolb.peak_rss_mb", "MiB", "lower", 0},
	{"dominolb.sessions_table_end", "count", "lower", 0},
	// Set-up, by part.
	{"setup.build_s", "s", "lower", 0},
	{"setup.corpus_s", "s", "lower", 0},
	{"setup.preload_s", "s", "lower", 0},
	{"setup.boot_s", "s", "lower", 0},
	{"setup.recover_s", "s", "lower", 0},
	{"scenario.gen_records_per_s", "1/s", "higher", 0},
	// User-visible figures kept out of the gated set (see
	// bench/README.md): defined on one workload only, or too noisy.
	{"fleet.detect_p50_ms.r1", "ms", "lower", 0},
	{"fleet.detect_p99_ms.r1", "ms", "lower", 0},
	{"fleet.detect_p50_ms.r2", "ms", "lower", 0},
	{"fleet.detect_p99_ms.r2", "ms", "lower", 0},
	{"fleet.detect_p50_ms.r3", "ms", "lower", 0},
	{"fleet.detect_p99_ms.r3", "ms", "lower", 0},
	{"fleet.sustained_sessions_per_s", "1/s", "higher", 0},
	{"query.scrape_p50_ms", "ms", "lower", 0},
	{"query.write_p50_ms", "ms", "lower", 0},
	{"query.similar_p50_ms", "ms", "lower", 0},
	// The traced run's own end-to-end figures: their difference from the
	// untraced run's is the tracing overhead.
	{"traced.records_per_s", "1/s", "higher", 0},
	{"traced.cpu_ns_per_record", "ns", "lower", 0},
	{"traced.latency_p50_ms", "ms", "lower", 0},
	{"traced.latency_p99_ms", "ms", "lower", 0},
	{"traced.ops_per_s", "1/s", "higher", 0},
	{"traced.spans", "count", "lower", 0},
	// The machine while the traced window ran (probe.go).
	{"host.speed", "ratio", "higher", 0},
	{"host.probe_us", "us", "lower", 0},
	{"host.steal_share", "ratio", "lower", 0},
	{"host.granted_share", "ratio", "higher", 0},
}

// lbView is what dominolb reports about itself around the window.
type lbView struct {
	proxyErrors, failovers float64
	sessions               int
	pinSkew                float64
}

// readLB reads dominolb's routing table and its own counters (the
// federated /metrics carries them beside the nodes').
func readLB(ctx context.Context, f *fleet) (lbView, error) {
	var v lbView
	if f.lb == nil {
		return v, nil
	}
	c := newClient()
	defer c.CloseIdleConnections()
	body, err := get(ctx, c, f.lb.url+"/lb/sessions")
	if err != nil {
		return v, err
	}
	var table []struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &table); err != nil {
		return v, fmt.Errorf("/lb/sessions: %w", err)
	}
	v.sessions = len(table)
	perNode := map[string]int{}
	for _, row := range table {
		perNode[row.Backend]++
	}
	most := 0
	for _, n := range perNode {
		if n > most {
			most = n
		}
	}
	if len(table) > 0 {
		v.pinSkew = float64(most) / (float64(len(table)) / float64(len(f.nodes)))
	}
	text, err := get(ctx, c, f.lb.url+"/metrics")
	if err != nil {
		return v, err
	}
	snap, err := obs.ParseText(bytes.NewReader(text))
	if err != nil {
		return v, fmt.Errorf("dominolb /metrics: %w", err)
	}
	pe, _ := find(snap, "dominolb_proxy_errors_total")
	fo, _ := find(snap, "dominolb_failovers_total")
	v.proxyErrors, v.failovers = pe.Value, fo.Value
	return v, nil
}

// perLayerValues assembles every per-layer metric of one traced run.
func perLayerValues(workload string, e *env, o *outcome, cost setupCost, e2e, replayM, lbM map[string]float64, lb lbView, spans int) map[string]float64 {
	m := maps.Clone(replayM)
	maps.Copy(m, lbM)
	records := float64(o.records)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// stream.push covers core's observe, evaluate and step calls; what
	// is left is stream's own bookkeeping.
	windowsPerRecord := m["core.windows_per_session"] / e.corpus.recordsPerSession()
	coreNs := m["core.observe_ns_per_record"] + (m["core.eval_us_per_window"]+m["core.step_us_per_window"])*1e3*windowsPerRecord
	m["stream.push_self_ns_per_record"] = m["stream.push_ns_per_record"] - coreNs

	// ingest: the client's view.
	if a := o.series["ingest.attempts"]; a != nil && a.count() > 0 {
		sum := 0.0
		for _, x := range a.v {
			sum += x
		}
		m["ingest.attempts_per_upload"] = sum / float64(a.count())
	}
	if s := o.series["ingest.chunk_ack"]; s != nil {
		m["ingest.chunk_ack_p50_ms"] = s.percentile(50)
		m["ingest.chunk_ack_p99_ms"] = s.percentile(99)
	}
	if s := o.series["ingest.final_chunk_ack"]; s != nil {
		m["ingest.final_chunk_ack_p50_ms"] = s.percentile(50)
	}
	if s := o.series["ingest.generator_lag"]; s != nil {
		m["ingest.generator_lag_p99_ms"] = s.percentile(99)
	}

	// balancer and dominolb: the real process's own view.
	m["balancer.tee_bytes_per_record"] = div(o.extra["tee_bytes"], records)
	m["balancer.pin_skew"] = lb.pinSkew
	m["balancer.proxy_errors"] = lb.proxyErrors
	m["balancer.failovers"] = lb.failovers
	m["dominolb.sessions_table_end"] = float64(lb.sessions)
	m["dominolb.cpu_ns_per_record"] = div(float64(o.cpuBy["lb"]), records)
	if e.fleet.lb != nil {
		m["dominolb.peak_rss_mb"], _ = e.fleet.lb.peakRSSMB() // 0 if /proc is unreadable
	}

	// dominod: /metrics growth over the window, summed over the nodes.
	delta := func(pick func(obs.Sample) float64, name string, pairs ...string) float64 {
		return sumOver(o.before, o.after, pick, name, pairs...)
	}
	nodeRecords := delta(sampleValue, "dominod_records_total")
	decode := delta(sampleSum, "dominod_ingest_decode_seconds", "format", "binary") + delta(sampleSum, "dominod_ingest_decode_seconds", "format", "jsonl")
	m["dominod.decode_ns_per_record"] = div(decode*1e9, nodeRecords)
	m["dominod.step_ns_per_record"] = div(delta(sampleSum, "dominod_ingest_step_seconds")*1e9, nodeRecords)
	m["dominod.insert_us_per_report"] = div(delta(sampleSum, "dominod_store_insert_seconds")*1e6, delta(sampleCount, "dominod_store_insert_seconds"))
	m["dominod.sessions_per_s"] = div(delta(sampleValue, "dominod_sessions_done_total"), o.wall.Seconds())
	m["dominod.sessions_evicted"] = delta(sampleValue, "dominod_sessions_evicted_total")
	m["dominod.records_deduped"] = delta(sampleValue, "dominod_ingest_deduped_records_total")
	for _, reason := range []string{"overload", "body_too_large", "draining", "seq_gap", "busy"} {
		m["dominod.rejected_total"] += delta(sampleValue, "dominod_ingest_rejected_total", "reason", reason)
	}
	m["dominod.pool_miss_share"] = div(delta(sampleValue, "dominod_analyzer_pool_misses_total"), delta(sampleValue, "dominod_analyzer_pool_gets_total"))
	var nodeCPU time.Duration
	for _, n := range e.fleet.nodes {
		nodeCPU += o.cpuBy[n.name]
		if rss, err := n.peakRSSMB(); err == nil && rss > m["dominod.peak_rss_mb"] {
			m["dominod.peak_rss_mb"] = rss
		}
	}
	m["dominod.cpu_ns_per_record"] = div(float64(nodeCPU), records)

	// The ledger: what the in-process layer costs explain of the node's
	// measured CPU per record, and what they leave unattributed.
	// query-mix has no such ledger: its nodes spend their CPU answering
	// reads, which no per-record price describes.
	if rows := ledgerRows(workload, e, m); rows != nil {
		attributed := 0.0
		for _, row := range rows {
			attributed += row.ns
		}
		m["dominod.unattributed_ns_per_record"] = m["dominod.cpu_ns_per_record"] - attributed
		m["dominod.unattributed_share"] = div(m["dominod.unattributed_ns_per_record"], m["dominod.cpu_ns_per_record"])
	}

	m["setup.build_s"] = cost.build.Seconds()
	m["setup.corpus_s"] = cost.corpus.Seconds()
	m["setup.preload_s"] = cost.preload.Seconds()
	m["setup.boot_s"] = cost.boot.Seconds()
	m["setup.recover_s"] = cost.recover.Seconds()
	m["scenario.gen_records_per_s"] = e.corpus.genRecordsPerS

	for _, r := range []string{"r1", "r2", "r3"} {
		m["fleet.detect_p50_ms."+r] = o.extra["detect_p50_ms@"+r]
		m["fleet.detect_p99_ms."+r] = o.extra["detect_p99_ms@"+r]
	}
	m["fleet.sustained_sessions_per_s"] = o.extra["sustained_sessions_per_s"]
	for metric, series := range map[string]string{
		"query.scrape_p50_ms": "query.scrape", "query.write_p50_ms": "query.write", "query.similar_p50_ms": "query.similar",
	} {
		if s := o.series[series]; s != nil {
			m[metric] = s.percentile(50)
		}
	}

	for _, name := range []string{"records_per_s", "cpu_ns_per_record", "latency_p50_ms", "latency_p99_ms", "ops_per_s"} {
		m["traced."+name] = e2e[name]
	}
	m["traced.spans"] = float64(spans)
	return m
}

// ledgerRow is one layer's share of the node's CPU per record.
type ledgerRow struct {
	layer string
	ns    float64
}

// ledgerRows prices one record's trip through the node from the
// in-process replay: decode in the workload's wire format, stream's own
// bookkeeping, core's three calls, the observability hooks, and the
// per-record share of closing the session and storing its report.
func ledgerRows(workload string, e *env, m map[string]float64) []ledgerRow {
	if workload == "query-mix" {
		return nil
	}
	perSession := e.corpus.recordsPerSession()
	windows := m["core.windows_per_session"] / perSession
	// dominod hands each decoded batch to the pool with one Submit: a
	// binary block is 512 records, a JSONL batch ingestBatch.
	decode, batch := ledgerRow{"trace (binary decode)", m["trace.binary_decode_ns_per_record"]}, 512.0
	if workload == "bulk-jsonl" || workload == "fleet-live" {
		decode, batch = ledgerRow{"trace (JSONL decode)", m["trace.jsonl_decode_ns_per_record"]}, ingestBatch
	}
	// The journal append is left out: with -store-sync 1 it is an fsync
	// wait, wall time that blocks the final chunk's answer, not CPU.
	store := m["rcastore.from_report_us"] + m["rcastore.insert_us_per_report"]
	return []ledgerRow{
		decode,
		{"stream (push, self)", m["stream.push_self_ns_per_record"]},
		{"core (observe)", m["core.observe_ns_per_record"]},
		{"core (window eval)", m["core.eval_us_per_window"] * 1e3 * windows},
		{"core (DAG step)", m["core.step_us_per_window"] * 1e3 * windows},
		{"obs (hooks)", m["obs.hooks_ns_per_record"]},
		{"parallel (submit per batch)", m["parallel.submit_ns"] / batch},
		{"stream (close)", m["stream.close_us_per_session"] * 1e3 / perSession},
		{"rcastore (report → store)", store * 1e3 / perSession},
	}
}
