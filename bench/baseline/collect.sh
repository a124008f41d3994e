#!/bin/sh
# collect.sh — run the whole benchmark several times and keep every run.
#
#   [WORKLOADS="fleet-live"] bench/baseline/collect.sh <runs> <first-seed> [trace]   (from the repository root)
#
# Each of <runs> passes runs all four workloads once, pass i with seed
# <first-seed>+i, and appends one line per run to bench/baseline/runs.jsonl:
# {"workload", "seed", "trace", "result": <the benchmark's last line>}.
# summarize.py turns that file into summary.json and the suggested bounds.
set -eu
runs="$1"; first="$2"; trace="${3:-0}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
out=bench/baseline/runs.jsonl
i=0
while [ "$i" -lt "$runs" ]; do
    seed=$((first + i))
    for w in ${WORKLOADS:-bulk-binary bulk-jsonl fleet-live query-mix}; do
        line="$(go run -C bench ./fleetbench --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
        printf '{"workload":"%s","seed":%d,"trace":%d,"result":%s}\n' "$w" "$seed" "$trace" "$line" >>"$out"
    done
    i=$((i + 1))
done
