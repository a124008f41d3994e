#!/bin/sh
# bench_pair.sh — the paired comparison this host can support: N
# alternating runs of the repo benchmark on a reference commit and on the
# working tree, summarised per workload and metric.
#
#   make bench-pair REF=<commit> [WORKLOADS="bulk-binary fleet-live"] [N=10]
#   sh scripts/bench_pair.sh <commit>          (WORKLOADS and N from the environment)
#
# REF's files are extracted under a temporary directory (removed on exit;
# set TMPDIR to choose where). Pair i runs both sides with --seed i, the
# reference first when i is odd and the working tree first when it is
# even, each as BENCHMARK.json says to run it: `go run -C bench
# ./fleetbench --workload W --seed i --seconds <run_seconds> --trace 0`,
# whose last line is the result. Every result line also goes to stderr as
# it arrives, so an interrupted session keeps what it measured.
#
# The block on stdout is what a CHANGES.md entry pastes (pair_summary.py
# --spec): per workload and metric both medians, both quartile pairs,
# wins of N (ties count for neither side) and a verdict by
# bench/README.md's rule — at least ten pairs, nine tenths of them won,
# and the medians apart by more than the reference's inter-quartile
# distance is "moved", anything else "no change resolved" — then every
# run. Failed operations are printed first. The extraction, the
# alternation and the summary are pair_lib.sh's, shared with
# micro_pair.sh.
set -eu
ref="${1:?usage: bench_pair.sh <commit>}"
n="${N:-10}"
workloads="${WORKLOADS:-bulk-binary bulk-jsonl fleet-live query-mix}"
cd "$(dirname "$0")/.."
root="$(pwd)"
secs="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
. scripts/pair_lib.sh
pair_begin bench-pair "$ref"

# run <workload> <side> <pair>
run() {
    dir="$root"
    if [ "$2" = ref ]; then dir="$tmp/ref"; fi
    pair_record "$2" "$1" "$3" "$(cd "$dir" && go run -C bench ./fleetbench --workload "$1" --seed "$3" --seconds "$secs" --trace 0 | tail -n 1)"
}

for w in $workloads; do
    pair_alternate "$n" run "$w"
done

pair_summary bench-pair: "$n pairs, $secs s, seeds 1..$n" --group workload --spec BENCHMARK.json
