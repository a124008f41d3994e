#!/bin/sh
# micro_pair.sh — the layer-level companion of bench_pair.sh: one
# package's Go benchmarks on a reference commit and on the working tree,
# N alternating runs, summarised per benchmark and metric.
#
#   make micro-pair REF=<commit> PKG=./internal/trace BENCH=CodecDecodeScenario [N=10]
#   sh scripts/micro_pair.sh <commit> <pkg> <bench regexp>   (N and BENCHTIME from the environment)
#
# REF's files are extracted under a temporary directory (removed on exit;
# set TMPDIR to choose where), and the working tree's _test.go files in
# PKG are copied over REF's, so both sides run the same benchmark code and
# a benchmark the change adds runs on REF too (a test file that does not
# compile against REF fails REF's build and stops the script). Each side's
# test binary is built once (`go test -c`); run i runs both with
# `-test.run '^$' -test.bench BENCH -test.benchtime BENCHTIME` (default
# 1s), REF first when i is odd and the working tree first when it is even.
#
# The block on stdout is what a CHANGES.md entry pastes (pair_summary.py
# without --spec): per benchmark and metric both medians, both quartile
# pairs, the shift and the wins of N (ties count for neither side; a
# metric per second is better higher, any other lower), then every run.
# It prints no verdict: a package benchmark shows where a saving is, and
# bench-pair decides whether it moved the program. The extraction, the
# alternation and the summary are pair_lib.sh's, shared with
# bench_pair.sh.
set -eu
ref="${1:?usage: micro_pair.sh <commit> <pkg> <bench regexp>}"
pkg="${2:?usage: micro_pair.sh <commit> <pkg> <bench regexp>}"
bench="${3:?usage: micro_pair.sh <commit> <pkg> <bench regexp>}"
n="${N:-10}"
benchtime="${BENCHTIME:-1s}"
cd "$(dirname "$0")/.."
. scripts/pair_lib.sh
pair_begin micro-pair "$ref"
for f in "$pkg"/*_test.go; do
    cp "$f" "$tmp/ref/$pkg/"
done
(cd "$tmp/ref" && go test -c -o "$tmp/ref.test" "$pkg")
go test -c -o "$tmp/change.test" "$pkg"

# run <side> <pair>: each benchmark line of one run, a result of its own.
run() {
    (cd "$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" -test.benchtime "$benchtime") |
        awk '/^Benchmark/ {
            printf "%s {\"metrics\":{", $1
            for (i = 3; i < NF; i += 2) printf "%s\"%s\":{\"value\":%s}", (i > 3 ? "," : ""), $(i + 1), $i
            print "}}"
        }' > "$tmp/run.txt"
    while read -r name result; do
        pair_record "$1" "$name" "$2" "$result"
    done < "$tmp/run.txt"
}

pair_alternate "$n" run
pair_summary micro-pair: "$pkg -bench '$bench' -benchtime $benchtime, $n pairs" --group benchmark
