#!/bin/sh
# pair_lib.sh — what bench_pair.sh and micro_pair.sh share: REF's files
# extracted once, N alternating pairs of runs, and the summary of them
# (pair_summary.py). Source it, don't execute it, from the repo root:
#
#   . scripts/pair_lib.sh
#   pair_begin bench-pair "$ref"    # sets tmp and refname; REF's files in $tmp/ref
#   pair_alternate "$n" run "$w"    # run "$w" ref 1, run "$w" change 1, run "$w" change 2, ...
#   pair_summary bench-pair: "$n pairs" --group workload --spec BENCHMARK.json
#
# A run records its result as one line of $tmp/runs.jsonl (pair_record):
# {"side":"ref"|"change","group":G,"pair":i,"result":R}, where R is what
# fleetbench prints last, {"failed":k,"metrics":{"name":{"value":v},...}}.

# pair_begin <name> <ref>: a temporary directory $tmp (removed on exit;
# set TMPDIR to choose where) with REF's files in $tmp/ref, and REF's
# short name in $refname.
pair_begin() {
    refname="$(git rev-parse --short "$2^{commit}")"
    tmp="$(mktemp -d "${TMPDIR:-/tmp}/$1.XXXXXX")"
    trap 'rm -rf "$tmp"' EXIT
    trap 'exit 130' INT TERM
    mkdir "$tmp/ref"
    git archive "$2" | tar -x -C "$tmp/ref"
}

# pair_alternate <n> <cmd> [args...]: pair i runs `cmd args ref i` and
# `cmd args change i`, REF first when i is odd and the working tree
# first when it is even.
pair_alternate() {
    _n="$1"
    shift
    _i=1
    while [ "$_i" -le "$_n" ]; do
        if [ $((_i % 2)) -eq 1 ]; then
            "$@" ref "$_i"
            "$@" change "$_i"
        else
            "$@" change "$_i"
            "$@" ref "$_i"
        fi
        _i=$((_i + 1))
    done
}

# pair_record <side> <group> <pair> <result>: one run's line, also to
# stderr as it arrives, so an interrupted run keeps what it measured.
pair_record() {
    printf '{"side":"%s","group":"%s","pair":%d,"result":%s}\n' "$1" "$2" "$3" "$4" | tee -a "$tmp/runs.jsonl" >&2
}

# pair_summary <title> <settings> [pair_summary.py flags]: the block a
# CHANGES.md entry pastes, headed by the title, what the two sides are,
# the settings and the host's cores.
pair_summary() {
    echo "$1 $refname (ref) against the working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted), $2, $(nproc) cores"
    shift 2
    python3 scripts/pair_summary.py "$@" "$tmp/runs.jsonl"
}
