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
# The block on stdout is what a CHANGES.md entry pastes: per workload and
# metric both medians, both quartile pairs, wins of N (ties count for
# neither side) and a verdict by bench/README.md's rule — at least ten
# pairs, nine tenths of them won, and the medians apart by more than the
# reference's inter-quartile distance is "moved", anything else "no change
# resolved" — then every run. Failed operations are printed first.
set -eu
ref="${1:?usage: bench_pair.sh <commit>}"
n="${N:-10}"
workloads="${WORKLOADS:-bulk-binary bulk-jsonl fleet-live query-mix}"
cd "$(dirname "$0")/.."
root="$(pwd)"
secs="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
refname="$(git rev-parse --short "$ref^{commit}")"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

# run <side> <dir> <workload> <pair>
run() {
    line="$(cd "$2" && go run -C bench ./fleetbench --workload "$3" --seed "$4" --seconds "$secs" --trace 0 | tail -n 1)"
    printf '{"side":"%s","workload":"%s","pair":%d,"result":%s}\n' "$1" "$3" "$4" "$line" | tee -a "$tmp/runs.jsonl" >&2
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$n" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run ref "$tmp/ref" "$w" "$i"
            run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i"
            run ref "$tmp/ref" "$w" "$i"
        fi
        i=$((i + 1))
    done
done

echo "bench-pair: $refname (ref) against the working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted), $n pairs, $secs s, seeds 1..$n, $(nproc) cores"
python3 - "$tmp/runs.jsonl" BENCHMARK.json <<'EOF'
import collections, json, statistics, sys

with open(sys.argv[2]) as f:
    spec = json.load(f)
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
runs = collections.defaultdict(lambda: collections.defaultdict(dict))  # workload → metric → (side, pair) → value
failed = collections.Counter()
workloads = []
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
        failed[(r["workload"], r["side"])] += r["result"]["failed"]
        for name, m in r["result"]["metrics"].items():
            runs[r["workload"]][name][(r["side"], r["pair"])] = m["value"]

for (w, side), k in sorted(failed.items()):
    if k:
        print("FAILED OPERATIONS: %s %s: %d" % (w, side, k))

def g(v):
    if abs(v) >= 1e6:
        return "%.3fM" % (v / 1e6)
    return "%.0f" % v if abs(v) >= 1e4 else "%.4g" % v

def quart(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3

fmt = "%-12s %-18s %12s [%11s, %11s] %12s [%11s, %11s] %7s %6s  %s"
print(fmt % ("workload", "metric", "ref median", "q1", "q3", "change median", "q1", "q3", "shift", "wins", "verdict"))
for w in workloads:
    for name in sorted(runs[w]):
        by = runs[w][name]
        pairs = sorted(p for (side, p) in by if side == "ref" and ("change", p) in by)
        if not pairs or name not in better:  # a metric BENCHMARK.json gives no direction for
            continue
        ref = [by[("ref", p)] for p in pairs]
        chg = [by[("change", p)] for p in pairs]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for r, c in zip(ref, chg) if sign * (c - r) > 0)
        losses = sum(1 for r, c in zip(ref, chg) if sign * (c - r) < 0)
        mr, mc = statistics.median(ref), statistics.median(chg)
        (r1, r3), (c1, c3) = quart(ref), quart(chg)
        verdict = "no change resolved"
        if len(pairs) >= 10 and abs(mc - mr) > r3 - r1:
            if 10 * wins >= 9 * len(pairs):
                verdict = "moved: better"
            elif 10 * losses >= 9 * len(pairs):
                verdict = "moved: worse"
        shift = "%+.1f%%" % (100 * (mc - mr) / mr) if mr else "n/a"
        print(fmt % (w, name, g(mr), g(r1), g(r3), g(mc), g(c1), g(c3), shift, "%d/%d" % (wins, len(pairs)), verdict))

print("every run, in pair order (ref | change):")
for w in workloads:
    for name in sorted(runs[w]):
        by = runs[w][name]
        if name not in better:
            continue
        side = lambda s: " ".join(g(by[(s, p)]) for (ss, p) in sorted(by, key=lambda k: k[1]) if ss == s)
        print("%-12s %-18s %s | %s" % (w, name, side("ref"), side("change")))
EOF
