#!/usr/bin/env python3
"""pair_summary.py — the summary of N alternating pairs of runs, for
bench_pair.sh and micro_pair.sh (through pair_lib.sh's pair_summary).

    pair_summary.py [--group NAME] [--spec BENCHMARK.json] RUNS

RUNS holds one run a line: {"side": "ref"|"change", "group": G, "pair": i,
"result": {"failed": k, "metrics": {"name": {"value": v}, ...}}}. Printed:
failed operations first, then per group and metric both medians, both
quartile pairs, the shift and the wins of the pairs (ties count for
neither side), then every run.

With --spec, a metric's direction is BENCHMARK.json's "better" (a metric
it gives none is left out), and a verdict is added by bench/README.md's
rule: at least ten pairs, nine tenths of them won, and the medians apart
by more than the reference's inter-quartile distance is "moved",
anything else "no change resolved". Without it, a metric whose unit ends
in /s is better higher and any other lower, and no verdict is printed:
a package benchmark shows where a saving is, and bench-pair decides
whether it moved the program.
"""
import argparse, collections, json, statistics

ap = argparse.ArgumentParser()
ap.add_argument("--group", default="group")
ap.add_argument("--spec")
ap.add_argument("runs")
args = ap.parse_args()

better = None
if args.spec:
    with open(args.spec) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

runs = collections.defaultdict(lambda: collections.defaultdict(dict))  # group → metric → (side, pair) → value
failed = collections.Counter()
groups = []
with open(args.runs) as f:
    for line in f:
        r = json.loads(line)
        if r["group"] not in groups:
            groups.append(r["group"])
        failed[(r["group"], r["side"])] += r["result"].get("failed", 0)
        for name, m in r["result"]["metrics"].items():
            runs[r["group"]][name][(r["side"], r["pair"])] = m["value"]

for (g, side), k in sorted(failed.items()):
    if k:
        print("FAILED OPERATIONS: %s %s: %d" % (g, side, k))


def direction(name):
    if better is None:
        return 1 if name.endswith("/s") else -1
    if name not in better:
        return 0  # a metric BENCHMARK.json gives no direction for
    return 1 if better[name] == "higher" else -1


def fmtv(v):
    if abs(v) >= 1e6:
        return "%.3fM" % (v / 1e6)
    return "%.0f" % v if abs(v) >= 1e4 else "%.4g" % v


def quart(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3


width = max([len(args.group)] + [len(g) for g in groups])
fmt = "%-" + str(width) + "s %-18s %12s [%11s, %11s] %13s [%11s, %11s] %7s %6s"
head = (args.group, "metric", "ref median", "q1", "q3", "change median", "q1", "q3", "shift", "wins")
print((fmt + "  %s") % (head + ("verdict",)) if better is not None else fmt % head)
for g in groups:
    for name in sorted(runs[g]):
        by, sign = runs[g][name], direction(name)
        pairs = sorted(p for (side, p) in by if side == "ref" and ("change", p) in by)
        if not pairs or not sign:
            continue
        ref = [by[("ref", p)] for p in pairs]
        chg = [by[("change", p)] for p in pairs]
        wins = sum(1 for r, c in zip(ref, chg) if sign * (c - r) > 0)
        losses = sum(1 for r, c in zip(ref, chg) if sign * (c - r) < 0)
        mr, mc = statistics.median(ref), statistics.median(chg)
        (r1, r3), (c1, c3) = quart(ref), quart(chg)
        shift = "%+.1f%%" % (100 * (mc - mr) / mr) if mr else "n/a"
        row = (g, name, fmtv(mr), fmtv(r1), fmtv(r3), fmtv(mc), fmtv(c1), fmtv(c3), shift, "%d/%d" % (wins, len(pairs)))
        if better is None:
            print(fmt % row)
            continue
        verdict = "no change resolved"
        if len(pairs) >= 10 and abs(mc - mr) > r3 - r1:
            if 10 * wins >= 9 * len(pairs):
                verdict = "moved: better"
            elif 10 * losses >= 9 * len(pairs):
                verdict = "moved: worse"
        print((fmt + "  %s") % (row + (verdict,)))

print("every run, in pair order (ref | change):")
for g in groups:
    for name in sorted(runs[g]):
        by = runs[g][name]
        if not direction(name):
            continue
        side = lambda s: " ".join(fmtv(by[(ss, p)]) for (ss, p) in sorted(by, key=lambda k: k[1]) if ss == s)
        print(("%-" + str(width) + "s %-18s %s | %s") % (g, name, side("ref"), side("change")))
