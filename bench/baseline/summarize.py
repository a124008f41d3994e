#!/usr/bin/env python3
"""summarize.py — the noise floor of bench/baseline/runs.jsonl.

    python3 bench/baseline/summarize.py            (from the repository root)

Writes bench/baseline/summary.json: for every workload and metric the
sample count, median, quartiles (statistics.quantiles(values, n=4), as the
driver takes them), minimum, maximum and spread = (q3 - q1) / median. Prints
each end-to-end metric's widest spread over the workloads and the bound it
implies: max(10 %, 2 x spread), capped at the contract's 25 %.
"""
import collections
import json
import os
import statistics

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
    gated = [m["name"] for m in json.load(f)["end_to_end"]]

values = collections.defaultdict(lambda: collections.defaultdict(list))
failed = collections.Counter()
with open(os.path.join(here, "runs.jsonl")) as f:
    for line in f:
        run = json.loads(line)
        key = run["workload"] + ("" if run["trace"] == 0 else " (traced)")
        failed[key] += run["result"]["failed"]
        for name, metric in run["result"]["metrics"].items():
            values[key][name].append(metric["value"])

summary = {}
widest = collections.defaultdict(float)
for key in sorted(values):
    summary[key] = {"failed": failed[key], "metrics": {}}
    for name, vals in sorted(values[key].items()):
        row = {"n": len(vals), "median": statistics.median(vals), "min": min(vals), "max": max(vals)}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            row["q1"], row["q3"] = q1, q3
            row["spread"] = (q3 - q1) / row["median"] if row["median"] else 0.0
            if name in gated and "traced" not in key:
                widest[name] = max(widest[name], row["spread"])
        summary[key]["metrics"][name] = row

with open(os.path.join(here, "summary.json"), "w") as f:
    json.dump(summary, f, indent=1, sort_keys=True)
    f.write("\n")

print("%-20s %14s %8s" % ("end-to-end metric", "widest spread", "bound"))
for name in gated:
    print("%-20s %14.3f %8.2f" % (name, widest[name], min(0.25, max(0.10, 2 * widest[name]))))
