#!/usr/bin/env python3
"""Summarises results.jsonl files written by run.py.

    python3 sketchbench/compare.py spread RESULTS.jsonl
        Per workload and end-to-end metric: median, and the distance
        between the first and third quartile as a share of the median,
        against a third of the metric's bound in BENCHMARK.json.

    python3 sketchbench/compare.py diff BASE.jsonl NEW.jsonl
        Per workload and metric: both medians and the change, against the
        bound. Runs whose host fingerprints differ are flagged: their
        timings are not comparable.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fingerprint fields that make two runs' timings incomparable when they
# differ (the seed, workload and sources are expected to vary).
HOST_KEYS = ("cpu", "nproc", "simd", "pool_threads", "client_threads",
             "store_fs", "glibc_tunables", "seconds")


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def bench_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {m["name"]: m for m in b["end_to_end"]}


def by_workload(runs):
    out = {}
    for r in runs:
        fp = r["fingerprint"]
        if fp.get("trace"):
            continue
        out.setdefault(fp["workload"], []).append(r)
    return out


def hosts(runs):
    return {tuple((k, r["fingerprint"].get(k)) for k in HOST_KEYS)
            for r in runs}


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def spread(path):
    metrics = bench_metrics()
    wide = 0
    for workload, runs in sorted(by_workload(load(path)).items()):
        if len(hosts(runs)) > 1:
            print("! %s: runs come from differing host fingerprints" % workload)
        failed = sum(r["result"]["failed"] for r in runs)
        print("%s: %d runs, %d failed operations" % (workload, len(runs), failed))
        for name, m in metrics.items():
            v = values(runs, name)
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            share = (q[2] - q[0]) / med if med else float("inf")
            limit = m["bound"] / 3
            ok = name == "setup_s" or share <= limit
            wide += not ok
            print("  %-18s median %-14.6g spread %6.3f  (bound/3 %.3f) %s"
                  % (name, med, share, limit, "" if ok else "WIDE"))
    return 1 if wide else 0


def diff(base_path, new_path):
    metrics = bench_metrics()
    base, new = by_workload(load(base_path)), by_workload(load(new_path))
    worse = 0
    for workload in sorted(set(base) & set(new)):
        if len(hosts(base[workload]) | hosts(new[workload])) > 1:
            print("! %s: host fingerprints differ; timings not comparable"
                  % workload)
        print(workload)
        for name, m in metrics.items():
            a, b = values(base[workload], name), values(new[workload], name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            regress = -change if m["better"] == "higher" else change
            bad = regress > m["bound"]
            worse += bad
            print("  %-18s %-14.6g -> %-14.6g %+7.2f%%  bound %.0f%% %s"
                  % (name, ma, mb, 100 * change, 100 * m["bound"],
                     "WORSE" if bad else ""))
    return 1 if worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return spread(argv[2])
    if len(argv) == 4 and argv[1] == "diff":
        return diff(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
