#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (about a minute after the
build):

  * every workload, untraced and traced, prints exactly the metric names
    and units BENCHMARK.json lists for that mode, with correct = true and
    no failed operation;
  * every workload run with --inject-wrong, which replaces one answer
    with an empty sketch, is caught: correct = false, failed >= 1, and a
    non-zero exit.

    python3 sketchbench/selftest.py      (from the root of a checkout)
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, wrong=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    if wrong:
        cmd.append("--inject-wrong")
    r = subprocess.run(cmd, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return r.returncode, result, r.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            before = len(problems)
            rc, result, err = run(name, trace)
            where = "%s trace=%d" % (name, trace)
            if rc != 0 or result is None:
                problems.append("%s: exit %d\n%s" % (where, rc, err[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got
                               if k in expected[trace] and got[k] != expected[trace][k])
                problems.append("%s: missing %s, extra %s, wrong units %s"
                                % (where, missing, extra, units))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: correct=%s failed=%s attempted=%s"
                                % (where, result["correct"], result["failed"],
                                   result["attempted"]))
            print("ok  " if len(problems) == before else "FAIL", where, flush=True)
        rc, result, _ = run(name, 0, wrong=True)
        caught = (rc != 0 and result is not None and not result["correct"]
                  and result["failed"] >= 1)
        if not caught:
            problems.append("%s: injected wrong answer not caught (exit %d, %s)"
                            % (name, rc, result and {k: result[k] for k in
                                                     ("correct", "failed")}))
        print("ok  " if caught else "FAIL", name, "gate trips on an empty sketch",
              flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
