#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 sketchbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--inject-wrong]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory, which must be the root of a checkout. Build output goes
to stderr; stdout carries a source fingerprint line, the benchmark program's
output, and, last, the result object
{"correct", "attempted", "failed", "metrics"}. Every result is also
appended, with its fingerprint, to <build dir>/results.jsonl (see
compare.py). Exits non-zero, without a result, when the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; leave room for process teardown.
RUN_TIMEOUT_S = 170
# One malloc arena. With glibc's default per-thread arenas, whether the
# scale-out countsketch job's large message buffers page-fault on every
# job depends on which pool thread's arena served them, so the job ran in
# 0.19 s in some processes and 0.35 s in others. A single arena makes every
# process take the faulting path: steady, and the allocation cost stays
# in the measurement.
GLIBC_TUNABLES = "glibc.malloc.arena_max=1"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", cmake_dir, "--target", "sketchbench", "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(cmake_dir, "sketchbench")


def source_fingerprint():
    """Digest of the library and benchmark sources, the git commit when
    the checkout is a git repository, and the allocator setting."""
    h = hashlib.sha256()
    for top in ("src", "sketchbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {"git_sha": sha, "source_sha256": h.hexdigest()[:16],
            "glibc_tunables": GLIBC_TUNABLES}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-wrong", action="store_true")
    args = p.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)
    if binary is None:
        print("sketchbench: build failed", file=sys.stderr)
        return 1

    source = source_fingerprint()
    print(json.dumps({"source": source}), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "out")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    env = dict(os.environ, GLIBC_TUNABLES=GLIBC_TUNABLES)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("sketchbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    fingerprint, result, result_line = {}, None, None
    for line in lines:
        if line.startswith('{"fingerprint"'):
            fingerprint = json.loads(line)["fingerprint"]
        elif line.startswith('{"correct"'):
            result, result_line = json.loads(line), line
    # The result line goes last, as the binary printed it.
    sys.stdout.write("\n".join(l for l in lines if not l.startswith('{"correct"')))
    sys.stdout.write("\n")
    if result is None:
        print("sketchbench: no result (exit %d)" % r.returncode, file=sys.stderr)
        return r.returncode or 1
    fingerprint.update(source)
    if not args.smoke and not args.inject_wrong:
        with open(os.path.join(out, "results.jsonl"), "a") as f:
            f.write(json.dumps({"fingerprint": fingerprint, "result": result}) + "\n")
    print(result_line, flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
