#!/usr/bin/env python3
"""Builds the Laminar simulator and runs one benchmark workload.

    python3 lambench/run.py --workload math_32B_1024gpu --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
simulator and the benchmark (Release) under .bench_build/lambench; later runs
rebuild incrementally. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Above it the script
prints a metric table and the full record: the host and provenance block
(nproc, CPU model, compiler, build type, git rev, source digest, seed) and the
sample count behind every value. The record is also written to
.bench_build/lambench/results/, and a traced run's spans to
.bench_build/lambench/spans/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("math_32B_1024gpu", "tool_7B_128gpu", "chaos_serving_16gpu")
# Whole invocation, build excluded, must stay well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("lambench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
             "--target", "lambench"],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lambench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "none"


def source_digest():
    """sha256 over the simulator and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "lambench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout" % ROOT)
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "lambench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "spans"), exist_ok=True)
        # One file per workload: the latest traced run's spans.
        cmd += ["--spans", os.path.join(build_dir, "spans", args.workload + ".csv")]
    start = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark exited with code %d and no result" % proc.returncode)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "provenance": dict(result["build"], git_rev=git_rev(), source_digest=source_digest()),
        "reps": result["reps"],
        "wall_s": time.time() - start,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "metrics": result["metrics"],
    }
    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    for name, m in result["metrics"].items():
        print("%-42s %18.6g %-8s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    for err in result["errors"]:
        print("check failed: " + err)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
