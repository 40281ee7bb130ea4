#!/usr/bin/env python3
"""Run one hdsm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lu-sl|kv-object|kv-page \\
        --seed N --seconds S --trace 0|1 [--shards N]

Configures and builds perfbench/ (which builds the hdsm libraries from
../src) into .bench_build/perfbench on first use, then runs the workload in
its own process.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (which also writes a Chrome
trace to .bench_build/perfbench/traces/).  Exits nonzero, without that line,
if the build or the run fails; exits nonzero if an output fails its check.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("lu-sl", "kv-object", "kv-page")
RUN_LIMIT_S = 175  # a run must end within 180 s, build included

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hdsm_perfbench")


def build():
    """Configure once, then bring the binary up to date; build output goes
    to stderr so the last stdout line stays the result."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # A configure that failed leaves a cache but no build file.
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "hdsm_perfbench", "-j", "3"],
                       check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shards", type=int,
                    help="KV: override the workload's home shard count")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.shards is not None:
        cmd += ["--shards", str(args.shards)]

    started = time.monotonic()
    try:
        # subprocess.run kills the child on timeout and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within "
              f"{RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    print(f"process wall {time.monotonic() - started:.2f} s")
    try:
        json.loads(lines[-1])
    except ValueError:
        print(f"run.py: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
