#!/usr/bin/env python3
"""Run one workload repeatedly, each time with another seed, and print each
metric's median, quartiles and quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --workload kv-object [--runs 10] [--sets 1]
        [--first-seed 1] [--seconds S] [--trace 0|1]

The seconds default to run_seconds from BENCHMARK.json.  A metric whose
bound BENCHMARK.json fixes is flagged when its spread exceeds a third of
that bound, setup_s included.  With --sets 2 or more, each set takes the
next --runs seeds, and a metric is also flagged when a later set's median is
worse than the first set's by more than the bound.  The share of failed
operations must be the same on every run.  Each run's line also gives the
machine's CPU steal share during the run.  Exits 1 if anything is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_times():
    """The machine's CPU time counters (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between:
    the usual cause of a slow run on a shared VM."""
    if before is None or after is None or len(before) < 8:
        return float("nan")
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else float("nan")


def run_set(args, first_seed, failed_shares):
    """Run --runs seeds from first_seed; return {metric: [values]}."""
    values = {}
    for seed in range(first_seed, first_seed + args.runs):
        before = cpu_times()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        steal = steal_share(before, cpu_times())
        if proc.returncode != 0:
            print(proc.stdout)
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs failed their checks")
        failed_shares.add(result["failed"] / result["attempted"])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: steal {steal:.1%} attempted "
              f"{result['attempted']} failed {result['failed']} "
              + " ".join(line), flush=True)
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.runs < 4 or args.sets < 1:
        ap.error("--runs must be at least 4 for quartiles, --sets at least 1")

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    failed_shares = set()
    first_medians = {}
    for k in range(args.sets):
        values = run_set(args, args.first_seed + k * args.runs, failed_shares)
        print(f"\n{args.workload}: set {k + 1}, {args.runs} runs of "
              f"{args.seconds:g} s, trace {args.trace}")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'shift':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            m = metrics.get(name)
            bound = m["bound"] if m else None
            first_medians.setdefault(name, med)
            base = first_medians[name]
            # How much worse than the first set's median, as a share of it.
            shift = (med - base) / base if base else 0.0
            if m and m["better"] == "higher":
                shift = -shift
            flag = ""
            if bound is not None and spread > bound / 3:
                flag += "  spread > bound/3"
                steady = False
            if bound is not None and shift > bound:
                flag += "  shift > bound"
                steady = False
            print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{shift:8.4f}{flag}")
    print(f"\nfailed share: {sorted(failed_shares)}")
    if len(failed_shares) != 1:
        steady = False
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
