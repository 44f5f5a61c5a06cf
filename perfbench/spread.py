#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric across runs.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload rmat-ooc --runs 10 [--first-seed 1] [--trace 0]

Reads the command, run length and metric bounds from BENCHMARK.json, runs
the command once per seed (seeds first-seed .. first-seed + runs - 1), and
prints each metric's median, quartiles (Python's statistics.quantiles, n=4)
and spread: the distance between the quartiles as a share of the median.
A spread above a third of the metric's bound is flagged. Exits 1 when any
run fails or reports an incorrect answer.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append((m["value"], m["unit"]))
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if args.trace == "0"), flush=True)

    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound/3")
    for name, vs in values.items():
        xs = [v for v, _ in vs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"{bound / 3:.3f}" + ("  WIDE" if spread > bound / 3 else "")
        print(f"{name:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f}  {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
