#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the bound
BENCHMARK.json gives it.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workload serve-mixed --runs 10 --seed 100

Each run is `bash perfbench/run.sh --workload W --seed S --seconds T --trace 0`
with T from BENCHMARK.json's run_seconds unless --seconds is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, log_dir):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    took = time.time() - start
    if log_dir:
        with open(f"{log_dir}/{workload}-seed{seed}.log", "w") as f:
            f.write(out.stderr + out.stdout)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed with exit code {out.returncode}: {' '.join(cmd)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--log-dir", default="", help="keep each run's output here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for i in range(args.runs):
        result, took = run_once(args.workload, args.seed + i, seconds, args.log_dir)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {args.seed + i}: incorrect run: {result}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {args.seed + i}: {took:.1f}s wall, attempted {result['attempted']}", file=sys.stderr)

    print(f"| metric | median | spread (IQR/median) | bound | spread/bound |")
    print(f"|---|---|---|---|---|")
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, ratio)
        print(f"| {name} | {med:.6g} | {spread:.4f} | {bounds[name]} | {ratio:.2f} |")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
