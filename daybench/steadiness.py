#!/usr/bin/env python3
"""Run the benchmark several times per workload, run i with seed
first-seed + i, and report every end-to-end metric's median and quartile
spread.

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4); the benchmark is steady when each spread
stays below a third of the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 daybench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs go one after another, never in parallel. Prints one line per run and a
table per workload; exits 1 when a run fails or reports correct = false.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in args.workload or names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}\n{proc.stderr}")
                ok = False
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{name} seed {seed} ({took:.1f} s, correct={result['correct']}): {shown}",
                  flush=True)
        print(f"\n{name}: {args.runs} runs")
        print(f"  {'metric':<34} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for k, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(k)
            flag = "" if b is None or spread < b / 3 else "  <-- above bound/3"
            third = f"{b / 3:8.3f}" if b is not None else " " * 8
            print(f"  {k:<34} {med:12.4f} {spread:8.3f} {third}{flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
