#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json once per seed for each
workload and reports, per end-to-end metric, the median and the spread
(interquartile distance over the median, as statistics.quantiles(n=4)
gives it) next to the metric's bound.

    python3 perfbench/steady.py [--seeds 1,2,3] [--workloads a,b] [--trace 0|1]

Run from the repository root. Exits 1 if any run fails or reports
correct=false, or (untraced) any metric's spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false ({result['failed']} failed)")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if args.trace != "0":
            continue
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {workload:13} {name:17} median {med:.6g}  spread {spread:.3f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
