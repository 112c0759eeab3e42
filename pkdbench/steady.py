#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs one or more workloads over a
range of seeds and reports, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance as a share of the median,
as `statistics.quantiles(values, n=4)` gives the quartiles), next to the
bound `BENCHMARK.json` fixes for that metric.

Run from the repository root:

    python3 pkdbench/steady.py --workloads fig7-hetero serve-uds --seeds 1-10

It runs the command `BENCHMARK.json` names.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {}
    for workload in args.workloads:
        values = {}
        for seed in seeds:
            result = run(command, workload, seed, bench["run_seconds"], args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        report[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            report[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(name), "values": vals,
            }
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread <= bound else "OVER BOUND")
            print(f"  {name:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound} {flag}", flush=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
