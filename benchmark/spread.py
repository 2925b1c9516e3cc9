#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the acceptance driver
takes it: the command of BENCHMARK.json, `--runs` times per workload
with a different seed each time, and for each metric the distance
between the quartiles of its values (statistics.quantiles, n=4) as a
share of their median, next to the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W]...

Run from the repository root. Exits 1 when a spread (setup_s excepted)
exceeds its bound or a run fails its checks. Prints the medians too, so
two invocations show how far medians move between sets of runs.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    bench = json.load(f)
workloads = args.workload or [w["name"] for w in bench["workloads"]]
ok = True
for workload in workloads:
    values = {m["name"]: [] for m in bench["end_to_end"]}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"{workload} seed {seed}: FAILED ({result['failed']} of {result['attempted']})")
            ok = False
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    per_run = (time.time() - started) / args.runs
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median
        verdict = "ok"
        if spread > m["bound"] / 3:
            verdict = "above a third of the bound"
        if spread > m["bound"] and m["name"] != "setup_s":
            verdict = "ABOVE THE BOUND"
            ok = False
        print(f"{workload:<15} {m['name']:<17} median {median:>14.6g} {m['unit']:<6}"
              f" spread {spread:6.3f}  bound {m['bound']:.2f}  {verdict}"
              f"   min {min(v):.6g} max {max(v):.6g}")
    print(f"{workload:<15} {per_run:.1f} s per run")
sys.exit(0 if ok else 1)
