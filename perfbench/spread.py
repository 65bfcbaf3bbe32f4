#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs the command from BENCHMARK.json `--runs` times per workload, each
with another seed, and prints for every end-to-end metric its median,
quartiles and interquartile range as a share of the median, next to the
metric's bound, and the same figures for the host-speed probe
`host.calib_s` that every run prints, so that a drift between two sets
can be set against the host's. Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed0 100]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.seed0 + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            out = proc.stdout
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                sys.exit(f"{workload}: no result line, exit {proc.returncode}\n{proc.stderr}")
            if proc.returncode or not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.seed0 + i}: INCORRECT {result}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            calib = re.search(r"^host\.calib_s (\S+)$", out, re.M)
            values.setdefault("host.calib_s", []).append(float(calib.group(1)))
            print(f"{workload} run {i + 1}/{args.runs}: "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO NOISY")
            print(f"SPREAD {workload:<14} {name:<18} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"iqr/median {share:.4f} bound {bound} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
