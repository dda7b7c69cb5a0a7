#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, per workload.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--trace 0]

Runs perfbench/run.py once per seed (1..runs) on each workload and prints,
per metric, the median and the spread: the distance between the first
and third quartiles (statistics.quantiles(n=4)) as a share of the median,
beside the metric's bound from BENCHMARK.json. A spread above a third of
the bound is flagged: such a metric is not steady enough to judge a
change by.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--show", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stdout + done.stderr)
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:32s} median {median:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
            if args.show:
                print("    " + " ".join(f"{v:.6g}" for v in series))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
