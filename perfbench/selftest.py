#!/usr/bin/env python3
"""Self-test of the benchmark: every workload once at a tiny size.

    python3 perfbench/selftest.py

Fails when a run does not print exactly the metrics BENCHMARK.json names,
with their units (end-to-end ones with --trace 0, per-layer ones with
--trace 1), when a per-layer metric is measured by no workload at all,
when a clean run reports an error, or when the correctness gate lets a
deliberately corrupted expected answer through: a run with
--corrupt-oracle must exit nonzero and report correct false and failed > 0.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, corrupt=False):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"]
    if corrupt:
        command.append("--corrupt-oracle")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    measured = {}
    for line in lines:
        if line.startswith("# measured "):
            measured = json.loads(line[len("# measured "):])["metrics"]
    return done.returncode, result, measured, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    measured_somewhere = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, measured, stderr = run(workload, trace)
            measured_somewhere |= set(measured)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}: {stderr.strip()}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{where}: clean run not correct: {result}")
            got = {name: m.get("unit") for name, m in
                   result["metrics"].items()}
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append(f"{where}: metric {name} missing")
                elif got[name] != unit:
                    problems.append(f"{where}: {name} unit {got[name]} != "
                                    f"{unit}")
            for name in set(got) - set(expected[trace]):
                problems.append(f"{where}: unexpected metric {name}")
        code, result, _, _ = run(workload, 0, corrupt=True)
        if code == 0 or result is None or result["correct"] or \
                result["failed"] == 0:
            problems.append(f"{workload}: the gate missed a corrupted oracle "
                            f"(exit {code}, result {result})")
    for name in set(expected[1]) - measured_somewhere:
        problems.append(f"per-layer metric {name} is measured by no workload")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
