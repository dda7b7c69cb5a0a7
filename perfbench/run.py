#!/usr/bin/env python3
"""End-to-end benchmark of FastLSA: one run of one workload.

    python3 perfbench/run.py --workload align-long --seed 1 --seconds 10 --trace 0

Builds the driver (perfbench/driver.cmake) from the sources of the
checkout it sits in, into .bench_build/, then runs it. The driver reports
every metric it measured; this script prints that line as a "# measured"
note and, last, the JSON result with exactly the metrics BENCHMARK.json
names for the mode (end_to_end for --trace 0, per_layer for --trace 1; a
per-layer metric of a layer the workload does not run reads 0). The exit
code is the driver's. A checkout without the FastLSA sources fails the
build and exits 2 without printing a result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "flsa_perfbench"
WORKLOADS = ("align-long", "serve-short", "search-ref")
# One run must end within 180 s; the build is exempt.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      str(ROOT / "perfbench" / "driver.cmake")])
    steps.append(["cmake", "--build", str(BUILD), "--target", "flsa_perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-15:]
                sys.stderr.write("perfbench: build failed:\n  " +
                                 "\n  ".join(tail) + "\n")
                sys.exit(2)


def source_digest():
    """Content hash of the sources the driver is built from, so results
    from different trees are never compared (the checkout may not be a
    git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def select(measured, trace):
    """The result with the metrics BENCHMARK.json names for the mode, in
    its order. Raises ValueError when an end-to-end metric is missing or
    a unit disagrees with BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured["metrics"].get(name)
        if got is None:
            if not trace:
                raise ValueError(f"driver did not measure {name}")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            raise ValueError(f"{name}: unit {got['unit']} != {unit}")
        metrics[name] = got
    return dict(measured, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: the gate must catch a wrong "
                             "expected answer")
    args = parser.parse_args()

    build()
    work = BUILD / "perfbench-work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    command = [str(DRIVER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--work-dir", str(work), "--source-digest", source_digest()]
    if args.trace:
        traces = BUILD / "perfbench-traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    # Keep every temporary file of the servers inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {args.workload} exceeded "
                         f"{RUN_TIMEOUT_S} s\n")
        return 4
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        return done.returncode or 5
    try:
        result = select(json.loads(lines[-1]), args.trace)
    except ValueError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 5
    print("\n".join(lines[:-1]))
    print("# measured " + lines[-1])
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
