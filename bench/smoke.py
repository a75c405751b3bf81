"""Smoke check of the benchmark itself, on a 45 s trace (9,000 samples).

    python3 bench/smoke.py

For every workload run.py defines it runs bench/run.py untraced and
traced, and checks that each metric BENCHMARK.json names is printed, in
the result line and in the table above it, with its unit, and that no
pass failed.  It then corrupts one output of one pass on purpose and
checks that the gate counts that pass as failed.  Last, it runs the
benchmark from a directory that holds only BENCHMARK.json and bench/,
where it must exit non-zero without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SMOKE_ARGS = ("--seed", "7", "--seconds", "1", "--duration-s", "45")

sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run_bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    check(proc.returncode == 0, f"{what} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace),
                             *SMOKE_ARGS)
            result = result_of(proc, what)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                  f"{what}: {result['failed']} of {result['attempted']} passes failed:\n"
                  f"{proc.stderr}")
            table = proc.stdout.splitlines()[:-1]
            for metric in spec[kind]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                check(got is not None and got["unit"] == unit
                      and isinstance(got["value"], (int, float)),
                      f"{what}: result line has {name} as {got}, expected unit {unit}")
                check(any(name in line and unit in line.split() for line in table),
                      f"{what}: table does not print {name} with unit {unit}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[kind]}
            check(not extra, f"{what}: result line has metrics BENCHMARK.json lacks: {extra}")
            print(f"smoke: {what}: {len(spec[kind])} metrics, "
                  f"{result['attempted']} passes, ok")

    proc = run_bench(ROOT, "--workload", spec["workloads"][0]["name"], "--trace", "0",
                     "--corrupt-pass", "2", *SMOKE_ARGS)
    result = result_of(proc, "corrupted run")
    check(result["failed"] == 1 and not result["correct"],
          f"corrupting pass 2 gave failed={result['failed']} correct={result['correct']}")
    print(f"smoke: corrupted pass counted: failed_frac "
          f"{result['failed']}/{result['attempted']}, ok")

    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "--workload", spec["workloads"][0]["name"], "--trace", "0",
                         *SMOKE_ARGS)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the program the benchmark exited {proc.returncode}:\n{proc.stdout}")
    print("smoke: without the program: exit code", proc.returncode, "and no result, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
