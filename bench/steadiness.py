"""Measure how steady the benchmark is between sets of runs of the same
code, and record it in bench/STEADINESS.json.

    python3 bench/steadiness.py

Two sets (A, then B) each run the benchmark untraced, as BENCHMARK.json
specifies, once per workload and seed, with RUNS_PER_SET seeds per set
(A from seed 100, B from seed 200).  For every end-to-end metric the file keeps
each run's value, each set's spread (distance between the first and third
quartile by statistics.quantiles(n=4), over the median) and the change of
set B's median from set A's.  The unscaled wall_s and setup_raw_s, which
the benchmark prints but does not report, are kept beside them for
comparison.  The
bounds in BENCHMARK.json are set from these figures.  With two workloads
and ten runs each this takes about 40 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SET_FIRST_SEEDS = {"A": 100, "B": 200}
RUNS_PER_SET = 10


def one_run(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} passes failed:\n"
                         f"{proc.stderr}")
    probe = re.search(r"host\.probe_s\s+([\d.]+) s at start, ([\d.]+) s at end", proc.stdout)
    samples = re.search(r"(\d+) samples per pass", proc.stdout)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # The unscaled medians, printed in the table only.
    metrics["wall_s"] = float(re.search(r"^  wall_s\s+([\d.]+) s", proc.stdout, re.M).group(1))
    metrics["setup_raw_s"] = float(re.search(r"^  setup_s .* unscaled median ([\d.]+) s",
                                             proc.stdout, re.M).group(1))
    return {"seed": seed, "elapsed_s": round(elapsed, 2),
            "samples_per_pass": int(samples.group(1)),
            "host_probe_s": [float(probe.group(1)), float(probe.group(2))],
            "metrics": metrics}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]] + ["wall_s", "setup_raw_s"]

    runs = {label: {w: [] for w in names} for label in SET_FIRST_SEEDS}
    for label, first in SET_FIRST_SEEDS.items():
        for workload in names:
            for seed in range(first, first + RUNS_PER_SET):
                run = one_run(spec, workload, seed)
                runs[label][workload].append(run)
                print(f"{label} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.4f}" for k, v in run["metrics"].items())
                      + f" ({run['elapsed_s']} s)", flush=True)

    workloads = {}
    for workload in names:
        series = {label: {m: [r["metrics"][m] for r in runs[label][workload]] for m in metrics}
                  for label in runs}
        workloads[workload] = {
            "samples_per_pass": runs["A"][workload][0]["samples_per_pass"],
            "spread": {label: {m: round(spread(series[label][m]), 4) for m in metrics}
                       for label in runs},
            "median_change_b_vs_a": {
                m: round(statistics.median(series["B"][m]) / statistics.median(series["A"][m])
                         - 1.0, 4) for m in metrics},
            "runs": {label: runs[label][workload] for label in runs},
        }
    record = {
        "about": __doc__.split("\n\n")[1].replace("\n", " ").strip(),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "run_seconds": spec["run_seconds"],
        "seeds": {label: [first, first + RUNS_PER_SET - 1]
                  for label, first in SET_FIRST_SEEDS.items()},
        "workloads": workloads,
    }
    path = os.path.join(BENCH_DIR, "STEADINESS.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, w in workloads.items():
        print(f"{workload}: spread A {w['spread']['A']}, B {w['spread']['B']}, "
              f"median change {w['median_change_b_vs_a']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
