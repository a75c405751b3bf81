"""Rewrite expected.json: the outputs, exit codes and counts of one pass of
each workload at the default seed and full size.

    python3 bench/pin.py

The pins are what the output gate compares every pass with at that seed.
Rewrite them only for a change that alters the outputs on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench
from gate import Reference


def pin_workload(cli_main, name: str) -> dict:
    workload = bench.WORKLOADS[name]
    work = os.path.join(bench.WORK_ROOT, f"pin-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    try:
        bench.write_inputs(work, workload, bench.DEFAULT_SEED, None)
        bench.timed_setup(work)
        os.chdir(work)
        _, codes, log = bench.run_pass(cli_main, workload.commands)
        reference = Reference.from_pass("out", workload.commands, codes)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    if reference.problems:
        raise SystemExit(f"{name}: refusing to pin failing outputs:\n"
                         + "\n".join(reference.problems) + "\n" + log)
    return reference.to_json()


def main() -> int:
    sys.path.insert(0, bench.SRC)
    from powershave.cli import main as cli_main

    pins = {name: pin_workload(cli_main, name) for name in bench.WORKLOADS}
    with open(bench.PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bench.PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
