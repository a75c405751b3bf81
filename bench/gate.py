"""Output gate: decides whether one pass of a workload produced correct outputs.

A pass is compared with a reference: at the pinned seed and size, the
digests and counts in expected.json; otherwise the outputs of the run's
warm-up pass, which must first pass the physical checks below.  Checks:

* every output file's SHA-256 equals the reference.  Manifests are hashed
  without their created_utc field, and the digests each manifest lists
  must match the files beside it;
* every command's exit code equals the reference;
* on the reference, `simulate` exits 3 exactly when its summary reports
  ramp violations, and every row of shaving.csv keeps the power balance
  p_grid + p_ext_discharge = p_infra + p_comp_served + p_dummy + p_ext_charge
  and the grid cap p_grid <= threshold + p_infra.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# The CLI's default SimConfig.p_infra_w; the benchmark passes no sim config.
P_INFRA_W = 20000.0
_BALANCE_ATOL_W = 1e-6
_CHUNK_BYTES = 1 << 20


def _sha256_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK_BYTES), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def output_digests(out_dir: str) -> dict[str, str]:
    """{file name: digest} for every file in out_dir.  Raises ValueError
    when a manifest's listed digest disagrees with the file it names."""
    names = sorted(os.listdir(out_dir))
    digests = {name: _sha256_file(os.path.join(out_dir, name))
               for name in names if not name.endswith("_manifest.json")}
    for name in names:
        if not name.endswith("_manifest.json"):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for listed, digest in manifest["outputs"].items():
            if digests.get(listed) != digest:
                raise ValueError(f"{name} lists {listed} as {digest}, "
                                 f"file is {digests.get(listed)}")
        manifest.pop("created_utc")
        digests[name] = _sha256_bytes(json.dumps(manifest, sort_keys=True).encode())
    return digests


def output_counts(out_dir: str) -> dict[str, int]:
    """The simulated and detected counts the outputs report."""
    counts = {}
    path = os.path.join(out_dir, "shaving_summary.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        for key in ("n_steps", "ramp_violation_count", "unserved_spike_count"):
            counts[f"simulate.{key}"] = summary[key]
    path = os.path.join(out_dir, "spike_stats.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            counts["analyze.count"] = json.load(fh)["count"]
    path = os.path.join(out_dir, "grid.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)["values"]
        counts["sweep.cells"] = sum(len(row) for row in values)
        counts["sweep.gpus_saved_sum"] = sum(sum(row) for row in values)
    return counts


def _shaving_row_problems(out_dir: str, summary: dict) -> list[str]:
    cap = summary["threshold_w"] + P_INFRA_W
    problems = []
    rows = 0
    with open(os.path.join(out_dir, "shaving.csv"), encoding="utf-8") as fh:
        col = {name: k for k, name in enumerate(fh.readline().rstrip("\n").split(","))}
        while lines := fh.readlines(_CHUNK_BYTES):
            a = np.loadtxt(lines, delimiter=",", ndmin=2)
            lhs = a[:, col["p_grid"]] + a[:, col["p_ext_discharge"]]
            rhs = (P_INFRA_W + a[:, col["p_comp_served"]] + a[:, col["p_dummy"]]
                   + a[:, col["p_ext_charge"]])
            bad = np.flatnonzero(np.abs(lhs - rhs) > _BALANCE_ATOL_W)
            if bad.size:
                problems.append(f"shaving.csv row {rows + bad[0] + 1}: power balance off "
                                f"by {lhs[bad[0]] - rhs[bad[0]]!r} W")
            over = np.flatnonzero(a[:, col["p_grid"]] > cap + _BALANCE_ATOL_W)
            if over.size:
                problems.append(f"shaving.csv row {rows + over[0] + 1}: p_grid "
                                f"{a[over[0], col['p_grid']]!r} W above cap {cap!r} W")
            rows += a.shape[0]
    if rows != summary["n_steps"]:
        problems.append(f"shaving.csv has {rows} rows, summary says {summary['n_steps']}")
    return problems


def physics_problems(out_dir: str, commands, codes) -> list[str]:
    """Checks that need no reference: exit codes and shaving.csv rows."""
    problems = []
    for argv, code in zip(commands, codes):
        expected = 0
        if argv[0] == "simulate":
            try:
                with open(os.path.join(out_dir, "shaving_summary.json"),
                          encoding="utf-8") as fh:
                    summary = json.load(fh)
                expected = 3 if summary["ramp_violation_count"] > 0 else 0
                problems += _shaving_row_problems(out_dir, summary)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"simulate outputs unreadable: {exc!r}")
        if code != expected:
            problems.append(f"{argv[0]} exited {code}, expected {expected}")
    return problems


class Reference:
    """What every pass of one run must reproduce."""

    def __init__(self, digests: dict, codes: list, counts: dict, problems: list):
        self.digests = digests
        self.codes = codes
        self.counts = counts
        self.problems = problems

    @classmethod
    def from_pass(cls, out_dir: str, commands, codes) -> "Reference":
        problems = physics_problems(out_dir, commands, codes)
        try:
            digests = output_digests(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            digests, problems = {}, problems + [f"digests: {exc}"]
        return cls(digests, list(codes), output_counts(out_dir), problems)

    def to_json(self) -> dict:
        return {"files": self.digests, "codes": self.codes, "counts": self.counts}

    def problems_of(self, out_dir: str, codes) -> list[str]:
        """Every way the pass in out_dir differs from this reference."""
        problems = list(self.problems)
        if list(codes) != self.codes:
            problems.append(f"exit codes {list(codes)}, expected {self.codes}")
        try:
            digests = output_digests(out_dir)
            counts = output_counts(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"outputs unreadable: {exc}"]
        for name in sorted(set(digests) | set(self.digests)):
            if digests.get(name) != self.digests.get(name):
                problems.append(f"{name}: {digests.get(name)}, expected "
                                f"{self.digests.get(name)}")
        for name in sorted(set(counts) | set(self.counts)):
            if counts.get(name) != self.counts.get(name):
                problems.append(f"{name} = {counts.get(name)}, expected "
                                f"{self.counts.get(name)}")
        return problems
