"""Batch experiments: shutdown-avoidance grids and strategy comparisons.

A SweepGrid tabulates gpus_saved over a threshold-fraction axis and a
minimum-burst-length axis; raising either axis can only shrink the set
of qualifying spikes, so every valid grid is nonincreasing along both.
compare_strategies runs the shaving simulation once per named strategy
on one trace and reports each against the device-free baseline.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .trace import PowerTrace
from .shaving import SimConfig, _gpus_saved_grid, computational_gain, simulate_shaving
# Unused here; bench/tracer.py patches sweep.gpus_saved.
from .shaving import gpus_saved  # noqa: F401

__all__ = [
    "DEFAULT_THRESHOLD_FRACS",
    "DEFAULT_BURST_LENGTHS_S",
    "SweepGrid",
    "sweep_gpus_saved",
    "ComparisonRow",
    "compare_strategies",
    "export_grid",
    "load_grid_csv",
    "load_grid_json",
    "write_comparison_csv",
]

DEFAULT_THRESHOLD_FRACS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
DEFAULT_BURST_LENGTHS_S = tuple(round(0.02 * k, 2) for k in range(11))

_COMPARISON_FIELDS = (
    "strategy_name", "computational_gain_pct", "dummy_energy_j",
    "total_unserved_energy_j", "device_energy_throughput_j", "peak_grid_w",
)


def _check_axis(name: str, values, lo=None, hi=None) -> tuple:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError(f"{name} must be non-empty")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{name} values must be finite")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    if lo is not None and vals[0] < lo or hi is not None and vals[-1] > hi:
        raise ValueError(f"{name} values out of range")
    return vals


@dataclass(frozen=True)
class SweepGrid:
    threshold_fracs: tuple
    burst_lengths_s: tuple
    values: np.ndarray      # rows: thresholds, columns: burst lengths
    trace_label: str = ""

    def __post_init__(self):
        fracs = _check_axis("threshold_fracs", self.threshold_fracs, lo=0.0, hi=1.0)
        if fracs[0] <= 0.0:
            raise ValueError("threshold_fracs must be positive")
        bursts = _check_axis("burst_lengths_s", self.burst_lengths_s, lo=0.0)
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.shape != (len(fracs), len(bursts)):
            raise ValueError(f"values shape {vals.shape} does not match axes "
                             f"({len(fracs)}, {len(bursts)})")
        if (vals < 0).any():
            raise ValueError("grid values must be non-negative")
        if (np.diff(vals, axis=0) > 0).any() or (np.diff(vals, axis=1) > 0).any():
            raise ValueError("grid values must be nonincreasing along both axes")
        vals.setflags(write=False)
        object.__setattr__(self, "threshold_fracs", fracs)
        object.__setattr__(self, "burst_lengths_s", bursts)
        object.__setattr__(self, "values", vals)


def sweep_gpus_saved(trace: PowerTrace, threshold_fracs=DEFAULT_THRESHOLD_FRACS,
                     burst_lengths_s=DEFAULT_BURST_LENGTHS_S,
                     gpu_unit_w: float = 700.0) -> SweepGrid:
    """gpus_saved over both axes.  Each cell equals gpus_saved of its
    threshold and burst length; one scan for runs above a threshold
    serves its whole row."""
    fracs = _check_axis("threshold_fracs", threshold_fracs, lo=0.0, hi=1.0)
    bursts = _check_axis("burst_lengths_s", burst_lengths_s, lo=0.0)
    values = _gpus_saved_grid(trace, fracs, bursts, gpu_unit_w)
    return SweepGrid(threshold_fracs=fracs, burst_lengths_s=bursts,
                     values=values, trace_label=trace.source_label)


@dataclass(frozen=True)
class ComparisonRow:
    strategy_name: str
    computational_gain_pct: float
    dummy_energy_j: float
    total_unserved_energy_j: float
    device_energy_throughput_j: float
    peak_grid_w: float

    def __post_init__(self):
        if (self.dummy_energy_j < 0.0 or self.total_unserved_energy_j < 0.0
                or self.device_energy_throughput_j < 0.0):
            raise ValueError("energies must be non-negative")


def compare_strategies(trace: PowerTrace, strategies, config: SimConfig) -> list:
    """Simulate each (name, device) pair on the same trace and config.

    strategies is an ordered mapping or sequence of (name, spec) pairs
    where spec is a DeviceSpec, "none", or "ideal".  Gains are relative
    to the device-free run, which is computed regardless of whether it
    is listed.  Duplicate names are rejected.
    """
    if hasattr(strategies, "items"):
        pairs = list(strategies.items())
    else:
        pairs = [(name, spec) for name, spec in strategies]
    if not pairs:
        raise ValueError("at least one strategy is required")
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate strategy names: {dupes}")

    baseline = simulate_shaving(trace, "none", config)
    rows = []
    for name, spec in pairs:
        try:
            result = baseline if spec == "none" else simulate_shaving(trace, spec, config)
            gain = computational_gain(result, baseline)
        except ValueError as exc:
            raise ValueError(f"strategy {name!r}: {exc}") from None
        rows.append(ComparisonRow(
            strategy_name=name,
            computational_gain_pct=gain,
            dummy_energy_j=result.total_dummy_energy_j,
            total_unserved_energy_j=result.total_unserved_energy_j,
            device_energy_throughput_j=result.device_energy_throughput_j,
            peak_grid_w=result.peak_grid_w,
        ))
    return rows


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def export_grid(grid: SweepGrid, format: str = "csv") -> str:
    """Serialize a grid; CSV puts burst lengths across the header row and
    threshold fractions down the first column."""
    if format == "csv":
        out = io.StringIO()
        header = ["threshold_frac/burst_s"] + [repr(b) for b in grid.burst_lengths_s]
        out.write(",".join(header) + "\n")
        for i, frac in enumerate(grid.threshold_fracs):
            row = [repr(frac)] + [str(int(v)) for v in grid.values[i]]
            out.write(",".join(row) + "\n")
        return out.getvalue()
    if format == "json":
        payload = {
            "trace_label": grid.trace_label,
            "threshold_fracs": list(grid.threshold_fracs),
            "burst_lengths_s": list(grid.burst_lengths_s),
            "values": [[int(v) for v in row] for row in grid.values],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unsupported grid format {format!r}")


def load_grid_json(text: str, trace_label=None) -> SweepGrid:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("grid JSON must be an object")
    missing = {"threshold_fracs", "burst_lengths_s", "values"} - set(data)
    if missing:
        raise ValueError(f"grid JSON missing fields: {sorted(missing)}")
    return SweepGrid(
        threshold_fracs=tuple(data["threshold_fracs"]),
        burst_lengths_s=tuple(data["burst_lengths_s"]),
        values=np.asarray(data["values"], dtype=np.int64),
        trace_label=trace_label if trace_label is not None else data.get("trace_label", ""),
    )


def load_grid_csv(text: str, trace_label: str = "") -> SweepGrid:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("grid CSV needs a header and at least one row")
    header = lines[0].split(",")
    bursts = tuple(float(tok) for tok in header[1:])
    fracs = []
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != len(header):
            raise ValueError("grid CSV row width does not match header")
        fracs.append(float(toks[0]))
        rows.append([int(tok) for tok in toks[1:]])
    return SweepGrid(threshold_fracs=tuple(fracs), burst_lengths_s=bursts,
                     values=np.asarray(rows, dtype=np.int64), trace_label=trace_label)


def write_comparison_csv(rows, dest) -> None:
    lines = [",".join(_COMPARISON_FIELDS)]
    for row in rows:
        lines.append(",".join([
            row.strategy_name,
            repr(row.computational_gain_pct),
            repr(row.dummy_energy_j),
            repr(row.total_unserved_energy_j),
            repr(row.device_energy_throughput_j),
            repr(row.peak_grid_w),
        ]))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
