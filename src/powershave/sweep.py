"""Batch experiments: shutdown-avoidance grids and strategy comparisons.

A SweepGrid tabulates gpus_saved over a threshold-fraction axis and a
minimum-burst-length axis; raising either axis can only shrink the set
of qualifying spikes, so every valid grid is nonincreasing along both.
compare_strategies runs the shaving simulation once per named strategy
on one trace and reports each against the device-free baseline, holding
one simulation's series at a time.

write_grid_csv, write_grid_json and write_comparison_csv write through
_textio, to a path or a stream; load_grid_csv and load_grid_json read the
first two back from a path or a stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

import numpy as np

from ._textio import (NON_NEGATIVE, check_fields, plain_int, plain_numbers,
                      read_json_object, read_text, write_json, write_text)
from .trace import PowerTrace
from .shaving import (SimConfig, _gain_pct, _gpus_saved_grid, _simulate_series,
                      _useful_j)
# Unused here; bench/tracer.py patches sweep.gpus_saved and sweep.simulate_shaving.
from .shaving import gpus_saved, simulate_shaving  # noqa: F401

__all__ = [
    "DEFAULT_THRESHOLD_FRACS",
    "DEFAULT_BURST_LENGTHS_S",
    "SweepGrid",
    "sweep_gpus_saved",
    "ComparisonRow",
    "compare_strategies",
    "load_grid_csv",
    "load_grid_json",
    "write_comparison_csv",
    "write_grid_csv",
    "write_grid_json",
]

DEFAULT_THRESHOLD_FRACS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
DEFAULT_BURST_LENGTHS_S = tuple(round(0.02 * k, 2) for k in range(11))


def _check_axis(name: str, values, lo=None, hi=None) -> tuple:
    # Refused rather than cast: float() would read true as 1.0, "0.5" as
    # 0.5 and a string axis character by character.  numpy's bool is not a
    # numbers.Real; its floats and ints are.
    try:
        vals = tuple(values)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in vals):
            raise TypeError
        vals = tuple(map(float, vals))
    except (TypeError, OverflowError):
        raise ValueError(f"grid axis {name} must be a list of numbers, "
                         f"got {values!r}") from None
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
        if not isinstance(self.trace_label, str):
            raise ValueError(f"grid trace_label must be a string, got {self.trace_label!r}")
        vals = np.asarray(self.values)
        # Refused rather than cast: a cast would truncate 1.7 to 1 and wrap
        # integers beyond int64.
        if vals.dtype.kind == "b" or not np.can_cast(vals.dtype, np.int64):
            raise ValueError(f"grid values must be integers that fit int64, "
                             f"got an array of {vals.dtype}")
        vals = vals.astype(np.int64)
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
                     gpu_unit_w: float = SimConfig.gpu_unit_w) -> SweepGrid:
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
    dummy_energy_j: float = field(metadata=NON_NEGATIVE)
    total_unserved_energy_j: float = field(metadata=NON_NEGATIVE)
    device_energy_throughput_j: float = field(metadata=NON_NEGATIVE)
    peak_grid_w: float

    def __post_init__(self):
        check_fields(self)


def compare_strategies(trace: PowerTrace, strategies, config: SimConfig) -> list:
    """Simulate each (name, device) pair on the same trace and config.

    strategies is an ordered mapping or sequence of (name, spec) pairs
    where spec is a DeviceSpec, "none", or "ideal".  Gains are relative
    to the device-free run, which is computed regardless of whether it
    is listed.  Duplicate names are rejected.  One simulation is alive at
    a time: the baseline's series are dropped once its useful energy and
    totals are taken, and every "none" row is built from those totals.

    Each row's numbers are those of simulate_shaving's result, bit for
    bit, but compare runs only the series pass (shaving._simulate_series)
    and walks the thermal node only where de-rating can bite: when a
    proven bound on the node (shaving._node_bound_c) stays at or below
    t_derate_c, every de-rating factor is exactly 1.0, so the useful
    energy is the served energy, and the walk would change no bit.
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

    base_useful_j, base_totals = _row_inputs(_simulate_series(trace, "none", config))
    rows = []
    for name, spec in pairs:
        try:
            if spec == "none":
                useful_j, totals = base_useful_j, base_totals
            else:
                useful_j, totals = _row_inputs(_simulate_series(trace, spec, config))
            gain = _gain_pct(useful_j, base_useful_j)
        except ValueError as exc:
            raise ValueError(f"strategy {name!r}: {exc}") from None
        rows.append(ComparisonRow(name, gain, *totals))
    return rows


def _row_inputs(series) -> tuple:
    """What a comparison row needs of a simulation: its useful energy and
    its row totals.  The caller keeps these, not the series, so they are
    freed before the next simulation starts."""
    return _useful_j(series), (
        series.total_dummy_energy_j, series.total_unserved_energy_j,
        series.device_energy_throughput_j, series.peak_grid_w)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def write_grid_csv(grid: SweepGrid, dest) -> None:
    """Burst lengths across the header row, threshold fractions down the
    first column."""
    header = ["threshold_frac/burst_s"] + [repr(b) for b in grid.burst_lengths_s]
    write_text(dest, [",".join(header) + "\n"] + [
        ",".join([repr(frac)] + [str(int(v)) for v in row]) + "\n"
        for frac, row in zip(grid.threshold_fracs, grid.values)])


def write_grid_json(grid: SweepGrid, dest) -> None:
    """SweepGrid's fields, the values as nested lists."""
    write_json(dict(asdict(grid), values=grid.values.tolist()), dest)


def load_grid_json(source, trace_label=None) -> SweepGrid:
    data = read_json_object(source, "grid")
    missing = {"threshold_fracs", "burst_lengths_s", "values"} - set(data)
    if missing:
        raise ValueError(f"grid JSON missing fields: {sorted(missing)}")
    return SweepGrid(
        threshold_fracs=data["threshold_fracs"],
        burst_lengths_s=data["burst_lengths_s"],
        values=data["values"],
        trace_label=trace_label if trace_label is not None else data.get("trace_label", ""),
    )


def load_grid_csv(source, trace_label: str = "") -> SweepGrid:
    """Every cell keeps _textio's number rule.  An error names the row and
    the column, both counted from 1 and the header as row 1; blank lines
    are not rows."""
    lines = [ln for ln in read_text(source, "grid CSV").splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("grid CSV needs a header and at least one row")
    header = lines[0].split(",")
    bursts = plain_numbers(header[1:], "grid CSV row 1 column", first=2)
    fracs = []
    rows = []
    for n, ln in enumerate(lines[1:], 2):
        toks = ln.split(",")
        if len(toks) != len(header):
            raise ValueError(f"grid CSV row {n} width does not match header")
        fracs.append(plain_numbers(toks[:1], f"grid CSV row {n} column")[0])
        rows.append(plain_numbers(toks[1:], f"grid CSV row {n} column", plain_int, first=2))
    return SweepGrid(threshold_fracs=tuple(fracs), burst_lengths_s=bursts,
                     values=rows, trace_label=trace_label)


def write_comparison_csv(rows, dest) -> None:
    """One row per ComparisonRow, its fields in declaration order: the
    strategy name as it is, every number as its repr."""
    names = [f.name for f in fields(ComparisonRow)]
    numbers_of = attrgetter(*names[1:])
    write_text(dest, [",".join(names) + "\n"] + [
        ",".join([row.strategy_name, *map(repr, numbers_of(row))]) + "\n"
        for row in rows])
