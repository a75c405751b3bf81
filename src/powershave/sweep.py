"""Batch experiments: shutdown-avoidance grids and strategy comparisons.

gpus_saved counts the accelerators spared from shutdown if every spike
above a threshold fraction and at least a minimum burst length long
could be absorbed.  sweep_gpus_saved tabulates it over a
threshold-fraction axis and a burst-length axis into a SweepGrid, one
scan for runs above a threshold serving its whole row, and gpus_saved is
the one cell of that grid.  Raising either axis can only shrink the set
of qualifying spikes, so every valid grid is nonincreasing along both.
One axis check (_check_axes) serves SweepGrid, sweep_gpus_saved,
gpus_saved and the sweep command, whose refusals name each axis by its
field; the command line puts the flag's name in the field's place.

compare_strategies runs simulate_shaving once per named strategy on one
trace and reports each run's result_summary_dict against the device-free
baseline's, holding one simulation's series at a time.

write_grid_csv, write_grid_json and write_comparison_csv write through
_textio, to a path or a stream: the grid CSV through its column writer
(write_columns_csv).  load_grid_csv and load_grid_json read the first two
back from a path or a stream, the JSON form through the config codec
(read_config).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from ._textio import (NON_NEGATIVE, check_fields, increasing_numbers, plain_int,
                      plain_numbers, read_config, read_text, write_columns_csv,
                      write_json, write_text)
from .trace import PowerTrace
from .spikes import ThresholdSpec, _runs_above
from .shaving import (SimConfig, _check_gpu_unit_w, _gain_pct, _units,
                      result_summary_dict, simulate_shaving)

__all__ = [
    "DEFAULT_THRESHOLD_FRACS",
    "DEFAULT_BURST_LENGTHS_S",
    "SweepGrid",
    "gpus_saved",
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


def _check_axes(threshold_fracs, burst_lengths_s) -> tuple:
    """Both grid axes as tuples of Python floats, each a non-empty strictly
    increasing list of numbers (_textio.increasing_numbers): threshold
    fractions in (0, 1], burst lengths non-negative.  An error names the
    axis, threshold_fracs or burst_lengths_s, and the value refused."""
    axes = []
    for name, values, within, bounds in (
            ("threshold_fracs", threshold_fracs, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
            ("burst_lengths_s", burst_lengths_s, lambda v: v >= 0.0, "non-negative")):
        vals = increasing_numbers(name, values, 1)
        # The axis increases, so its ends are its extremes.
        for v in (vals[0], vals[-1]):
            if not within(v):
                raise ValueError(f"{name} values must be {bounds}, got {v!r}")
        axes.append(vals)
    return tuple(axes)


@dataclass(frozen=True)
class SweepGrid:
    threshold_fracs: tuple
    burst_lengths_s: tuple
    values: np.ndarray      # rows: thresholds, columns: burst lengths
    trace_label: str = ""

    def __post_init__(self):
        fracs, bursts = _check_axes(self.threshold_fracs, self.burst_lengths_s)
        if not isinstance(self.trace_label, str):
            raise ValueError(f"grid trace_label must be a string, got {self.trace_label!r}")
        try:
            vals = np.asarray(self.values)
        except ValueError:     # rows of unequal lengths
            raise ValueError("grid values must be a rectangular array") from None
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
    """gpus_saved over both axes, rows by threshold.  Every argument is
    checked before any work: the axes by _check_axes and gpu_unit_w, a
    positive number at least rack_max_w / 2**53, by
    shaving._check_gpu_unit_w, each refusal a ValueError naming the axis
    or gpu_unit_w.  Then one scan for runs above each threshold serves its
    whole row."""
    fracs, bursts = _check_axes(threshold_fracs, burst_lengths_s)
    gpu_unit_w = _check_gpu_unit_w(trace.rack_max_w, gpu_unit_w)
    values = np.zeros((len(fracs), len(bursts)), dtype=np.int64)
    for i, frac in enumerate(fracs):
        theta = ThresholdSpec(absolute_w=frac * trace.rack_max_w).resolve(trace.rack_max_w)
        starts, stops, tops = _runs_above(trace.samples, theta)
        # A run qualifies when its duration reaches the burst length; the
        # whisker keeps durations that are whole multiples of dt in.
        reach = (stops - starts) * trace.dt_s + 1e-12
        for j, burst in enumerate(bursts):
            # The worst peak excess, 0.0 when no run qualifies.
            worst = tops[reach >= burst].max(initial=theta) - theta
            values[i, j] = _units(worst, gpu_unit_w)
    return SweepGrid(threshold_fracs=fracs, burst_lengths_s=bursts,
                     values=values, trace_label=trace.source_label)


def gpus_saved(trace: PowerTrace, threshold_frac: float, min_burst_s: float,
               gpu_unit_w: float = SimConfig.gpu_unit_w) -> int:
    """Accelerators spared from shutdown if spikes longer than min_burst_s
    above the threshold could be absorbed: ceil of the worst qualifying
    peak excess over the per-unit draw.  The one cell of sweep_gpus_saved,
    refused as it refuses the axes and the unit."""
    return int(sweep_gpus_saved(trace, (threshold_frac,), (min_burst_s,), gpu_unit_w).values[0, 0])


def _check_strategy_name(name) -> None:
    """Refuse a strategy name that comparison.csv could not keep as one
    field of one line: anything but a str, or one holding ',', '"' or a
    line break (any that str.splitlines breaks at)."""
    if not isinstance(name, str):
        raise ValueError(f"strategy name must be a string, got {name!r}")
    # The '.' makes a break at the end of the name split too.
    if "," in name or '"' in name or len(f"{name}.".splitlines()) > 1:
        raise ValueError(f"strategy name {name!r} must not hold ',', '\"' or a line break")


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
        _check_strategy_name(self.strategy_name)


# (ComparisonRow field and CSV column, run figure) of each number after the
# gain, in the row's field order; every figure is a result_summary_dict key.
# A new column is one ComparisonRow field and one entry here.
_ROW_FIGURES = (("dummy_energy_j", "total_dummy_energy_j"),
                ("total_unserved_energy_j", "total_unserved_energy_j"),
                ("device_energy_throughput_j", "device_energy_throughput_j"),
                ("peak_grid_w", "peak_grid_w"))


def compare_strategies(trace: PowerTrace, strategies, config: SimConfig) -> list:
    """Simulate each (name, device) pair on the same trace and config.

    strategies is an ordered mapping or sequence of (name, spec) pairs
    where spec is a DeviceSpec, "none", or "ideal".  Gains are relative
    to the device-free run, which is computed regardless of whether it
    is listed.  Duplicate names, and names that ComparisonRow refuses
    (_check_strategy_name), are rejected before any simulation.  Each row
    is the name, the gain and the _ROW_FIGURES of the run's
    result_summary_dict.  One simulation is alive at a time: each result
    is dropped once its summary is taken, and every "none" row is built
    from the baseline's summary.  A summary reads no temperature where the
    node stays at or below t_derate_c (useful_compute_j), so compare walks
    the thermal node only where de-rating can bite.
    """
    pairs = [(name, spec) for name, spec in (
        strategies.items() if hasattr(strategies, "items") else strategies)]
    if not pairs:
        raise ValueError("at least one strategy is required")
    names = [name for name, _ in pairs]
    for name in names:
        _check_strategy_name(name)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate strategy names: {dupes}")

    base = result_summary_dict(simulate_shaving(trace, "none", config))
    rows = []
    for name, spec in pairs:
        try:
            summary = (base if spec == "none" else
                       result_summary_dict(simulate_shaving(trace, spec, config)))
            gain = _gain_pct(summary["useful_compute_j"], base["useful_compute_j"])
        except ValueError as exc:
            raise ValueError(f"strategy {name!r}: {exc}") from None
        rows.append(ComparisonRow(name, gain, **{
            column: summary[figure] for column, figure in _ROW_FIGURES}))
    return rows


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

# The first header cell of a grid CSV: what its rows and columns hold.
_GRID_CORNER = "threshold_frac/burst_s"


def write_grid_csv(grid: SweepGrid, dest) -> None:
    """Burst lengths across the header row, threshold fractions down the
    first column; every number is its repr (an int64 cell's is its
    str(int))."""
    header = ",".join([_GRID_CORNER, *map(repr, grid.burst_lengths_s)])
    write_columns_csv(dest, (header,), [grid.threshold_fracs, *grid.values.T])


def write_grid_json(grid: SweepGrid, dest) -> None:
    """SweepGrid's fields, the values as nested lists."""
    write_json(dict(asdict(grid), values=grid.values.tolist()), dest)


def load_grid_json(source, trace_label=None) -> SweepGrid:
    """The SweepGrid whose fields the JSON object in source holds
    (read_config: an unknown or missing field is refused by name), its
    label replaced by trace_label when that is given."""
    grid = read_config(SweepGrid, source, "grid")
    return grid if trace_label is None else replace(grid, trace_label=trace_label)


def load_grid_csv(source, trace_label: str = "") -> SweepGrid:
    """Every cell keeps _textio's number rule, and the first header cell
    is write_grid_csv's threshold_frac/burst_s.  An error names the row and
    the column, both counted from 1 and the header as row 1; blank lines
    are not rows."""
    lines = [ln for ln in read_text(source, "grid CSV").splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("grid CSV needs a header and at least one row")
    header = lines[0].split(",")
    if header[0] != _GRID_CORNER:
        raise ValueError(f"grid CSV row 1 column 1: expected {_GRID_CORNER!r}, got {header[0]!r}")
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
