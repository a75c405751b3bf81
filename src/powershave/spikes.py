"""Threshold-crossing spike detection and summary statistics."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

import numpy as np

from ._textio import (POSITIVE, check_fields, increasing_numbers, number_field,
                      write_json, write_text)
from .trace import PowerTrace

__all__ = [
    "DEFAULT_ENERGY_BIN_EDGES",
    "ThresholdSpec",
    "Spike",
    "SpikeStats",
    "detect_spikes",
    "spike_statistics",
    "threshold_sweep",
    "write_spikes_csv",
    "stats_to_dict",
    "write_stats_json",
]

# Percentile levels always present in duration/peak summaries.
_PCT_LEVELS = (50, 85, 90, 95, 99)
# Default spike-energy histogram: 0..150 J in 5 J bins.
DEFAULT_ENERGY_BIN_EDGES = tuple(float(x) for x in range(0, 155, 5))


@dataclass(frozen=True)
class ThresholdSpec:
    """Detection threshold, given either in watts or as a fraction of the
    rack nameplate.  Exactly one of the two must be set."""

    absolute_w: float | None = field(default=None, metadata=POSITIVE)
    fraction_of_max: float | None = None

    def __post_init__(self):
        check_fields(self)
        has_abs = self.absolute_w is not None
        has_frac = self.fraction_of_max is not None
        if has_abs == has_frac:
            raise ValueError("set exactly one of absolute_w or fraction_of_max")
        if has_frac and not (0.0 < self.fraction_of_max <= 1.0):
            raise ValueError(f"fraction_of_max must be in (0, 1], got {self.fraction_of_max}")

    def resolve(self, rack_max_w: float) -> float:
        """Threshold in watts for a given rack nameplate, a positive number
        (ValueError naming rack_max_w otherwise)."""
        rack_max_w = number_field("rack_max_w", rack_max_w, sign="positive")
        if self.absolute_w is not None:
            value = self.absolute_w
        else:
            value = self.fraction_of_max * rack_max_w
        if not (0.0 < value <= rack_max_w):
            raise ValueError(
                f"threshold {value} W outside (0, rack_max={rack_max_w}]"
            )
        return float(value)


@dataclass(frozen=True)
class Spike:
    """One maximal run of samples strictly above the threshold."""

    start_s: float
    duration_s: float
    peak_excess_w: float
    energy_above_j: float
    peak_frac: float


@dataclass(frozen=True)
class SpikeStats:
    count: int
    duration_percentiles: dict
    frac_leq_100ms: float
    energy_bin_edges: tuple
    energy_counts: tuple
    energy_mean_j: float
    peak_frac_quantiles: dict
    empty: bool


def _runs_above(samples: np.ndarray, theta: float):
    """Maximal runs of samples strictly above theta: start indices, stop
    indices (exclusive) and each run's top sample.

    The tops come from one np.maximum.reduceat over the run starts.  Its
    segment from one start to the next is a run and the gap after it,
    whose samples are at most theta, so the segment maximum is the run's.
    A caller takes a peak excess as top - theta, which equals the maximum
    of the run's sample - theta bit for bit, because rounding is monotone.
    """
    above = samples > theta
    # Run boundaries from the sign changes of the indicator.
    padded = np.concatenate(([False], above, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[0::2], edges[1::2]
    return starts, stops, np.maximum.reduceat(samples, starts)


def detect_spikes(trace: PowerTrace, threshold: ThresholdSpec) -> list[Spike]:
    """Find maximal runs of consecutive samples strictly above threshold.

    Each field but the energy is one array expression over the runs of
    _runs_above: the start is origin + start index * dt, the duration
    counts whole hold intervals (run length times dt), the peak excess is
    the run's top sample less theta and the peak fraction that top over
    rack_max_w.  The energy is the zero-order-hold integral of the excess:
    each run's (samples - theta).sum(), taken one run at a time, since
    np.add.reduceat adds in another order and differs in the last bit,
    then times dt over the column.  Runs that touch either end of the
    trace count like any other.
    """
    theta = threshold.resolve(trace.rack_max_w)
    s = trace.samples
    starts, stops, tops = _runs_above(s, theta)
    dt = trace.dt_s
    excess_sums = np.fromiter(((s[a:b] - theta).sum()
                               for a, b in zip(starts.tolist(), stops.tolist())),
                              float, count=starts.size)
    return list(map(Spike, (trace.origin_time_s + starts * dt).tolist(),
                    ((stops - starts) * dt).tolist(), (tops - theta).tolist(),
                    (excess_sums * dt).tolist(), (tops / trace.rack_max_w).tolist()))


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value, or
    0.0 when there are no values."""
    n = sorted_values.size
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1]) if n else 0.0


def spike_statistics(spikes: list[Spike],
                     energy_bin_edges=DEFAULT_ENERGY_BIN_EDGES) -> SpikeStats:
    """Summary distribution of a spike list.

    Energies falling outside the histogram range are clamped into the end
    bins, so the counts always sum to the spike count.  An empty list
    yields a stats record flagged empty with zeroed fields: every
    percentile, fraction and mean of no spike reads 0.0, and every count 0.

    energy_bin_edges must be a strictly increasing list of at least two
    numbers (_textio.increasing_numbers), the one check of the edges,
    which the analyze command's --bins reaches too; ValueError naming
    energy_bin_edges otherwise.  The edges are stored as that tuple of
    Python floats and the counts as Python ints.
    """
    edges = increasing_numbers("energy_bin_edges", energy_bin_edges, 2)
    count = len(spikes)
    # An empty list gives empty float arrays, as np.array([]) is float64.
    durations = np.sort(np.array([sp.duration_s for sp in spikes]))
    energies = np.array([sp.energy_above_j for sp in spikes])
    peak_fracs = np.sort(np.array([sp.peak_frac for sp in spikes]))

    # 100 ms boundary with a whisker of tolerance: durations are integer
    # multiples of dt and must not fall out of the bucket by one ulp.
    leq = durations <= 0.1 * (1.0 + 1e-9)
    clamped = np.clip(energies, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(clamped, bins=edges)

    return SpikeStats(
        count=count,
        duration_percentiles={f"p{p}": _nearest_rank(durations, p) for p in _PCT_LEVELS},
        # np.mean of no values warns, so no spike reads 0.0 by hand.
        frac_leq_100ms=float(np.mean(leq)) if count else 0.0,
        energy_bin_edges=edges,
        energy_counts=tuple(int(c) for c in counts),
        energy_mean_j=float(energies.mean()) if count else 0.0,
        peak_frac_quantiles={f"p{p}": _nearest_rank(peak_fracs, p) for p in _PCT_LEVELS},
        empty=count == 0,
    )


def threshold_sweep(trace: PowerTrace,
                    thresholds: list[ThresholdSpec]) -> list[tuple[ThresholdSpec, SpikeStats]]:
    """(threshold, statistics) pairs, one per threshold, in the given order."""
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    return [(th, spike_statistics(detect_spikes(trace, th))) for th in thresholds]


def write_spikes_csv(spikes: list[Spike], dest) -> None:
    """One spike per row, Spike's fields in declaration order, each as the
    repr of its float.  Rows end with CRLF, which the golden digest of
    spikes.csv pins."""
    names = [f.name for f in fields(Spike)]
    values_of = attrgetter(*names)
    write_text(dest, [",".join(names) + "\r\n"] + [
        ",".join(map(repr, map(float, values_of(sp)))) + "\r\n" for sp in spikes])


def stats_to_dict(stats: SpikeStats) -> dict:
    return asdict(stats)


def write_stats_json(stats: SpikeStats, dest) -> None:
    write_json(stats_to_dict(stats), dest)
