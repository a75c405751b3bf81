"""Threshold-crossing spike detection and summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from ._textio import check_finite, write_json, write_text
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

    absolute_w: float | None = None
    fraction_of_max: float | None = None

    def __post_init__(self):
        check_finite(self)
        has_abs = self.absolute_w is not None
        has_frac = self.fraction_of_max is not None
        if has_abs == has_frac:
            raise ValueError("set exactly one of absolute_w or fraction_of_max")
        if has_abs and not (self.absolute_w > 0.0):
            raise ValueError(f"absolute_w must be positive, got {self.absolute_w}")
        if has_frac and not (0.0 < self.fraction_of_max <= 1.0):
            raise ValueError(f"fraction_of_max must be in (0, 1], got {self.fraction_of_max}")

    def resolve(self, rack_max_w: float) -> float:
        """Threshold in watts for a given rack nameplate."""
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
    indices (exclusive) and each run's peak excess over theta.

    Peaks come from one reduceat over the run starts.  Its segment from
    one start to the next is a run and the gap after it, whose samples are
    at most theta, so the segment maximum is the run's.  max(seg) - theta
    equals max(seg - theta) bit for bit, because rounding is monotone.
    """
    above = samples > theta
    # Run boundaries from the sign changes of the indicator.
    padded = np.concatenate(([False], above, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[0::2], edges[1::2]
    return starts, stops, np.maximum.reduceat(samples, starts) - theta


def detect_spikes(trace: PowerTrace, threshold: ThresholdSpec) -> list[Spike]:
    """Find maximal runs of consecutive samples strictly above threshold.

    Durations count whole hold intervals (run length times dt); the energy
    is the zero-order-hold integral of the excess over the run.  Runs that
    touch either end of the trace count like any other.
    """
    theta = threshold.resolve(trace.rack_max_w)
    s = trace.samples
    starts, stops, peaks = _runs_above(s, theta)
    dt = trace.dt_s
    spikes = []
    for i0, i1, peak in zip(starts, stops, peaks):
        seg = s[i0:i1]
        spikes.append(Spike(
            start_s=float(trace.origin_time_s + i0 * dt),
            duration_s=float((i1 - i0) * dt),
            peak_excess_w=float(peak),
            # Summed run by run, so the bits do not hang on the order in
            # which a reduceat over the whole trace would add.
            energy_above_j=float((seg - theta).sum() * dt),
            peak_frac=float(seg.max() / trace.rack_max_w),
        ))
    return spikes


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    n = sorted_values.size
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1])


def _check_bin_edges(energy_bin_edges, name: str) -> np.ndarray:
    """The edges as a float array: at least two, finite, strictly
    increasing.  Errors start with name."""
    edges = np.asarray(energy_bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError(f"{name} needs at least two edges")
    # NaN fails every comparison, so the increasing check alone lets it in.
    if not np.all(np.isfinite(edges)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return edges


def spike_statistics(spikes: list[Spike],
                     energy_bin_edges=DEFAULT_ENERGY_BIN_EDGES) -> SpikeStats:
    """Summary distribution of a spike list.

    Energies falling outside the histogram range are clamped into the end
    bins, so the counts always sum to the spike count.  An empty list
    yields a stats record flagged empty with zeroed fields.
    """
    edges = _check_bin_edges(energy_bin_edges, "energy_bin_edges")

    if not spikes:
        return SpikeStats(
            count=0,
            duration_percentiles={f"p{p}": 0.0 for p in _PCT_LEVELS},
            frac_leq_100ms=0.0,
            energy_bin_edges=tuple(edges),
            energy_counts=tuple(0 for _ in range(edges.size - 1)),
            energy_mean_j=0.0,
            peak_frac_quantiles={f"p{p}": 0.0 for p in _PCT_LEVELS},
            empty=True,
        )

    durations = np.sort(np.array([sp.duration_s for sp in spikes]))
    energies = np.array([sp.energy_above_j for sp in spikes])
    peak_fracs = np.sort(np.array([sp.peak_frac for sp in spikes]))

    # 100 ms boundary with a whisker of tolerance: durations are integer
    # multiples of dt and must not fall out of the bucket by one ulp.
    leq = durations <= 0.1 * (1.0 + 1e-9)
    clamped = np.clip(energies, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(clamped, bins=edges)

    return SpikeStats(
        count=len(spikes),
        duration_percentiles={f"p{p}": _nearest_rank(durations, p) for p in _PCT_LEVELS},
        frac_leq_100ms=float(np.mean(leq)),
        energy_bin_edges=tuple(float(e) for e in edges),
        energy_counts=tuple(int(c) for c in counts),
        energy_mean_j=float(energies.mean()),
        peak_frac_quantiles={f"p{p}": _nearest_rank(peak_fracs, p) for p in _PCT_LEVELS},
        empty=False,
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
    return {
        "count": stats.count,
        "duration_percentiles": dict(stats.duration_percentiles),
        "frac_leq_100ms": stats.frac_leq_100ms,
        "energy_bin_edges": list(stats.energy_bin_edges),
        "energy_counts": list(stats.energy_counts),
        "energy_mean_j": stats.energy_mean_j,
        "peak_frac_quantiles": dict(stats.peak_frac_quantiles),
        "empty": stats.empty,
    }


def write_stats_json(stats: SpikeStats, dest) -> None:
    write_json(stats_to_dict(stats), dest)
