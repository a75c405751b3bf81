"""Rack power-draw traces: container type, CSV round-trip, resampling, synthesis.

A trace is a uniformly sampled power series for one accelerator rack.  The
synthetic generator builds a rack trace as the sum of per-accelerator
training cycles (compute burst, communication phase, idle tail, with
linear transition edges and per-accelerator phase jitter) plus a Poisson
stream of short inference bursts that lift a group of accelerators at
once.  Aggregate power never exceeds the rack nameplate
(n_accelerators * burst_power_w) and never falls below the all-idle
floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from itertools import repeat

import numpy as np

from ._textio import check_json_fields, is_number, write_columns_csv

__all__ = [
    "TraceFormatError",
    "CorruptTraceError",
    "PowerTrace",
    "SynthConfig",
    "DEFAULT_SYNTH_CONFIG",
    "load_trace",
    "write_trace",
    "resample",
    "synthesize_trace",
    "load_synth_config",
    "write_synth_config",
]


class TraceFormatError(ValueError):
    """Unparseable trace input (bad header, malformed row, missing metadata)."""


class CorruptTraceError(ValueError):
    """Parseable input that cannot be a physical trace (non-monotone time,
    negative power, irregular sampling)."""


# Gaps are accepted as uniform when within this relative distance of the
# median interval; wider wander means the file was decimated or spliced.
_GAP_RTOL = 0.005


@dataclass(frozen=True)
class PowerTrace:
    """Uniformly sampled rack power draw.

    samples are watts at instants origin_time_s + k * dt_s.  The array is
    frozen after construction; operations return new traces.
    """

    dt_s: float
    samples: np.ndarray
    rack_max_w: float
    source_label: str = ""
    origin_time_s: float = 0.0

    def __post_init__(self):
        if not (self.dt_s > 0.0 and math.isfinite(self.dt_s)):
            raise ValueError(f"dt_s must be positive and finite, got {self.dt_s}")
        if not (self.rack_max_w > 0.0 and math.isfinite(self.rack_max_w)):
            raise ValueError(f"rack_max_w must be positive and finite, got {self.rack_max_w}")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if np.any(~np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if np.any(arr < 0.0):
            raise ValueError("samples must be non-negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples * self.dt_s

    def times(self) -> np.ndarray:
        """Sample instants in seconds."""
        return self.origin_time_s + np.arange(self.n_samples) * self.dt_s

    def energy_j(self) -> float:
        """Zero-order-hold integral of the trace (J)."""
        return float(np.sum(self.samples) * self.dt_s)


def _is_header(text: str) -> bool:
    return [c.strip() for c in text.split(",")] == ["timestamp_s", "power_w"]


def _read_comment(meta: dict, text: str, lineno: int) -> None:
    """Store the metadata of a '#' comment line in meta; later lines win."""
    body = text.lstrip("#").strip()
    if "=" not in body:
        return
    key, _, value = body.partition("=")
    key = key.strip()
    value = value.strip()
    if key in ("rack_max_w", "dt_s"):
        try:
            meta[key] = float(value)
        except ValueError:
            raise TraceFormatError(f"line {lineno}: bad {key} value {value!r}") from None
    elif key == "label":
        meta[key] = value


def _parse_lines(raw: str):
    """Parse trace text line by line, raising at the first line that
    breaks a rule.  Returns (times, powers, meta, header_seen)."""
    meta: dict = {}
    times: list[float] = []
    powers: list[float] = []
    header_seen = False

    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            _read_comment(meta, text, lineno)
            continue
        if not header_seen:
            if not _is_header(text):
                raise TraceFormatError(
                    f"line {lineno}: expected header 'timestamp_s,power_w', got {text!r}"
                )
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            p = float(parts[1])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric row {text!r}") from None
        if not (math.isfinite(t) and math.isfinite(p)):
            raise TraceFormatError(f"line {lineno}: non-finite row {text!r}")
        if p < 0.0:
            raise CorruptTraceError(f"line {lineno}: negative power {p}")
        times.append(t)
        powers.append(p)
    return times, powers, meta, header_seen


# Characters of trace text the bulk parse takes at a time; it bounds the
# token lists held at once.
_PARSE_BLOCK_CHARS = 1 << 18


def _parse_rows(rows: list):
    """Time and power arrays of stripped data rows, or None if a row does
    not hold two numbers, a finite time and a finite non-negative power.
    float() runs once per time token and once per distinct power token."""
    if list(map(str.count, rows, repeat(","))).count(1) != len(rows):
        return None
    tokens = ",".join(rows).split(",")
    try:
        t = np.fromiter(map(float, tokens[0::2]), np.float64, len(rows))
        distinct = dict.fromkeys(tokens[1::2])
        distinct = dict(zip(distinct, map(float, distinct)))
    except ValueError:
        return None
    p = np.fromiter(map(distinct.__getitem__, tokens[1::2]), np.float64, len(rows))
    if not (np.isfinite(t).all() and np.isfinite(p).all()) or (p < 0.0).any():
        return None
    return t, p


def _parse_bulk(raw: str):
    """_parse_lines' result from array code over blocks of lines, or None
    where a line breaks a rule; _parse_lines then finds and reports the
    first such line."""
    meta: dict = {}
    t_blocks: list = []
    p_blocks: list = []
    header_seen = False
    pos = 0
    while pos < len(raw):
        # A cut just after "\n" is a line end of splitlines(), whatever
        # line ending the text uses.
        end = raw.find("\n", pos + _PARSE_BLOCK_CHARS) + 1 or len(raw)
        chunk = raw[pos:end]
        pos = end
        rows = list(map(str.strip, chunk.splitlines()))
        if "#" in chunk:
            # A bad metadata value makes _parse_lines report it with its
            # line number, which this pass does not track.
            try:
                for text in [text for text in rows if text.startswith("#")]:
                    _read_comment(meta, text, 0)
            except TraceFormatError:
                return None
            rows = [text for text in rows if not text.startswith("#")]
        if "" in rows:
            rows = list(filter(None, rows))
        if rows and not header_seen:
            if not _is_header(rows[0]):
                return None
            header_seen = True
            del rows[0]
        if rows:
            parsed = _parse_rows(rows)
            if parsed is None:
                return None
            t_blocks.append(parsed[0])
            p_blocks.append(parsed[1])
    if not t_blocks:
        return [], [], meta, header_seen
    return np.concatenate(t_blocks), np.concatenate(p_blocks), meta, header_seen


def load_trace(source, format: str = "csv", rack_max_w: float | None = None) -> PowerTrace:
    """Parse a trace from a CSV byte/text stream or path.

    Expected layout: optional '#' comment lines carrying 'rack_max_w=<float>'
    and 'label=<text>' metadata, a 'timestamp_s,power_w' header, then one
    sample per row.  Sampling must be uniform; gaps are tolerated within
    0.5% of the median interval.  rack_max_w may be supplied as an override
    when the file carries no metadata.
    """
    if format != "csv":
        raise TraceFormatError(f"unsupported trace format: {format!r}")

    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")

    parsed = _parse_bulk(raw)
    if parsed is None:
        parsed = _parse_lines(raw)
    times, powers, meta, header_seen = parsed

    if not header_seen:
        raise TraceFormatError("missing 'timestamp_s,power_w' header")
    if len(times) == 0:
        raise TraceFormatError("trace has no samples")
    if len(times) < 2:
        raise CorruptTraceError("trace needs at least two samples to fix the interval")

    t_arr = np.asarray(times, dtype=np.float64)
    gaps = np.diff(t_arr)
    if np.any(gaps <= 0.0):
        bad = int(np.argmax(gaps <= 0.0)) + 2  # row index of the offending sample
        raise CorruptTraceError(f"timestamps not strictly increasing at data row {bad}")
    # Prefer the declared interval: timestamps rebuilt as origin + k*dt
    # carry float noise that a span-based estimate inherits.
    meta_dt = meta.get("dt_s")
    if meta_dt is not None:
        if not (meta_dt > 0.0 and math.isfinite(meta_dt)):
            raise TraceFormatError(f"dt_s metadata must be a positive float, got {meta_dt}")
        dt = meta_dt
    else:
        dt = float(np.median(gaps))
    if np.any(np.abs(gaps - dt) > _GAP_RTOL * dt):
        bad = int(np.argmax(np.abs(gaps - dt) > _GAP_RTOL * dt)) + 2
        raise CorruptTraceError(
            f"irregular sampling at data row {bad}: gap deviates more than "
            f"{_GAP_RTOL:.1%} from the median interval {dt}"
        )

    rack = rack_max_w if rack_max_w is not None else meta.get("rack_max_w")
    if rack is None:
        raise TraceFormatError("rack_max_w missing: not in file metadata and no override given")

    return PowerTrace(
        dt_s=dt,
        samples=np.asarray(powers, dtype=np.float64),
        rack_max_w=float(rack),
        source_label=meta.get("label", ""),
        origin_time_s=float(t_arr[0]),
    )


def write_trace(trace: PowerTrace, dest) -> None:
    """Write a trace in the CSV layout load_trace reads back.

    Floats are emitted with repr so a write/load round trip preserves
    every sample bit for bit.
    """
    header = (
        f"# rack_max_w={trace.rack_max_w!r}",
        f"# dt_s={trace.dt_s!r}",
        f"# label={trace.source_label}",
        "timestamp_s,power_w",
    )
    write_columns_csv(dest, header, (trace.times(), trace.samples))


def resample(trace: PowerTrace, dt_new_s: float) -> PowerTrace:
    """Zero-order-hold resample onto a new uniform step.

    The input is treated as the held staircase signal it represents; each
    output sample is that signal's exact mean over its new hold cell, so
    energy is conserved except where the covered span shifts by a fraction
    of a cell at the trace end.  Point-picking instead of averaging would
    alias decimated traces and lose unbounded energy.
    """
    if not (dt_new_s > 0.0):
        raise ValueError(f"dt_new_s must be positive, got {dt_new_s}")
    if dt_new_s == trace.dt_s:
        return trace
    span = trace.n_samples * trace.dt_s
    n_new = max(1, int(round(span / dt_new_s)))
    # Integral of the staircase at the original knots; piecewise linear
    # in between, so interp evaluates it exactly at the new cell edges.
    knots = np.arange(trace.n_samples + 1) * trace.dt_s
    cum = np.concatenate(([0.0], np.cumsum(trace.samples) * trace.dt_s))
    edges = np.arange(n_new + 1) * dt_new_s
    integral = np.interp(np.clip(edges, 0.0, span), knots, cum)
    # A final cell reaching past the signal holds the last sample.
    integral += np.maximum(0.0, edges - span) * trace.samples[-1]
    return PowerTrace(
        dt_s=dt_new_s,
        samples=np.diff(integral) / dt_new_s,
        rack_max_w=trace.rack_max_w,
        source_label=trace.source_label,
        origin_time_s=trace.origin_time_s,
    )


# ---------------------------------------------------------------------------
# Synthetic workload generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic rack workload.

    burst_duration_s is a (low, high) range; each accelerator draws its
    compute-burst length once from that range.  jitter_frac spreads the
    per-accelerator cycle phases over that fraction of the iteration
    period and adds proportional power noise, so 0 means lockstep
    accelerators and values near 1 mean fully staggered ones.
    """

    n_accelerators: int
    iteration_period_s: float
    burst_duration_s: tuple[float, float]
    burst_power_w: float
    comm_power_w: float
    idle_power_w: float
    jitter_frac: float
    inference_rate_hz: float
    seed: int
    duration_s: float
    dt_s: float

    def __post_init__(self):
        if self.n_accelerators < 1:
            raise ValueError("n_accelerators must be at least 1")
        if not (self.iteration_period_s > 0.0):
            raise ValueError("iteration_period_s must be positive")
        lo, hi = self.burst_duration_s
        if not (0.0 < lo <= hi):
            raise ValueError(f"burst_duration_s range must satisfy 0 < low <= high, got {self.burst_duration_s}")
        if hi >= self.iteration_period_s:
            raise ValueError("burst_duration_s must leave room in the iteration period")
        if not (self.burst_power_w > 0.0):
            raise ValueError("burst_power_w must be positive")
        if not (0.0 <= self.idle_power_w <= self.comm_power_w <= self.burst_power_w):
            raise ValueError("power levels must satisfy 0 <= idle <= comm <= burst")
        if not (0.0 <= self.jitter_frac < 1.0):
            raise ValueError(f"jitter_frac must be in [0, 1), got {self.jitter_frac}")
        if self.inference_rate_hz < 0.0:
            raise ValueError("inference_rate_hz must be non-negative")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not (self.dt_s > 0.0):
            raise ValueError("dt_s must be positive")
        if self.duration_s < 10.0 * self.iteration_period_s:
            raise ValueError("duration_s must cover at least 10 iteration periods")
        object.__setattr__(self, "burst_duration_s", (float(lo), float(hi)))

    @property
    def rack_max_w(self) -> float:
        return self.n_accelerators * self.burst_power_w


def _synth_to_dict(config: SynthConfig) -> dict:
    d = asdict(config)
    d["burst_duration_s"] = list(config.burst_duration_s)
    return d


def write_synth_config(config: SynthConfig, dest) -> None:
    text = json.dumps(_synth_to_dict(config), indent=2) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_synth_config(source) -> SynthConfig:
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad synth config JSON: {exc}") from None
    if not isinstance(data, dict):
        raise TraceFormatError("synth config must be a JSON object")
    check_json_fields(SynthConfig, data, "synth config")
    data = dict(data)
    bd = data["burst_duration_s"]
    if not (isinstance(bd, (list, tuple)) and len(bd) == 2
            and all(map(is_number, bd))):
        raise ValueError("burst_duration_s must be a [low, high] pair of numbers")
    data["burst_duration_s"] = (float(bd[0]), float(bd[1]))
    return SynthConfig(**data)


# Shape constants of the generated workload.  The idle tail models the
# end-of-iteration stretch (optimizer step, checkpointing) where a card
# draws almost nothing; the edge times keep aggregate slews finite the
# way real power stages do.
_IDLE_TAIL_FRAC = 0.12      # fraction of the iteration period spent idle
_TRAIN_EDGE_S = 0.045       # transition edge of the training square wave
_INFER_EDGE_S = 0.008       # rise/fall edge of one inference burst
# Co-residing inference bursts flat-top the rack in a narrow band above
# its long-run design load (the reference fraction of nameplate).  A
# small population of long-and-low bursts rides along with the dominant
# short ones; overlapping bursts merge rather than stack.
_EVENT_REF_FRAC = 0.70               # nameplate fraction burst sizing anchors to
_INFER_LONG_FRAC = 0.075
_INFER_PEAK_FRAC = (0.712, 0.747)    # short-burst plateau, fraction of nameplate
_INFER_LONG_PEAK_FRAC = (0.711, 0.715)
_INFER_LONG_DUR_S = (0.105, 0.190)
_INFER_SHORT_ENERGY_J = (30.0, 12.0, 7.0, 90.0)  # mean, sd, clip lo, clip hi
_INFER_PLATEAU_S = (0.006, 0.095)    # short-burst plateau length bounds
_BASE_REF_QUANTILE = 0.85


def _cycle_tile(t: np.ndarray, dt: float, period: float) -> tuple[int, float]:
    """Samples per repeat of the cycle, and how far a sample's cycle
    position may drift from that of its copy in the first tile.

    The tile is period/dt samples when that is an integer within rounding,
    and the whole trace otherwise.  Sample k + j*tile sits j*(tile*dt -
    period) further into the cycle than sample k (the product rounds by
    less than a spacing of the period), and rounding k*dt and adding the
    phase moves each sample by less than a spacing of the last time stamp
    plus a period.
    """
    n = t.size
    tile = round(period / dt)
    if not (1 <= tile < n and abs(tile * dt - period) <= 4 * math.ulp(period)):
        tile = n
    drift = ((n - 1) // tile) * (abs(tile * dt - period) + math.ulp(period))
    return tile, drift + 4 * math.ulp(float(t[-1]) + period)


def _accelerator_profile(t: np.ndarray, tile: int, margin: float, period: float,
                         burst_s: float, burst_w: float, comm_w: float,
                         idle_w: float, phase: float) -> np.ndarray:
    """Piecewise-linear periodic cycle: burst, comm, idle, back to burst.

    On a flat segment np.interp returns the knot value exactly.  So the
    first tile is classified once: a sample more than margin inside a flat
    segment takes its constant in every tile, and only the others go
    through np.mod and np.interp, at each of their positions in the trace.
    """
    edge = min(_TRAIN_EDGE_S, 0.2 * burst_s, 0.04 * period)
    idle_s = _IDLE_TAIL_FRAC * period
    # Knots of one cycle in [0, period].
    xp = np.array([
        0.0,
        burst_s,
        burst_s + edge,
        period - idle_s - edge,
        period - idle_s,
        period - edge,
        period,
    ])
    fp = np.array([burst_w, burst_w, comm_w, comm_w, idle_w, idle_w, burst_w])
    u = np.mod(t[:tile] + phase, period)
    flat = np.zeros(tile)
    exact = np.ones(tile, dtype=bool)
    # A burst that leaves no room for the comm phase folds the knots back;
    # then every sample goes through np.interp.
    if (np.diff(xp) > 0.0).all():
        seg = np.searchsorted(xp, u, side="right") - 1
        exact = ((fp[seg] != fp[seg + 1]) | (u - xp[seg] < margin)
                 | (xp[seg + 1] - u < margin))
        flat[~exact] = fp[seg[~exact]]
    n = t.size
    reps = -(-n // tile)
    profile = np.tile(flat, reps)[:n]
    idx = (np.flatnonzero(exact) + tile * np.arange(reps)[:, None]).ravel()
    idx = idx[idx < n]
    profile[idx] = np.interp(np.mod(t[idx] + phase, period), xp, fp)
    return profile


def synthesize_trace(config: SynthConfig) -> PowerTrace:
    """Generate the rack trace for a synthetic workload.

    Deterministic for a given config: the same seed reproduces the trace
    sample for sample.
    """
    rng = np.random.default_rng(config.seed)
    n_steps = int(round(config.duration_s / config.dt_s))
    t = np.arange(n_steps) * config.dt_s
    agg = np.zeros(n_steps)

    period = config.iteration_period_s
    tile, margin = _cycle_tile(t, config.dt_s, period)
    lo, hi = config.burst_duration_s
    for _ in range(config.n_accelerators):
        burst_s = rng.uniform(lo, hi)
        phase = rng.uniform(0.0, config.jitter_frac * period) if config.jitter_frac > 0 else 0.0
        wobble = 1.0 + config.jitter_frac * rng.uniform(-0.06, 0.06)
        burst_w = min(config.burst_power_w, config.burst_power_w * wobble)
        comm_w = min(config.comm_power_w * wobble, burst_w)
        agg += _accelerator_profile(t, tile, margin, period, burst_s, burst_w,
                                    comm_w, config.idle_power_w, phase)

    # The typical crowd level of base fluctuations; edge-time estimates
    # below measure burst rises against it rather than against the mean.
    base_ref = float(np.quantile(agg, _BASE_REF_QUANTILE))
    ref_w = _EVENT_REF_FRAC * config.rack_max_w

    n_events = rng.poisson(config.inference_rate_hz * config.duration_s)
    starts = np.sort(rng.uniform(0.0, config.duration_s, size=n_events))
    edge = _INFER_EDGE_S
    for t0 in starts:
        if rng.uniform() < _INFER_LONG_FRAC:
            peak = rng.uniform(*_INFER_LONG_PEAK_FRAC) * config.rack_max_w
            dur = rng.uniform(*_INFER_LONG_DUR_S)
        else:
            peak = rng.uniform(*_INFER_PEAK_FRAC) * config.rack_max_w
            mean, sd, lo, hi = _INFER_SHORT_ENERGY_J
            energy = float(np.clip(rng.normal(mean, sd), lo, hi))
            excess = peak - ref_w
            # The rise and fall edges spend a little time above the
            # reference level too; budget for that so the plateau length
            # lands the burst's energy target.
            edge_j = edge * excess * excess / max(peak - base_ref, excess)
            dur = float(np.clip((energy - edge_j) / excess, *_INFER_PLATEAU_S))
        i0 = max(0, int(np.floor((t0 - edge) / config.dt_s)))
        i1 = min(n_steps, int(np.ceil((t0 + dur + edge) / config.dt_s)) + 1)
        if i0 >= i1:
            continue
        seg_t = t[i0:i1]
        xp = np.array([t0 - edge, t0, t0 + dur, t0 + dur + edge])
        fp = np.array([0.0, peak, peak, 0.0])
        np.maximum(agg[i0:i1], np.interp(seg_t, xp, fp), out=agg[i0:i1])

    np.minimum(agg, config.rack_max_w, out=agg)
    return PowerTrace(
        dt_s=config.dt_s,
        samples=agg,
        rack_max_w=config.rack_max_w,
        source_label=f"synthetic(seed={config.seed})",
        origin_time_s=0.0,
    )


# Shipped default workload: 200 accelerators at 700 W peak each, 5 ms
# sampling, 10 minutes.  The remaining knobs are calibrated so that the
# default threshold sweep sees mostly-short spikes with tens of joules
# above threshold and peaks a few percent of nameplate above it.
DEFAULT_SYNTH_CONFIG = SynthConfig(
    n_accelerators=200,
    iteration_period_s=1.0,
    burst_duration_s=(0.24, 0.44),
    burst_power_w=700.0,
    comm_power_w=295.0,
    idle_power_w=80.0,
    jitter_frac=0.99,
    inference_rate_hz=3.0,
    seed=20260816,
    duration_s=600.0,
    dt_s=0.005,
)
