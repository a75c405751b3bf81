"""Rack power-draw traces: container type, CSV round-trip, resampling, synthesis.

load_trace reads a trace through _textio.read_blocks, _textio.READ_SIZE
characters at a time as every reader does, and write_trace writes one
through _textio.write_columns_csv, so both take a path or a stream;
the synth config has the same pair, over _textio's JSON helpers.  Array
code reads every valid line of trace text.  A line walk runs only on a
block that array code refuses, and only names its first bad line: array
code keeps the same rules, so a block of valid lines never reaches the
walk, and the walk never has to hand back parsed values.

PowerTrace refuses a time axis that load_trace's gap rule would refuse
(one helper, _check_time_axis, serves both), and write_trace always
writes the '# dt_s=' line that a one-sample file needs: every trace that
constructs survives write_trace and load_trace, one sample included.

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

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ._textio import (NON_NEGATIVE, POSITIVE, check_fields, number_field,
                      not_utf8, plain_float, read_blocks, read_config,
                      read_package_data, write_columns_csv, write_config)

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
# declared or the median interval; wider wander means the file was
# decimated or spliced.
_GAP_RTOL = 0.005


def _check_time_axis(times: np.ndarray, dt: float | None) -> float:
    """load_trace's rule for time stamps, which PowerTrace also applies to
    its own: strictly increasing, and every gap within _GAP_RTOL of the
    interval dt, checked once the stamps are known to increase.  dt None
    means the median gap.  Returns the interval; raises CorruptTraceError
    naming the first data row that breaks the rule and, for a gap, the
    interval, declared or median.  A dt that is not positive and finite
    raises TraceFormatError, after the increasing check."""
    gaps = np.diff(times)
    # Written as "not good", so that a NaN gap breaks the rule too.
    bad = ~(gaps > 0.0)
    if bad.any():
        raise CorruptTraceError(f"timestamps not strictly increasing at data row "
                                f"{int(np.argmax(bad)) + 2}")
    if dt is None:
        dt, kind = float(np.median(gaps)), "median"
    elif dt > 0.0 and math.isfinite(dt):
        kind = "declared"
    else:
        raise TraceFormatError(f"dt_s metadata must be a positive float, got {dt}")
    gaps -= dt
    bad = ~(np.abs(gaps, out=gaps) <= _GAP_RTOL * dt)
    if bad.any():
        raise CorruptTraceError(
            f"irregular sampling at data row {int(np.argmax(bad)) + 2}: gap deviates "
            f"more than {_GAP_RTOL:.1%} from the {kind} interval {dt}"
        )
    return dt


@dataclass(frozen=True)
class PowerTrace:
    """Uniformly sampled rack power draw.

    samples are watts at instants origin_time_s + k * dt_s.  The array is
    frozen after construction; operations return new traces.
    """

    dt_s: float = field(metadata=POSITIVE)
    samples: np.ndarray
    rack_max_w: float = field(metadata=POSITIVE)
    source_label: str = ""
    origin_time_s: float = 0.0

    def __post_init__(self):
        check_fields(self)
        # write_trace puts the label on one '# label=' line, whose value
        # load_trace strips.
        label = self.source_label
        if (not isinstance(label, str) or label.splitlines() not in ([], [label])
                or label != label.strip()):
            raise ValueError("source_label must be text with no line break and no "
                             f"outer blanks, got {label!r}")
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if np.any(~np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if np.any(arr < 0.0):
            raise ValueError("samples must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        # write_trace writes times(), so they must keep load_trace's rule.
        # Each stamp is origin + k dt to within 2**-53 (|origin| + 2 n dt),
        # and each gap dt to within twice that plus 2**-53 dt; where
        # 2**-50 (|origin| + 3 n dt) is at most half the tolerance, every
        # gap keeps the rule and the stamps need not be built.
        o, dt, n = self.origin_time_s, self.dt_s, arr.size
        if not (abs(o) + 3.0 * n * dt) * 2.0 ** -50 <= 0.5 * _GAP_RTOL * dt:
            try:
                # The stamps are finite when the last one is: rounding is
                # monotone.
                if not math.isfinite(o + (n - 1) * dt):
                    raise CorruptTraceError("the last time stamp is not finite")
                _check_time_axis(self.times(), dt)
            except CorruptTraceError as exc:
                raise ValueError(f"origin_time_s {o!r} and dt_s {dt!r} give time "
                                 f"stamps that load_trace refuses: {exc}") from None

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples * self.dt_s

    def times(self) -> np.ndarray:
        """Sample instants in seconds."""
        times = np.arange(self.n_samples, dtype=float)
        times *= self.dt_s
        times += self.origin_time_s
        return times

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
            meta[key] = plain_float(value)
        except ValueError:
            raise TraceFormatError(f"line {lineno}: bad {key} value {value!r}") from None
    elif key == "label":
        meta[key] = value


def _raise_bad_line(lines: list, lineno: int, header_seen: bool) -> None:
    """Raise the error of the first line of lines, line lineno + 1 of the
    file on, that breaks a rule of trace text.  load_trace calls this only
    on a block that _parse_block refuses, and such a block holds a bad
    line: _parse_block keeps the same comment, blank-line and header
    rules, and a row that passes the checks here is _ROW_FILL bytes around
    one ',' (within a line float() strips only blanks and tabs, and the
    only letters it reads spell non-finite values), which _parse_rows
    reads."""
    for lineno, line in enumerate(lines, start=lineno + 1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            _read_comment({}, text, lineno)
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
            t = plain_float(parts[0])
            p = plain_float(parts[1])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric row {text!r}") from None
        if not (math.isfinite(t) and math.isfinite(p)):
            raise TraceFormatError(f"line {lineno}: non-finite row {text!r}")
        if p < 0.0:
            raise CorruptTraceError(f"line {lineno}: negative power {p}")


# The bytes a data row may hold besides its one ',' and its line end: the
# characters of a finite number, and the blanks float() strips.
_ROW_FILL = b"0123456789.eE+- \t"


def _parse_rows(text: str):
    """(t, p) of the data rows of text, each ended by '\n', from array code,
    or None where a row breaks a rule.

    With _ROW_FILL deleted, the bytes of text must be ',\n' once per row,
    so every row holds one ',' and keeps the number rule (ASCII, no '_').
    float() runs once per time token and once per distinct power token."""
    if not text.isascii():
        return None
    marks = text.encode("ascii").translate(None, _ROW_FILL)
    n = len(marks) // 2
    if marks != b",\n" * n:
        return None
    tokens = text.replace("\n", ",").split(",")
    tokens.pop()
    try:
        t = np.fromiter(map(float, tokens[0::2]), np.float64, n)
        distinct = dict.fromkeys(tokens[1::2])
        distinct = dict(zip(distinct, map(float, distinct)))
    except ValueError:
        return None
    p = np.fromiter(map(distinct.__getitem__, tokens[1::2]), np.float64, n)
    if not (np.isfinite(t).all() and np.isfinite(p).all()) or (p < 0.0).any():
        return None
    return t, p


def _parse_block(chunk: str, meta: dict, header_seen: bool):
    """(t, p, header_seen, line count) of the lines of chunk from array
    code, or None where a line breaks a rule.  Reads their metadata into
    meta.

    After the header, a block that holds no '\r' and no '#' goes to
    _parse_rows as it stands: if that takes it, it holds data rows alone
    and no line break but '\n', so its line count is its row count.  The
    two scans cost far less than an attempt thrown away.  Any other block
    is split into lines, counted as splitlines() counts them; its comments,
    blank lines, header and outer blanks are taken out, and its rows go to
    _parse_rows, joined."""
    if header_seen and "\r" not in chunk and "#" not in chunk:
        parsed = _parse_rows(chunk if chunk.endswith("\n") else chunk + "\n")
        if parsed is not None:
            return *parsed, True, parsed[0].size
    lines = chunk.splitlines()
    rows = list(map(str.strip, lines))
    if "#" in chunk:
        # A bad metadata value is reported by _raise_bad_line, which knows
        # its line number.
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
    parsed = _parse_rows("\n".join(rows) + "\n" if rows else "")
    return parsed and (*parsed, header_seen, len(lines))


def load_trace(source, rack_max_w: float | None = None) -> PowerTrace:
    """Parse a trace from a CSV byte/text stream or path.

    Expected layout: optional '#' comment lines carrying 'rack_max_w=<float>'
    and 'label=<text>' metadata, a 'timestamp_s,power_w' header, then one
    sample per row.  Sampling must be uniform; gaps are tolerated within
    0.5% of the median interval, or of the interval a 'dt_s=<float>' line
    declares.  A single sample fixes no interval, so it needs that line.
    rack_max_w may be supplied as an override when the file carries no
    metadata.  Every number keeps _textio's number rule, and a byte that
    is not UTF-8 is refused naming its line.

    The source is read in blocks of whole lines (_textio.read_blocks), so
    the call holds the parsed columns and one block, never the file's
    bytes or its whole text.  Array code reads every valid line
    (_parse_block); a block of data rows alone is parsed as it stands,
    without splitting it into lines.  A block that array code refuses
    holds a bad line, and the line walk (_raise_bad_line) only names the
    first such line: array code keeps the same rules, so the walk never
    has to hand back a row's values.
    """
    meta: dict = {}
    t_blocks: list = []
    p_blocks: list = []
    header_seen = False
    lineno = 0
    with closing(read_blocks(source)) as chunks:
        try:
            for chunk in chunks:
                block = _parse_block(chunk, meta, header_seen)
                if block is None:
                    _raise_bad_line(chunk.splitlines(), lineno, header_seen)
                t, p, header_seen, n_lines = block
                t_blocks.append(t)
                p_blocks.append(p)
                lineno += n_lines
        except UnicodeDecodeError as exc:
            raise TraceFormatError(not_utf8(exc, lineno)) from None

    if not header_seen:
        raise TraceFormatError("missing 'timestamp_s,power_w' header")
    # Each column's blocks are dropped once it is joined, so the joins
    # hold at most three columns of samples at once.
    t_arr = np.concatenate(t_blocks)
    del t_blocks
    powers = np.concatenate(p_blocks)
    del p_blocks
    if t_arr.size == 0:
        raise TraceFormatError("trace has no samples")
    if t_arr.size < 2 and "dt_s" not in meta:
        raise CorruptTraceError("trace needs at least two samples to fix the interval")

    # Prefer the declared interval: timestamps rebuilt as origin + k*dt
    # carry float noise that a span-based estimate inherits.
    dt = _check_time_axis(t_arr, meta.get("dt_s"))
    rack = rack_max_w if rack_max_w is not None else meta.get("rack_max_w")
    if rack is None:
        raise TraceFormatError("rack_max_w missing: not in file metadata and no override given")

    return PowerTrace(
        dt_s=dt,
        samples=powers,
        rack_max_w=rack,
        source_label=meta.get("label", ""),
        origin_time_s=t_arr[0],
    )


def write_trace(trace: PowerTrace, dest) -> None:
    """Write a trace in the CSV layout load_trace reads back.

    Every float is written as its repr, so a write/load round trip
    preserves every sample bit for bit.  Where the time stamps allow it,
    _time_text builds their text from integers instead of calling repr.
    """
    header = (
        f"# rack_max_w={trace.rack_max_w!r}",
        f"# dt_s={trace.dt_s!r}",
        f"# label={trace.source_label}",
        "timestamp_s,power_w",
    )
    text = _time_text(trace.origin_time_s, trace.dt_s)
    write_columns_csv(dest, header, (trace.times(), trace.samples),
                      {0: text} if text else None)


# Decimals of at most 15 significant digits name one double each.
_EXACT_DECIMAL = 10 ** 15


def _decimal(x: float):
    """(m, d) with repr(x) the text of m / 10**d, if repr(x) is
    positional; None otherwise."""
    text = repr(x)
    if "." not in text or "e" in text:
        return None
    return int(text.replace(".", "")), len(text) - text.index(".") - 1


def _decimal_chars(m: np.ndarray, places: int):
    """(chars, keep): a row of chars for each m / 10**places, holding its
    sign, integer digits, '.', fraction digits and a '\n'.  chars[keep]
    drops the sign of m >= 0 and leading and trailing zeros, so it is
    their positional texts, one a line."""
    whole, frac = np.divmod(np.abs(m), 10 ** places)
    width = len(str(int(whole.max())))
    chars = np.empty((m.size, width + places + 3), np.uint8)
    keep = np.ones(chars.shape, bool)
    chars[:, 0] = ord("-")
    keep[:, 0] = m < 0
    for col in range(width, 0, -1):
        q = whole // 10
        chars[:, col] = whole - q * 10 + ord("0")
        if col > 1:
            keep[:, col - 1] = q > 0
        whole = q
    chars[:, width + 1] = ord(".")
    tail = np.zeros(m.size, bool)
    for col in range(width + places + 1, width + 1, -1):
        q = frac // 10
        digit = frac - q * 10
        chars[:, col] = digit + ord("0")
        tail |= digit != 0
        if col > width + 2:
            keep[:, col] = tail
        frac = q
    chars[:, -1] = ord("\n")
    return chars, keep


def _time_text(origin: float, dt: float):
    """A function text(block, start) that returns the cell source of block,
    the time stamps of rows start, start + 1, ... of a trace: a function
    cells(a, b) that returns repr of each stamp of block[a:b].  None where
    repr(origin) or repr(dt) is not positional.

    With D the larger count of their decimals, row k is the decimal
    m / 10**D, m = origin*10**D + k*dt*10**D.  Where m / 10**D, an IEEE
    division of exact operands and so the correctly rounded parse of that
    decimal, has the bits of the time stamp, |m| < 10**15, and the value
    is 0 or at least 1e-4, repr's text is m's: no other decimal of at
    most 15 digits parses to that double, and repr writes the shortest one
    that does, positionally below 1e16.  The texts of those rows are built
    as one byte block from m's digits (_decimal_chars); every other row
    goes through repr.
    """
    o, s = _decimal(origin), _decimal(dt)
    if o is None or s is None:
        return None
    places = max(o[1], s[1])
    first = o[0] * 10 ** (places - o[1])
    step = s[0] * 10 ** (places - s[1])
    # Past 18 places every nonzero time stamp is below 1e-4.
    if places > 18 or not (abs(first) < _EXACT_DECIMAL and step < _EXACT_DECIMAL):
        return None
    scale = 10 ** places
    # The last row whose m is below 10**15; clipping k to it keeps m in int64.
    k_hi = (_EXACT_DECIMAL - 1 - first) // step
    # Nonzero values below 1e-4 are written with an exponent.
    tiny = 10 ** max(places - 4, 0)

    def text(block: np.ndarray, start: int):
        k = np.arange(start, start + block.size)
        m = first + np.minimum(k, k_hi) * step
        ok = ((k <= k_hi) & ((np.abs(m) >= tiny) | (m == 0))
              & ((m / float(scale)).view(np.int64) == block.view(np.int64)))
        chars, keep = _decimal_chars(m, places)
        keep[:, :-1] &= ok[:, None]
        texts = chars[keep].tobytes().decode("ascii").split("\n")
        texts.pop()
        bad = np.flatnonzero(~ok)
        for i, value in zip(bad.tolist(), block[bad].tolist()):
            texts[i] = repr(value)
        return lambda a, b: texts[a:b]

    return text


def resample(trace: PowerTrace, dt_new_s: float) -> PowerTrace:
    """Zero-order-hold resample onto a new uniform step.

    The input is treated as the held staircase signal it represents; each
    output sample is that signal's exact mean over its new hold cell, so
    energy is conserved except where the covered span shifts by a fraction
    of a cell at the trace end.  Point-picking instead of averaging would
    alias decimated traces and lose unbounded energy.

    dt_new_s must be a positive finite number that leaves a finite number
    of new samples; ValueError naming it otherwise.
    """
    dt_new_s = number_field("dt_new_s", dt_new_s, sign="positive")
    if dt_new_s == trace.dt_s:
        return trace
    span = trace.n_samples * trace.dt_s
    cells = span / dt_new_s
    if not math.isfinite(cells):
        raise ValueError(f"dt_new_s must leave a finite number of samples in the "
                         f"trace's {span!r} s, got {dt_new_s!r}")
    n_new = max(1, int(round(cells)))
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

    n_accelerators: int = field(metadata=POSITIVE)
    iteration_period_s: float = field(metadata=POSITIVE)
    burst_duration_s: tuple[float, float]
    burst_power_w: float = field(metadata=POSITIVE)
    comm_power_w: float
    idle_power_w: float
    jitter_frac: float
    inference_rate_hz: float = field(metadata=NON_NEGATIVE)
    seed: int = field(metadata=NON_NEGATIVE)
    duration_s: float
    dt_s: float = field(metadata=POSITIVE)

    def __post_init__(self):
        check_fields(self)
        pair = self.burst_duration_s
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValueError(f"burst_duration_s must be a (low, high) pair, got {pair!r}")
        lo, hi = (number_field("burst_duration_s", v) for v in pair)
        object.__setattr__(self, "burst_duration_s", (lo, hi))
        if not (0.0 < lo <= hi):
            raise ValueError(f"burst_duration_s range must satisfy 0 < low <= high, got {self.burst_duration_s}")
        if hi >= self.iteration_period_s:
            raise ValueError("burst_duration_s must leave room in the iteration period")
        if not (0.0 <= self.idle_power_w <= self.comm_power_w <= self.burst_power_w):
            raise ValueError("power levels must satisfy 0 <= idle_power_w <= "
                             "comm_power_w <= burst_power_w")
        if not (0.0 <= self.jitter_frac < 1.0):
            raise ValueError(f"jitter_frac must be in [0, 1), got {self.jitter_frac}")
        if self.duration_s < 10.0 * self.iteration_period_s:
            raise ValueError("duration_s must cover at least 10 iteration periods")
        # synthesize_trace's round(duration_s / dt_s) samples; the quotient
        # may overflow to inf, which round() refuses.
        if self.duration_s / self.dt_s < 1.5:
            raise ValueError(f"dt_s ({self.dt_s!r}) must leave at least two samples "
                             f"in duration_s ({self.duration_s!r})")

    @property
    def rack_max_w(self) -> float:
        return self.n_accelerators * self.burst_power_w


def write_synth_config(config: SynthConfig, dest) -> None:
    """The fields in declaration order, unsorted: the synth manifest's
    config digest pins these bytes."""
    write_config(config, dest, sort_keys=False)


def load_synth_config(source) -> SynthConfig:
    return read_config(SynthConfig, source, "synth config")


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


def _mod_exact(x: np.ndarray, period: float) -> np.ndarray:
    """np.mod(x, period) bit for bit, for period > 0, in about a quarter
    of its time where x >= 0.

    k = floor(x/period) is the true quotient or one more, since rounding
    is monotone.  With b the bit length of max(k) + 1, period splits into
    p_hi, its top 53 - b significand bits, and the exact rest p_lo; while
    b <= 26, k*p_hi and k*p_lo fit in 53 bits.  x - k*p_hi is below
    3*period and a multiple of period's spacing (of twice that above
    2*period, where x is too), so it is exact, and so is the remainder
    x - k*period that taking k*p_lo off leaves.  Where k was one too many
    that remainder is negative, and adding period back is exact too: the
    result is the true remainder, which np.mod also returns.  Larger
    quotients and negative x go through np.mod.
    """
    if not (x.size and x.min() >= 0.0):
        return np.mod(x, period)
    # Division and floor are monotone, so max(k) is that of max(x).
    top = float(x.max()) / period
    if not top < 2**26 - 1:
        return np.mod(x, period)
    k = np.floor(x / period)
    b = (math.floor(top) + 1).bit_length()
    p_hi = float((np.float64(period).view(np.int64) & ~((1 << b) - 1)).view(np.float64))
    r = (x - k * p_hi) - k * (period - p_hi)
    r[r < 0.0] += period
    return r


def _accelerator_profile(t: np.ndarray, tile: int, margin: float, period: float,
                         burst_s: float, burst_w: float, comm_w: float,
                         idle_w: float, phase: float) -> tuple:
    """Piecewise-linear periodic cycle: burst, comm, idle, back to burst.

    Returns (flat, idx, values): the profile is flat repeated along t,
    except at the positions idx, where it is values and flat is 0.0.
    _add_profile adds it to an array in place.

    On a flat segment np.interp returns the knot value exactly.  So the
    first tile is classified once: a sample more than margin inside a flat
    segment takes its constant in every tile, and only the others go
    through _mod_exact and np.interp, at each of their positions in the
    trace.
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
    u = _mod_exact(t[:tile] + phase, period)
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
    idx = (np.flatnonzero(exact) + tile * np.arange(-(-n // tile))[:, None]).ravel()
    idx = idx[idx < n]
    return flat, idx, np.interp(_mod_exact(t[idx] + phase, period), xp, fp)


def _add_profile(agg: np.ndarray, flat: np.ndarray, idx: np.ndarray,
                 values: np.ndarray) -> None:
    """agg += the profile _accelerator_profile describes, in place: flat
    through a (reps, tile) view of agg, then values at idx.  flat is 0.0
    there and agg is never -0.0, so agg + 0.0 + v has the bits of agg + v.
    """
    tile = flat.size
    whole = agg.size - agg.size % tile
    rows = agg[:whole].reshape(-1, tile)
    rows += flat
    agg[whole:] += flat[:agg.size - whole]
    agg[idx] += values


def synthesize_trace(config: SynthConfig) -> PowerTrace:
    """Generate the rack trace for a synthetic workload.

    Deterministic for a given config: the same seed reproduces the trace
    sample for sample.  Each accelerator's profile is computed over one
    tile of samples plus its sloped-edge samples (_accelerator_profile)
    and added to the rack sum in place (_add_profile), so no full-length
    profile is built.
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
        _add_profile(agg, *_accelerator_profile(t, tile, margin, period, burst_s,
                                                burst_w, comm_w, config.idle_power_w,
                                                phase))

    # The typical crowd level of base fluctuations; edge-time estimates
    # below measure burst rises against it rather than against the mean.
    base_ref = float(np.quantile(agg, _BASE_REF_QUANTILE))
    ref_w = _EVENT_REF_FRAC * config.rack_max_w

    n_events = rng.poisson(config.inference_rate_hz * config.duration_s)
    starts = np.sort(rng.uniform(0.0, config.duration_s, size=n_events))
    edge = _INFER_EDGE_S
    plateau_lo, plateau_hi = _INFER_PLATEAU_S
    for t0 in starts.tolist():
        if rng.uniform() < _INFER_LONG_FRAC:
            peak = rng.uniform(*_INFER_LONG_PEAK_FRAC) * config.rack_max_w
            dur = rng.uniform(*_INFER_LONG_DUR_S)
        else:
            peak = rng.uniform(*_INFER_PEAK_FRAC) * config.rack_max_w
            mean, sd, lo, hi = _INFER_SHORT_ENERGY_J
            energy = min(max(rng.normal(mean, sd), lo), hi)
            excess = peak - ref_w
            # The rise and fall edges spend a little time above the
            # reference level too; budget for that so the plateau length
            # lands the burst's energy target.
            edge_j = edge * excess * excess / max(peak - base_ref, excess)
            dur = min(max((energy - edge_j) / excess, plateau_lo), plateau_hi)
        i0 = max(0, math.floor((t0 - edge) / config.dt_s))
        i1 = min(n_steps, math.ceil((t0 + dur + edge) / config.dt_s) + 1)
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


# Shipped default workload, the packaged data/default_synth.json that
# `synth --config default` and the benchmark run: 200 accelerators at
# 700 W peak each, 5 ms sampling, 10 minutes.  The remaining knobs are
# calibrated so that the default threshold sweep sees mostly-short spikes
# with tens of joules above threshold and peaks a few percent of nameplate
# above it.
DEFAULT_SYNTH_CONFIG = read_package_data("default_synth.json", load_synth_config)
