"""Trace loading, validation, resampling, and synthesis.

Covers:
 1. PowerTrace construction and invariant enforcement
 2. load_trace on well-formed and malformed CSV (row index in errors)
 3. write_trace -> load_trace round trip, including dt and metadata
 4. resample hand examples, identity, and the energy-conservation bound
 5. synthesize_trace determinism, bounds, config validation, and
    tiled accelerator profiles equal to the full-length oracle
 6. SynthConfig JSON round trip and field checking
"""

import io
import math

import numpy as np
import pytest

import powershave as ps
from powershave import CorruptTraceError, TraceFormatError
from powershave import trace as trace_mod

from conftest import make_trace


# ---------------------------------------------------------------------------
# 1. PowerTrace construction
# ---------------------------------------------------------------------------

def test_trace_basic_fields():
    tr = make_trace([300.0, 400.0, 300.0], dt=0.01, rack_max=40000.0)
    assert tr.dt_s == 0.01
    assert tr.rack_max_w == 40000.0
    assert tr.samples.shape == (3,)
    assert tr.duration_s == pytest.approx(0.03)


def test_trace_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_trace([], dt=0.01, rack_max=1000.0)
    with pytest.raises(ValueError):
        make_trace([100.0, -5.0], dt=0.01, rack_max=1000.0)
    with pytest.raises(ValueError):
        ps.PowerTrace(dt_s=0.0, samples=np.array([1.0]), rack_max_w=10.0)
    with pytest.raises(ValueError):
        ps.PowerTrace(dt_s=math.inf, samples=np.array([1.0]), rack_max_w=10.0)
    with pytest.raises(ValueError):
        ps.PowerTrace(dt_s=0.01, samples=np.array([1.0]), rack_max_w=0.0)


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\x85b", "a\u2028b", "a\n", "\r\n"])
def test_trace_refuses_label_with_line_break(label):
    # write_trace puts the label on one '# label=' line; a line break in it
    # would end that line and turn the rest into a bad header.
    with pytest.raises(ValueError, match="source_label"):
        make_trace([1.0, 2.0], label=label)


@pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
def test_trace_refuses_non_finite_origin(origin):
    # write_trace would write rows such as 'nan,1.0', which load_trace
    # refuses.
    with pytest.raises(ValueError, match="origin_time_s"):
        ps.PowerTrace(dt_s=0.5, samples=np.array([1.0, 2.0]), rack_max_w=10.0,
                      origin_time_s=origin)


@pytest.mark.parametrize("label", [" a ", "a ", "\ta", "a\u3000", "\xa0a", "a\x1f"])
def test_trace_refuses_label_with_outer_blanks(label):
    # load_trace strips the '# label=' value, so these would load back
    # changed.
    with pytest.raises(ValueError, match="source_label"):
        make_trace([1.0, 2.0], label=label)


@pytest.mark.parametrize("label", ["", "a\tb", "rack_7 Zürich ⚡ ١٢", "x=y, #z",
                                   "a b", "=", "# label=x", "a\x1fb"])
def test_label_write_load_round_trip(label):
    tr = make_trace([1.0, 2.0], label=label)
    buf = io.StringIO()
    ps.write_trace(tr, buf)
    assert ps.load_trace(io.StringIO(buf.getvalue())).source_label == label


# ---------------------------------------------------------------------------
# 2. load_trace
# ---------------------------------------------------------------------------

def test_load_three_row_csv():
    # 0.00,300 / 0.01,400 / 0.02,300 with rack_max 40000 -> dt 0.01
    text = "# rack_max_w=40000\ntimestamp_s,power_w\n0.00,300\n0.01,400\n0.02,300\n"
    tr = ps.load_trace(io.StringIO(text))
    assert tr.dt_s == pytest.approx(0.01)
    assert tr.rack_max_w == 40000.0
    np.testing.assert_allclose(tr.samples, [300.0, 400.0, 300.0])


def test_load_negative_power_is_corrupt():
    text = "# rack_max_w=1000\ntimestamp_s,power_w\n0.00,300\n0.01,-5\n0.02,300\n"
    with pytest.raises(CorruptTraceError):
        ps.load_trace(io.StringIO(text))


def test_load_non_monotone_timestamps():
    text = "# rack_max_w=1000\ntimestamp_s,power_w\n0.00,300\n0.02,310\n0.01,305\n"
    with pytest.raises(CorruptTraceError):
        ps.load_trace(io.StringIO(text))


def test_load_malformed_row_reports_index():
    text = "# rack_max_w=1000\ntimestamp_s,power_w\n0.00,300\n0.01,banana\n"
    with pytest.raises(TraceFormatError) as err:
        ps.load_trace(io.StringIO(text))
    # The offending row sits on file line 4.
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("meta", ["rack_max_w=1_00", "dt_s=0.0_1"])
def test_load_metadata_number_rule_reports_line(meta):
    text = f"# label=x\n# {meta}\ntimestamp_s,power_w\n0.00,300\n0.01,310\n"
    key, _, value = meta.partition("=")
    with pytest.raises(TraceFormatError) as err:
        ps.load_trace(io.StringIO(text))
    assert str(err.value) == f"line 2: bad {key} value {value!r}"


def test_load_label_holds_any_text(monkeypatch):
    # The number rule covers the number tokens only: a label with '_' and
    # non-ASCII text loads, and on the array path alone.
    label = "rack_7 Zürich ⚡ ١٢"
    text = f"# rack_max_w=1000\n# label={label}\ntimestamp_s,power_w\n0.00,300\n0.01,310\n"
    monkeypatch.setattr(trace_mod, "_parse_lines", None)
    tr = ps.load_trace(io.StringIO(text))
    assert tr.source_label == label
    assert tr.samples.tolist() == [300.0, 310.0]


def test_load_empty_body():
    text = "# rack_max_w=1000\ntimestamp_s,power_w\n"
    with pytest.raises(ValueError):
        ps.load_trace(io.StringIO(text))


def test_load_requires_rack_max_from_somewhere():
    text = "timestamp_s,power_w\n0.00,300\n0.01,310\n"
    with pytest.raises(ValueError):
        ps.load_trace(io.StringIO(text))
    tr = ps.load_trace(io.StringIO(text), rack_max_w=2000.0)
    assert tr.rack_max_w == 2000.0


def test_load_rejects_irregular_grid():
    # Gap of 0.02 inside a 0.01 grid is far beyond the 0.5% tolerance.
    text = "# rack_max_w=1000\ntimestamp_s,power_w\n0.00,1\n0.01,2\n0.03,3\n0.04,4\n"
    with pytest.raises(CorruptTraceError):
        ps.load_trace(io.StringIO(text))


def oracle_plain_float(text: str) -> float:
    """float() under the number rule of every text input: ASCII text with
    no '_'."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain number: {text!r}")
    return float(text)


def oracle_load_trace(raw: str, rack_max_w=None):
    """The per-line trace parser load_trace replaced, kept as the behaviour
    reference, with its numbers read under the number rule."""
    meta_rack = None
    meta_dt = None
    label = ""
    times = []
    powers = []
    header_seen = False

    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "rack_max_w":
                    try:
                        meta_rack = oracle_plain_float(value)
                    except ValueError:
                        raise TraceFormatError(
                            f"line {lineno}: bad rack_max_w value {value!r}"
                        ) from None
                elif key == "dt_s":
                    try:
                        meta_dt = oracle_plain_float(value)
                    except ValueError:
                        raise TraceFormatError(
                            f"line {lineno}: bad dt_s value {value!r}"
                        ) from None
                elif key == "label":
                    label = value
            continue
        if not header_seen:
            cols = [c.strip() for c in text.split(",")]
            if cols != ["timestamp_s", "power_w"]:
                raise TraceFormatError(
                    f"line {lineno}: expected header 'timestamp_s,power_w', got {text!r}"
                )
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            t = oracle_plain_float(parts[0])
            p = oracle_plain_float(parts[1])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric row {text!r}") from None
        if not (math.isfinite(t) and math.isfinite(p)):
            raise TraceFormatError(f"line {lineno}: non-finite row {text!r}")
        if p < 0.0:
            raise CorruptTraceError(f"line {lineno}: negative power {p}")
        times.append(t)
        powers.append(p)

    if not header_seen:
        raise TraceFormatError("missing 'timestamp_s,power_w' header")
    if len(times) == 0:
        raise TraceFormatError("trace has no samples")
    if len(times) < 2:
        raise CorruptTraceError("trace needs at least two samples to fix the interval")

    t_arr = np.asarray(times)
    gaps = np.diff(t_arr)
    if np.any(gaps <= 0.0):
        bad = int(np.argmax(gaps <= 0.0)) + 2
        raise CorruptTraceError(f"timestamps not strictly increasing at data row {bad}")
    if meta_dt is not None:
        if not (meta_dt > 0.0 and math.isfinite(meta_dt)):
            raise TraceFormatError(f"dt_s metadata must be a positive float, got {meta_dt}")
        dt = meta_dt
    else:
        dt = float(np.median(gaps))
    if np.any(np.abs(gaps - dt) > 0.005 * dt):
        bad = int(np.argmax(np.abs(gaps - dt) > 0.005 * dt)) + 2
        raise CorruptTraceError(
            f"irregular sampling at data row {bad}: gap deviates more than "
            f"{0.005:.1%} from the median interval {dt}"
        )

    rack = rack_max_w if rack_max_w is not None else meta_rack
    if rack is None:
        raise TraceFormatError("rack_max_w missing: not in file metadata and no override given")

    return ps.PowerTrace(dt_s=dt, samples=np.asarray(powers), rack_max_w=float(rack),
                         source_label=label, origin_time_s=float(times[0]))


def _number_token(rng, value: float) -> str:
    """A plain spelling of value that float() reads back exactly."""
    text = repr(value)
    if rng.random() < 0.05 and value >= 0.0:
        text = "+" + text
    if rng.random() < 0.1:
        text = rng.choice([" ", "\t", "  "]) + text + rng.choice(["", " ", "\t"])
    return text


_FAULTS = ("fields1", "fields3", "non_numeric", "non_finite", "negative",
           "gap", "backwards", "bad_meta", "not_plain")


def _generated_trace_text(rng) -> str:
    """A small trace file: valid, with odd but legal spellings, or with one
    or two faults placed at random rows."""
    dt = float(rng.choice([0.005, 0.01, 1.0 / 3000.0]))
    origin = float(rng.choice([0.0, 12.5, -3.0]))
    comments = ["# label=gen trace", "#note without equals", "  # label = spaced ",
                "## rack_max_w = 6000", "# unknown=1", f"# dt_s={dt!r}"]
    lines = []
    if rng.random() < 0.9:
        lines.append("# rack_max_w=5000.0")
    for _ in range(int(rng.integers(0, 3))):
        lines.append(str(rng.choice(comments + ["", "  "])))
    roll = rng.random()
    if roll < 0.93:
        lines.append(str(rng.choice(["timestamp_s,power_w", " timestamp_s , power_w "])))
    elif roll < 0.97:
        lines.append(str(rng.choice(["timestamp_s,power_w,extra", "time,power"])))
    n_rows = int(rng.integers(0, 40))
    n_faults = int(rng.choice([0, 1, 2], p=[0.5, 0.35, 0.15]))
    faults = dict(zip(rng.integers(0, max(n_rows, 1), size=n_faults).tolist(),
                      rng.choice(_FAULTS, size=n_faults).tolist()))
    skipped = 0
    for k in range(n_rows):
        if rng.random() < 0.08:
            lines.append(str(rng.choice(comments + ["", "   ", "\t"])))
        fault = faults.get(k)
        if fault == "gap":
            skipped += 3
        t = origin + (k + skipped) * dt
        if fault == "backwards":
            t -= 5.0 * dt
        p = float(rng.choice([0.0, -0.0, 250.0, 1234.5, 5e-324, 1e-5, 3000.0]))
        fields = [_number_token(rng, t), _number_token(rng, p)]
        if fault == "fields1":
            fields = fields[:1]
        elif fault == "fields3":
            fields.append("1.0")
        elif fault == "non_numeric":
            fields[int(rng.integers(0, 2))] = str(rng.choice(["t0", "1.0.0", "", "0x10"]))
        elif fault == "non_finite":
            fields[int(rng.integers(0, 2))] = str(rng.choice(["nan", "inf", "-inf", "Infinity"]))
        elif fault == "negative":
            fields[1] = "-" + repr(float(rng.choice([1.0, 250.0, 1e-5])))
        elif fault == "not_plain":
            # Numbers float() reads but the number rule refuses.  The
            # no-break space leads the power field, where no line strip
            # removes it.
            spelling = int(rng.integers(0, 3))
            if spelling == 2:
                fields[1] = "\xa0" + fields[1]
            else:
                fields[int(rng.integers(0, 2))] = ("1_0", "\u0661\u0662")[spelling]
        elif fault == "bad_meta":
            lines.append(str(rng.choice(["# rack_max_w=lots", "# dt_s=", "# dt_s=-1"])))
        lines.append(",".join(fields))
    ending = str(rng.choice(["\n", "\r\n", "\r"], p=[0.6, 0.3, 0.1]))
    text = ending.join(lines)
    if rng.random() < 0.8:
        text += ending
    return text


@pytest.mark.parametrize("block_chars", [None, 16, 100])
def test_load_trace_matches_per_line_oracle(monkeypatch, block_chars):
    """load_trace accepts what the per-line parser accepts, with the same
    bits, and rejects the rest with the same exception and message.  Small
    parse blocks move block edges onto comments, blanks and the header."""
    if block_chars is not None:
        monkeypatch.setattr(trace_mod, "_PARSE_BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(2024 + (block_chars or 0))
    accepted = rejected = 0
    for case in range(300):
        text = _generated_trace_text(rng)
        override = 4000.0 if case % 7 == 0 else None
        try:
            want = oracle_load_trace(text, rack_max_w=override)
        except ValueError as exc:
            rejected += 1
            with pytest.raises(type(exc)) as err:
                ps.load_trace(io.StringIO(text), rack_max_w=override)
            assert str(err.value) == str(exc), text
            continue
        accepted += 1
        source = io.BytesIO(text.encode("utf-8")) if case % 2 else io.StringIO(text)
        # A valid file never needs the per-line parser.
        with monkeypatch.context() as patched:
            patched.setattr(trace_mod, "_parse_lines", None)
            got = ps.load_trace(source, rack_max_w=override)
        assert got.samples.tobytes() == want.samples.tobytes(), text
        assert got.dt_s == want.dt_s
        assert got.origin_time_s == want.origin_time_s
        assert got.source_label == want.source_label
        assert got.rack_max_w == want.rack_max_w
    # Both verdicts are well represented.
    assert accepted >= 80 and rejected >= 80, (accepted, rejected)


def _data_rows(n: int, start: int = 0) -> list:
    """Data rows k = start .. start + n - 1 of a 5 ms trace, one a line."""
    return [f"{k * 0.005!r},{300.0 + k % 7!r}" for k in range(start, start + n)]


def _joined(lines, endings=None) -> str:
    """lines joined, each ended by endings[i] ('\n' where not given)."""
    endings = endings or {}
    return "".join(line + endings.get(i, "\n") for i, line in enumerate(lines))


_HEAD = ["# rack_max_w=1000.0", "timestamp_s,power_w"]


@pytest.mark.parametrize("blank, last_ending", [(True, "\n"), (False, ""), (True, "")])
def test_load_data_blocks_on_array_path(monkeypatch, blank, last_ending):
    # Blocks of data rows alone after the header, one with a blank line,
    # the last with or without a line end, all read by array code.
    lines = _HEAD + _data_rows(60)
    if blank:
        lines.insert(40, "")
    text = _joined(lines, {len(lines) - 1: last_ending})
    want = oracle_load_trace(text)
    monkeypatch.setattr(trace_mod, "_PARSE_BLOCK_CHARS", 64)
    monkeypatch.setattr(trace_mod, "_parse_lines", None)
    got = ps.load_trace(io.StringIO(text))
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.origin_time_s == want.origin_time_s and got.dt_s == want.dt_s


@pytest.mark.parametrize("block_chars", [None, 64])
@pytest.mark.parametrize("pair", [("0.1", "0.105,1,2"), ("0.1,1,2", "0.105")])
def test_load_refuses_missing_comma_beside_extra_comma(monkeypatch, block_chars, pair):
    # The two rows hold as many commas as line ends between them; each
    # row must hold one.
    lines = _HEAD + _data_rows(20) + list(pair) + _data_rows(20, start=22)
    text = _joined(lines)
    assert trace_mod._parse_rows("\n".join(pair) + "\n") is None
    if block_chars is not None:
        monkeypatch.setattr(trace_mod, "_PARSE_BLOCK_CHARS", block_chars)
    with pytest.raises(TraceFormatError) as err:
        ps.load_trace(io.StringIO(text))
    assert str(err.value) == f"line 23: expected 2 fields, got {pair[0].count(',') + 1}"


@pytest.mark.parametrize("block_chars", [None, 64, 100])
def test_load_names_bad_row_after_crlf_and_comment_blocks(monkeypatch, block_chars):
    # Prepared blocks (CRLF and CR line ends, a comment, a blank line)
    # count lines as splitlines() does, and data-only blocks by their rows,
    # so a bad row further on is named at its own line.
    lines = _HEAD + _data_rows(100)
    endings = {i: "\r\n" for i in range(10, 30)} | {i: "\r" for i in range(35, 38)}
    lines[45:45] = ["# note=1", ""]
    bad = 90
    lines[bad] = "0.44,x"
    text = _joined(lines, endings)
    with pytest.raises(TraceFormatError) as want:
        oracle_load_trace(text)
    assert str(want.value) == f"line {bad + 1}: non-numeric row '0.44,x'"
    if block_chars is not None:
        monkeypatch.setattr(trace_mod, "_PARSE_BLOCK_CHARS", block_chars)
    with pytest.raises(TraceFormatError) as err:
        ps.load_trace(io.StringIO(text))
    assert str(err.value) == str(want.value)


@pytest.mark.parametrize("block_chars", [None, 8])
@pytest.mark.parametrize("row, message", [
    # float() refuses '1\x1f', though str.strip() and numpy's text readers
    # take '\x1f' for a blank.
    ("1\x1f,2", "non-numeric row '1\\x1f,2'"),
    # Tokens of number characters alone that float() reads as infinite.
    ("1e999,2", "non-finite row '1e999,2'"),
    ("1,1e999", "non-finite row '1,1e999'"),
    ("1,-0.5", "negative power -0.5"),
])
def test_load_refuses_row_as_oracle_does(monkeypatch, block_chars, row, message):
    text = f"# rack_max_w=1000\ntimestamp_s,power_w\n0,1\n{row}\n2,3\n"
    with pytest.raises(ValueError) as want:
        oracle_load_trace(text)
    if block_chars is not None:
        monkeypatch.setattr(trace_mod, "_PARSE_BLOCK_CHARS", block_chars)
    with pytest.raises(want.type) as err:
        ps.load_trace(io.StringIO(text))
    assert str(err.value) == str(want.value) == f"line 4: {message}"


# ---------------------------------------------------------------------------
# 3. Round trip
# ---------------------------------------------------------------------------

def test_write_load_round_trip_exact():
    rng = np.random.default_rng(7)
    tr = make_trace(rng.uniform(0.0, 900.0, size=501), dt=0.005,
                    rack_max=1200.0, label="round trip")
    buf = io.StringIO()
    ps.write_trace(tr, buf)
    back = ps.load_trace(io.StringIO(buf.getvalue()))
    assert back.dt_s == tr.dt_s
    assert back.rack_max_w == tr.rack_max_w
    assert back.source_label == tr.source_label
    np.testing.assert_array_equal(back.samples, tr.samples)


def test_round_trip_preserves_awkward_dt():
    # 1/3 ms is not exactly representable; the dt metadata must carry it.
    tr = make_trace([10.0, 20.0, 30.0], dt=1.0 / 3000.0, rack_max=100.0)
    buf = io.StringIO()
    ps.write_trace(tr, buf)
    back = ps.load_trace(io.StringIO(buf.getvalue()))
    assert back.dt_s == tr.dt_s


def test_round_trip_many_random_traces():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        dt = float(rng.uniform(0.001, 0.1))
        samples = rng.uniform(0.0, 5000.0, size=n)
        tr = make_trace(samples, dt=dt, rack_max=6000.0)
        buf = io.StringIO()
        ps.write_trace(tr, buf)
        back = ps.load_trace(io.StringIO(buf.getvalue()))
        assert back.dt_s == tr.dt_s
        np.testing.assert_array_equal(back.samples, tr.samples)
    print("round-trip identity held on 25 random traces")


def naive_trace_csv(tr):
    """write_trace's text, one repr per cell and origin + k * dt per row."""
    lines = [f"# rack_max_w={tr.rack_max_w!r}", f"# dt_s={tr.dt_s!r}",
             f"# label={tr.source_label}", "timestamp_s,power_w"]
    for k, p in enumerate(tr.samples.tolist()):
        lines.append(f"{tr.origin_time_s + k * tr.dt_s!r},{p!r}")
    return "\n".join(lines) + "\n"


# (dt_s, origin_time_s, whether load_trace reads the time stamps back as
# uniform) of the time stamps written below.
TIME_AXES = (
    (1.0 / 3000.0, 12.345, True),    # repr(dt) has 19 decimals: every row by repr
    (0.005, 0.0, True),              # the shipped axis
    (0.005, 1e9, True),
    (0.25, -3.5, True),              # negative stamps, then 0.0
    (0.25, 12.345, True),
    (1e-5, 0.0, True),               # repr(dt) has an exponent: every row by repr
    (1e-5, 12.345, True),
    (0.0001, -0.0011, True),         # stamps cross 0 and 1e-4 on both sides
    (0.5, -0.49993896484375, True),  # row 1 is 2**-14 exactly, below 1e-4
    (8.0, 99999999990000.0, True),   # 10 * stamp crosses 10**15 at row 1250
    (123456789012.3, 0.0, True),     # 10 * stamp passes 10**15, then 2**53
    (0.1, 999999999999000.0, False), # 10 * origin is past 10**15
    (4.0, 1e16 - 16384.0, True),     # stamps cross 1e16 at row 4096
)


# The first axis keeps the bare offset as its id.
@pytest.mark.parametrize("offset, dt, origin, uniform", [
    pytest.param(offset, *axis, id=f"{offset}" + (f"-{axis[0]!r}-{axis[1]!r}" if i else ""))
    for i, axis in enumerate(TIME_AXES) for offset in (-1, 0, 1, None)])
def test_write_trace_matches_per_cell_repr(offset, dt, origin, uniform):
    from powershave._textio import CSV_BLOCK_ROWS
    n = 1 if offset is None else CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    pool = np.array([0.0, -0.0, 5e-324, 1e-310, 9999999999999998.0, 1e16,
                     1.0000000000000002e16, 1e-4, 9.999999999999999e-05, 1e-5,
                     1.0000000000000001e-05, 700.0, 0.1])
    samples = rng.choice(pool, size=n)
    # Repeats that straddle the block boundary.
    samples[CSV_BLOCK_ROWS - 2:CSV_BLOCK_ROWS + 2] = -0.0
    tr = ps.PowerTrace(dt_s=dt, samples=samples, rack_max_w=2e16,
                       source_label="awkward", origin_time_s=origin)
    buf = io.StringIO()
    ps.write_trace(tr, buf)
    assert buf.getvalue() == naive_trace_csv(tr)
    if n > 1 and uniform:
        back = ps.load_trace(io.StringIO(buf.getvalue()))
        assert back.samples.tobytes() == tr.samples.tobytes()
        assert back.origin_time_s == origin


def test_write_trace_to_binary_stream_and_path(tmp_path):
    tr = make_trace([1.0, -0.0, 3.5], dt=0.25, rack_max=10.0)
    buf = io.BytesIO()
    ps.write_trace(tr, buf)
    ps.write_trace(tr, tmp_path / "t.csv")
    assert buf.getvalue().decode("utf-8") == naive_trace_csv(tr)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == naive_trace_csv(tr)


# ---------------------------------------------------------------------------
# 4. resample
# ---------------------------------------------------------------------------

def test_resample_hand_example_downsample():
    tr = make_trace([100.0, 100.0, 200.0, 200.0], dt=0.01, rack_max=1000.0)
    out = ps.resample(tr, 0.02)
    assert out.dt_s == 0.02
    np.testing.assert_allclose(out.samples, [100.0, 200.0])


def test_resample_identity():
    tr = make_trace([100.0, 150.0, 120.0], dt=0.01, rack_max=1000.0)
    out = ps.resample(tr, 0.01)
    np.testing.assert_array_equal(out.samples, tr.samples)


def test_resample_hand_example_upsample():
    tr = make_trace([100.0], dt=0.01, rack_max=1000.0)
    out = ps.resample(tr, 0.005)
    np.testing.assert_allclose(out.samples, [100.0, 100.0])


def test_resample_rejects_bad_dt():
    tr = make_trace([100.0], dt=0.01, rack_max=1000.0)
    with pytest.raises(ValueError):
        ps.resample(tr, 0.0)
    with pytest.raises(ValueError):
        ps.resample(tr, -0.01)


def test_resample_energy_bound():
    # |E_orig - E_resampled| <= dt_max * max_sample * 2 (one boundary
    # sample per end under zero-order hold).
    rng = np.random.default_rng(23)
    worst_margin = math.inf
    for _ in range(40):
        n = int(rng.integers(5, 300))
        dt = float(rng.uniform(0.002, 0.05))
        samples = rng.uniform(0.0, 2000.0, size=n)
        tr = make_trace(samples, dt=dt, rack_max=2500.0)
        dt_new = float(rng.uniform(0.002, 0.05))
        out = ps.resample(tr, dt_new)
        e_orig = float(np.sum(tr.samples) * tr.dt_s)
        e_new = float(np.sum(out.samples) * out.dt_s)
        bound = max(dt, dt_new) * float(tr.samples.max()) * 2.0
        margin = bound - abs(e_orig - e_new)
        worst_margin = min(worst_margin, margin)
        assert abs(e_orig - e_new) <= bound
    print(f"resample energy bound margin (worst): {worst_margin:.3f} J")


# ---------------------------------------------------------------------------
# 5. synthesize_trace
# ---------------------------------------------------------------------------

def test_synth_is_deterministic():
    cfg = ps.DEFAULT_SYNTH_CONFIG
    a = ps.synthesize_trace(cfg)
    b = ps.synthesize_trace(cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.dt_s == b.dt_s and a.rack_max_w == b.rack_max_w


def test_synth_seed_changes_output():
    from dataclasses import replace
    cfg = replace(ps.DEFAULT_SYNTH_CONFIG, duration_s=30.0)
    a = ps.synthesize_trace(cfg)
    b = ps.synthesize_trace(replace(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(a.samples, b.samples)


def test_synth_rejects_zero_accelerators():
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(ps.DEFAULT_SYNTH_CONFIG, n_accelerators=0)


def test_synth_rejects_short_duration():
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(ps.DEFAULT_SYNTH_CONFIG, duration_s=5.0)  # < 10 periods


@pytest.mark.parametrize("dt_s", [1000.0, 2000.0, 600.0 / 1.4999999])
def test_synth_rejects_dt_leaving_one_sample(dt_s):
    # 600 s at 1000 s rounds to one sample and at 2000 s to none; a trace
    # needs two to fix its interval.
    from dataclasses import replace
    with pytest.raises(ValueError) as err:
        replace(ps.DEFAULT_SYNTH_CONFIG, dt_s=dt_s)
    assert "dt_s" in str(err.value) and "duration_s" in str(err.value)


def test_synth_two_samples_is_the_least():
    from dataclasses import replace
    tr = ps.synthesize_trace(replace(ps.DEFAULT_SYNTH_CONFIG, dt_s=400.0))
    assert tr.n_samples == 2
    buf = io.StringIO()
    ps.write_trace(tr, buf)
    assert ps.load_trace(io.StringIO(buf.getvalue())).n_samples == 2


def test_synth_power_ordering_validated():
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(ps.DEFAULT_SYNTH_CONFIG, comm_power_w=900.0)  # above burst power
    with pytest.raises(ValueError):
        replace(ps.DEFAULT_SYNTH_CONFIG, jitter_frac=1.0)


def test_synth_bounds(default_trace):
    cfg = ps.DEFAULT_SYNTH_CONFIG
    tr = default_trace
    assert tr.rack_max_w == cfg.n_accelerators * cfg.burst_power_w
    assert float(tr.samples.max()) <= tr.rack_max_w + 1e-9
    # Floor: every accelerator idles at idle_power_w; the power wobble can
    # shave at most 6% x jitter off that.
    floor = cfg.n_accelerators * cfg.idle_power_w * (1.0 - 0.06 * cfg.jitter_frac)
    assert float(tr.samples.min()) >= floor - 1e-9
    print(f"synth range [{tr.samples.min():.0f}, {tr.samples.max():.0f}] W "
          f"inside [{floor:.0f}, {tr.rack_max_w:.0f}] W")


def test_synth_expected_shape(default_trace):
    cfg = ps.DEFAULT_SYNTH_CONFIG
    assert default_trace.dt_s == cfg.dt_s
    assert default_trace.samples.shape[0] == round(cfg.duration_s / cfg.dt_s)


def oracle_accelerator_profile(t, period, burst_s, burst_w, comm_w, idle_w, phase):
    """The accelerator profile as it was before tiling: np.mod and
    np.interp over every sample of the trace."""
    edge = min(trace_mod._TRAIN_EDGE_S, 0.2 * burst_s, 0.04 * period)
    idle_s = trace_mod._IDLE_TAIL_FRAC * period
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
    u = np.mod(t + phase, period)
    return np.interp(u, xp, fp)


def _profile_case_config(rng, style) -> ps.SynthConfig:
    dt = float(rng.choice([0.001, 0.005, 0.01]))
    period = float(rng.choice([0.5, 1.0, 1.2]))
    lo = float(rng.uniform(0.1, 0.5)) * period
    hi = lo + float(rng.uniform(0.0, 0.3)) * period
    jitter = float(rng.uniform(0.0, 0.99))
    burst_w, comm_w, idle_w = 700.0, 295.0, 80.0
    if style == "lockstep":
        # Phase 0 and a burst of whole samples: knots land on samples.
        dt, period, jitter = 0.005, 1.0, 0.0
        lo = hi = float(rng.choice([0.25, 0.3, 0.44]))
    elif style == "short-bursts":
        # Edges clipped to 0.2 * burst_s (and to 0.04 * period at 0.5 s).
        lo = float(rng.uniform(0.02, 0.1))
        hi = lo + float(rng.uniform(0.0, 0.1))
    elif style == "non-integral":
        # period / dt is not an integer: the tile is the whole trace.
        dt = float(rng.choice([0.0033, 0.0047, 0.0071]))
    elif style == "folded":
        # The burst leaves no room for the comm phase; knots fold back.
        lo = float(rng.uniform(0.8, 0.9)) * period
        hi = float(rng.uniform(0.9, 0.97)) * period
    elif style == "flat-levels":
        comm_w = burst_w
        idle_w = float(rng.choice([comm_w, 80.0]))
    return ps.SynthConfig(
        n_accelerators=int(rng.integers(1, 5)), iteration_period_s=period,
        burst_duration_s=(lo, min(hi, 0.97 * period)), burst_power_w=burst_w,
        comm_power_w=comm_w, idle_power_w=idle_w, jitter_frac=jitter,
        inference_rate_hz=0.5, seed=int(rng.integers(0, 2**31)),
        duration_s=float(rng.integers(10, 40)) * period, dt_s=dt)


PROFILE_STYLES = ("random", "lockstep", "short-bursts", "non-integral", "folded",
                  "flat-levels")


def full_profile(n, flat, idx, values):
    """The n-sample profile that _accelerator_profile returns as (flat,
    idx, values), added by _add_profile to zeros."""
    profile = np.zeros(n)
    trace_mod._add_profile(profile, flat, idx, values)
    return profile


def _check_profiles_against_oracle(monkeypatch) -> list:
    """Make every _accelerator_profile call also run the oracle and require
    equal bits.  Returns the (tile, samples) of each call, as it is made."""
    tiled = trace_mod._accelerator_profile
    calls = []

    def checked(t, tile, margin, period, *rest):
        got = tiled(t, tile, margin, period, *rest)
        assert got[0].size == tile
        assert np.array_equal(full_profile(t.size, *got),
                              oracle_accelerator_profile(t, period, *rest))
        calls.append((tile, t.size))
        return got

    monkeypatch.setattr(trace_mod, "_accelerator_profile", checked)
    return calls


@pytest.mark.parametrize("style", PROFILE_STYLES)
def test_synth_profiles_match_full_length_oracle(monkeypatch, style):
    calls = _check_profiles_against_oracle(monkeypatch)
    rng = np.random.default_rng(PROFILE_STYLES.index(style))
    for _ in range(6):
        ps.synthesize_trace(_profile_case_config(rng, style))
    repeats = [tile < n for tile, n in calls]
    assert repeats
    assert not any(repeats) if style == "non-integral" else all(repeats)


def assert_mod_exact(x, period):
    got = trace_mod._mod_exact(x, period)
    assert got.tobytes() == np.mod(x, period).tobytes()


@pytest.mark.parametrize("period", [0.7, 0.8, 1.0 / 3.0, 15000.0])
def test_mod_exact_matches_np_mod(period):
    rng = np.random.default_rng(int(period * 3000))
    k = np.concatenate((np.arange(0.0, 2000.0), rng.integers(0, 2**25, 2000)))
    multiples = k * period
    x = np.concatenate((
        multiples,
        np.nextafter(multiples, np.inf),
        np.nextafter(multiples, 0.0),
        [0.0, -0.0, 5e-324, period, np.nextafter(period, 0.0)],
        rng.uniform(0.0, 2**25 * period, 5000),
        rng.uniform(0.0, period, 500),
    ))
    assert_mod_exact(x, period)
    for lo, hi in ((0, 200), (120_000, 120_200), (x.size - 300, x.size)):
        assert_mod_exact(x[lo:hi], period)


def test_mod_exact_falls_back_to_np_mod(monkeypatch):
    # A quotient of 2**26 - 1 or more, whose successor needs 27 bits,
    # leaves too few bits of the period for exact products, and a negative
    # x breaks the quotient bound: both go through np.mod.
    calls = []
    mod = np.mod

    def counted(*args, **kwargs):
        calls.append(args)
        return mod(*args, **kwargs)

    monkeypatch.setattr(np, "mod", counted)
    period = 0.7
    below = np.array([0.0, (2**26 - 2) * period, np.nextafter((2**26 - 2) * period, 0.0)])
    above = np.array([0.0, 2**26 * period, np.nextafter(2**26 * period, np.inf)])
    for x, fallback in ((below, False), (above, True), (np.array([1.0, -0.5]), True)):
        calls.clear()
        got = trace_mod._mod_exact(x, period)
        assert bool(calls) == fallback
        assert got.tobytes() == mod(x, period).tobytes()


# (samples, dt, period, burst_s, phase).  In each, a margin that does
# not cover the drift puts a sample that reaches a sloped segment in a
# flat class: the first drifts by more than 1e-9 s over a 1e8 s trace;
# the next two start exactly on knot 0; in the last, period/dt is four
# spacings short of 1, and the drift of tile*dt alone carries the sample
# 8e-11 s after knot 0 back across it.
DRIFT_CASES = (
    (46089, 15000.0 / 7, 15000.0, 4492.5, 7.388523937106747e-09),
    (46089, 15000.0 / 7, 15000.0, 4492.5, 0.0),
    (66051, 1500.0 / 9, 1500.0, 530.0, 0.0),
    (2**17 - 1, 1.0 - 8 * 2.0**-53, 1.0, 0.3, 8e-11),
)


@pytest.mark.parametrize("n, dt, period, burst_s, phase", DRIFT_CASES)
def test_tiled_profile_margin_covers_drift(n, dt, period, burst_s, phase):
    t = np.arange(n) * dt
    tile, margin = trace_mod._cycle_tile(t, dt, period)
    assert tile == round(period / dt) < n
    got = full_profile(n, *trace_mod._accelerator_profile(
        t, tile, margin, period, burst_s, 700.0, 295.0, 80.0, phase))
    want = oracle_accelerator_profile(t, period, burst_s, 700.0, 295.0, 80.0, phase)
    assert np.array_equal(got, want)


def test_synth_default_profiles_match_oracle(monkeypatch):
    # The shipped config: 200 samples per tile over 120,000 samples.
    from dataclasses import replace
    calls = _check_profiles_against_oracle(monkeypatch)
    ps.synthesize_trace(replace(ps.DEFAULT_SYNTH_CONFIG, n_accelerators=20))
    assert calls == [(200, 120_000)] * 20


# ---------------------------------------------------------------------------
# 6. SynthConfig serialization
# ---------------------------------------------------------------------------

def test_synth_config_json_round_trip():
    cfg = ps.DEFAULT_SYNTH_CONFIG
    buf = io.StringIO()
    ps.write_synth_config(cfg, buf)
    back = ps.load_synth_config(io.StringIO(buf.getvalue()))
    assert back == cfg


def test_synth_config_missing_field_named():
    import json
    buf = io.StringIO()
    ps.write_synth_config(ps.DEFAULT_SYNTH_CONFIG, buf)
    doc = json.loads(buf.getvalue())
    del doc["seed"]
    with pytest.raises(ValueError) as err:
        ps.load_synth_config(io.StringIO(json.dumps(doc)))
    assert "seed" in str(err.value)


def test_synth_config_unknown_field_rejected():
    import json
    buf = io.StringIO()
    ps.write_synth_config(ps.DEFAULT_SYNTH_CONFIG, buf)
    doc = json.loads(buf.getvalue())
    doc["volts"] = 3.0
    with pytest.raises(ValueError):
        ps.load_synth_config(io.StringIO(json.dumps(doc)))


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
