"""Batch experiments: GPUs-saved grids and strategy comparison tables.

Covers:
 1. sweep_gpus_saved cell consistency, default-axes shape, monotonicity,
    argument checks, and equality with the per-cell oracle
 2. All-zero grid on a sub-threshold constant trace
 3. Grid determinism and cell independence
 4. write_grid_csv / write_grid_json round trips and shape arithmetic
 5. compare_strategies ordering, baseline, duplicate rejection, rows
    equal to direct simulations wherever "none" is listed, and one
    simulation alive at a time (weak references and tracemalloc peak)
 6. Comparison CSV layout, and row figures that are the summary's
"""

import dataclasses
import io
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import powershave as ps
from powershave import SimConfig, ThresholdSpec, _textio, shaving, sweep

from conftest import STRATEGIES, make_trace, strategy_spec


@pytest.fixture(scope="module")
def spiky_trace():
    rng = np.random.default_rng(77)
    base = rng.uniform(2000.0, 4000.0, size=3000)
    # Implant bursts of varied height and width above 50% of rack max.
    for start, width, level in ((200, 3, 6200.0), (900, 10, 7400.0),
                                (1500, 30, 6800.0), (2200, 6, 9100.0)):
        base[start:start + width] = level
    return make_trace(base, dt=0.005, rack_max=10000.0)


# ---------------------------------------------------------------------------
# 1/2/3. sweep_gpus_saved
# ---------------------------------------------------------------------------

def test_single_cell_matches_direct_call(spiky_trace):
    grid = ps.sweep_gpus_saved(spiky_trace, [0.55], [0.01], 700.0)
    direct = ps.gpus_saved(spiky_trace, 0.55, 0.01, 700.0)
    assert grid.values.shape == (1, 1)
    assert grid.values[0, 0] == direct


def test_default_axes_shape(default_trace):
    grid = ps.sweep_gpus_saved(default_trace)
    # Threshold 0.50..0.95 step 0.05 -> 10 rows; burst 0..0.2 step 0.02 -> 11 cols.
    assert grid.values.shape == (10, 11)
    assert grid.threshold_fracs[0] == pytest.approx(0.50)
    assert grid.threshold_fracs[-1] == pytest.approx(0.95)
    assert grid.burst_lengths_s[0] == pytest.approx(0.0)
    assert grid.burst_lengths_s[-1] == pytest.approx(0.2)


def test_default_grid_monotone_and_bounded(default_trace):
    grid = ps.sweep_gpus_saved(default_trace)
    vals = grid.values
    assert (np.diff(vals, axis=0) <= 0).all()
    assert (np.diff(vals, axis=1) <= 0).all()
    assert vals.max() <= 200
    assert vals.min() >= 0
    print(f"default grid: max {vals.max()}, min {vals.min()}")


def test_constant_trace_all_zero():
    tr = make_trace(np.full(500, 4000.0), dt=0.005, rack_max=10000.0)
    grid = ps.sweep_gpus_saved(tr, [0.5, 0.7, 0.9], [0.0, 0.05], 700.0)
    assert (grid.values == 0).all()


def test_grid_determinism(spiky_trace):
    a = ps.sweep_gpus_saved(spiky_trace)
    b = ps.sweep_gpus_saved(spiky_trace)
    np.testing.assert_array_equal(a.values, b.values)


def test_cell_independence(spiky_trace):
    fracs = [0.55, 0.65, 0.85]
    bursts = [0.0, 0.02, 0.1]
    grid = ps.sweep_gpus_saved(spiky_trace, fracs, bursts, 700.0)
    for i, f in enumerate(fracs):
        for j, b in enumerate(bursts):
            assert grid.values[i, j] == ps.gpus_saved(spiky_trace, f, b, 700.0)


def test_axes_validation(spiky_trace):
    with pytest.raises(ValueError):
        ps.sweep_gpus_saved(spiky_trace, [], [0.0])
    with pytest.raises(ValueError):
        ps.sweep_gpus_saved(spiky_trace, [0.5, 0.5], [0.0])
    with pytest.raises(ValueError):
        ps.sweep_gpus_saved(spiky_trace, [0.7, 0.5], [0.0])
    with pytest.raises(ValueError):
        ps.sweep_gpus_saved(spiky_trace, [0.5], [-0.1, 0.0])


def test_sweep_checks_every_argument_before_work(spiky_trace):
    with pytest.raises(ValueError, match="finite"):
        ps.sweep_gpus_saved(spiky_trace, (math.nan,), (0.0,))
    with pytest.raises(ValueError, match="finite"):
        ps.sweep_gpus_saved(spiky_trace, (0.5,), (0.0, math.inf))
    with pytest.raises(ValueError, match=r"^threshold_fracs values must be in \(0, 1\], got 0\.0$"):
        ps.sweep_gpus_saved(spiky_trace, (0.0, 0.5), (0.0,))
    with pytest.raises(ValueError, match="gpu_unit_w must be positive"):
        ps.sweep_gpus_saved(spiky_trace, (0.5,), (0.0,), gpu_unit_w=0.0)
    with pytest.raises(ValueError, match="^burst_lengths_s values must be finite, got nan$"):
        ps.gpus_saved(spiky_trace, 0.5, math.nan)


def _unit_refusal(unit, rack_max_w=10000.0):
    return (f"gpu_unit_w must be at least rack_max_w / 2**53 "
            f"({rack_max_w / 2.0 ** 53!r} W), got {unit!r}")


# Each bad threshold fraction, burst length and unit, with the one message
# that gpus_saved, sweep_gpus_saved and, for an axis value, SweepGrid refuse
# it with.
@pytest.mark.parametrize("frac, burst, unit, message", [
    (0.0, 0.0, 700.0, "threshold_fracs values must be in (0, 1], got 0.0"),
    (-0.5, 0.0, 700.0, "threshold_fracs values must be in (0, 1], got -0.5"),
    (1.5, 0.0, 700.0, "threshold_fracs values must be in (0, 1], got 1.5"),
    (math.nan, 0.0, 700.0, "threshold_fracs values must be finite, got nan"),
    (math.inf, 0.0, 700.0, "threshold_fracs values must be finite, got inf"),
    (True, 0.0, 700.0, "threshold_fracs values must be a number, got True"),
    ("0.5", 0.0, 700.0, "threshold_fracs values must be a number, got '0.5'"),
    (0.5, -0.1, 700.0, "burst_lengths_s values must be non-negative, got -0.1"),
    (0.5, math.nan, 700.0, "burst_lengths_s values must be finite, got nan"),
    (0.5, math.inf, 700.0, "burst_lengths_s values must be finite, got inf"),
    (0.5, False, 700.0, "burst_lengths_s values must be a number, got False"),
    (0.5, 0.0, 0.0, "gpu_unit_w must be positive, got 0.0"),
    (0.5, 0.0, -700.0, "gpu_unit_w must be positive, got -700.0"),
    (0.5, 0.0, math.inf, "gpu_unit_w must be finite, got inf"),
    (0.5, 0.0, math.nan, "gpu_unit_w must be finite, got nan"),
    (0.5, 0.0, 1e-300, _unit_refusal(1e-300)),
])
def test_one_refusal_for_every_grid_entry_point(spiky_trace, monkeypatch,
                                                frac, burst, unit, message):
    # Refused before any scan for runs above a threshold.
    monkeypatch.setattr(sweep, "_runs_above", None)
    calls = [lambda: ps.gpus_saved(spiky_trace, frac, burst, unit),
             lambda: ps.sweep_gpus_saved(spiky_trace, (frac,), (burst,), unit)]
    if unit == 700.0:
        calls.append(lambda: ps.SweepGrid((frac,), (burst,), values=[[0]]))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


# The sweep as it was before it scanned each threshold once: one
# gpus_saved call per cell, each a detect_spikes call and a scan of its
# Spike list.

def oracle_detect_spikes(trace, threshold):
    theta = threshold.resolve(trace.rack_max_w)
    s = trace.samples
    above = s > theta
    if not above.any():
        return []
    # Run boundaries from the sign changes of the indicator.
    padded = np.concatenate(([False], above, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[0::2], edges[1::2]
    dt = trace.dt_s
    spikes = []
    for i0, i1 in zip(starts, stops):
        seg = s[i0:i1]
        excess = seg - theta
        spikes.append(ps.Spike(
            start_s=float(trace.origin_time_s + i0 * dt),
            duration_s=float((i1 - i0) * dt),
            peak_excess_w=float(excess.max()),
            energy_above_j=float(excess.sum() * dt),
            peak_frac=float(seg.max() / trace.rack_max_w),
        ))
    return spikes


def oracle_gpus_saved(trace, threshold_frac, min_burst_s, gpu_unit_w=700.0):
    if not (0.0 < threshold_frac <= 1.0):
        raise ValueError(f"threshold_frac must be in (0, 1], got {threshold_frac}")
    if min_burst_s < 0.0:
        raise ValueError("min_burst_s must be non-negative")
    if not (gpu_unit_w > 0.0):
        raise ValueError("gpu_unit_w must be positive")
    theta = threshold_frac * trace.rack_max_w
    worst = 0.0
    for spike in oracle_detect_spikes(trace, ThresholdSpec(absolute_w=theta)):
        if spike.duration_s + 1e-12 >= min_burst_s and spike.peak_excess_w > worst:
            worst = spike.peak_excess_w
    if worst <= 0.0:
        return 0
    return math.ceil(worst / gpu_unit_w - 1e-9)


ORACLE_RACK_W = 10000.0
ORACLE_FRACS = (0.3, 0.5, 0.55, 0.7, 0.9, 1.0)
# Run lengths k with k * dt one spacing below the decimal burst length
# round(k * dt, 10): only the 1e-12 whisker lets such a run qualify.
SHORT_BY_ONE_ULP = {0.03: 11, 0.09: 5}


def _oracle_case(rng, style):
    """(trace, burst lengths) for one generated case."""
    dt = float(rng.choice([0.001, 0.005, 0.03, 0.09]))
    n = int(rng.integers(1, 400))
    levels = np.array(ORACLE_FRACS) * ORACLE_RACK_W
    if style == "none-above":
        samples = rng.uniform(0.0, levels[0], size=n)
    elif style == "all-above":
        samples = rng.uniform(levels[-2], ORACLE_RACK_W, size=n)
        samples[rng.random(n) < 0.2] = levels[-2] + 1.0
    else:
        # Runs of constant or noisy levels, some exactly at a threshold,
        # some one sample long; "ends" also lifts both end samples.
        parts = []
        while sum(map(len, parts)) < n:
            width = int(rng.choice([1, 1, 2, 5, 11, 30, SHORT_BY_ONE_ULP.get(dt, 3)]))
            kind = rng.integers(0, 3)
            if kind == 0:
                parts.append(np.full(width, rng.choice(levels)))
            elif kind == 1:
                parts.append(rng.uniform(0.0, ORACLE_RACK_W, size=width))
            else:
                parts.append(np.full(width, rng.choice(levels) + rng.choice([-1.0, 1.0])))
        samples = np.concatenate(parts)[:n]
        if style == "ends":
            samples[0] = samples[-1] = ORACLE_RACK_W
    ks = sorted({0, 1, 2, 3, 7, SHORT_BY_ONE_ULP.get(dt, 4), int(rng.integers(8, 40))})
    bursts = sorted({round(k * dt, 10) for k in ks} | {k * dt for k in ks})
    return make_trace(samples, dt=dt, rack_max=ORACLE_RACK_W), bursts


ORACLE_STYLES = ("mixed", "ends", "none-above", "all-above")


@pytest.mark.parametrize("style", ORACLE_STYLES)
def test_sweep_matches_per_cell_oracle(style):
    rng = np.random.default_rng(ORACLE_STYLES.index(style))
    whisker_cells = 0
    for _ in range(40):
        tr, bursts = _oracle_case(rng, style)
        unit = float(rng.choice([1.0, 700.0, 2500.0]))
        want = np.array([[oracle_gpus_saved(tr, f, b, unit) for b in bursts]
                         for f in ORACLE_FRACS])
        got = ps.sweep_gpus_saved(tr, ORACLE_FRACS, bursts, unit)
        np.testing.assert_array_equal(got.values, want)
        for i, f in enumerate(ORACLE_FRACS):
            for j, b in enumerate(bursts):
                assert ps.gpus_saved(tr, f, b, unit) == want[i, j]
                k = SHORT_BY_ONE_ULP.get(tr.dt_s)
                if k is not None and b == round(k * tr.dt_s, 10) and want[i, j] > 0:
                    whisker_cells += 1
    if style == "mixed":
        assert whisker_cells > 0


# ---------------------------------------------------------------------------
# 4. write_grid_csv / write_grid_json
# ---------------------------------------------------------------------------

def test_export_json_round_trip(spiky_trace):
    grid = ps.sweep_gpus_saved(spiky_trace, [0.55, 0.75], [0.0, 0.02, 0.1], 700.0)
    buf = io.StringIO()
    ps.write_grid_json(grid, buf)
    back = ps.load_grid_json(io.StringIO(buf.getvalue()))
    assert back.threshold_fracs == grid.threshold_fracs
    assert back.burst_lengths_s == grid.burst_lengths_s
    np.testing.assert_array_equal(back.values, grid.values)
    assert back.trace_label == grid.trace_label


_GRID_AXES = '"threshold_fracs": [0.5, 0.7], "burst_lengths_s": [0.0]'


# Each refused grid JSON text with its refusal.
_BAD_GRID_JSON = [
    ('{"threshold_fracs": [0.5],', "bad grid JSON: Expecting property name enclosed "
     "in double quotes: line 1 column 27 (char 26)"),
    ("[1, 2]", "grid must be a JSON object"),
    # Values are refused, not truncated or wrapped, and a malformed axis is
    # named.
    ('{%s, "values": [[1.7], [0.9]]}' % _GRID_AXES,
     "grid values must be integers that fit int64, got an array of float64"),
    ('{%s, "values": [[true], [false]]}' % _GRID_AXES,
     "grid values must be integers that fit int64, got an array of bool"),
    ('{%s, "values": [[1e30], [0]]}' % _GRID_AXES,
     "grid values must be integers that fit int64, got an array of float64"),
    ('{%s, "values": [[9223372036854775808], [0]]}' % _GRID_AXES,
     "grid values must be integers that fit int64, got an array of float64"),
    ('{"threshold_fracs": 5, "burst_lengths_s": [0.0], "values": [[1]]}',
     "threshold_fracs must be a list of numbers, got 5"),
    ('{"threshold_fracs": [null], "burst_lengths_s": [0.0], "values": [[1]]}',
     "threshold_fracs values must be a number, got None"),
    # Axis entries and the label are refused, not cast.
    ('{"threshold_fracs": [true], "burst_lengths_s": [0.0], "values": [[1]]}',
     "threshold_fracs values must be a number, got True"),
    ('{"threshold_fracs": ["0.5"], "burst_lengths_s": [0.0], "values": [[1]]}',
     "threshold_fracs values must be a number, got '0.5'"),
    ('{"threshold_fracs": [0.5], "burst_lengths_s": "12", "values": [[1, 1]]}',
     "burst_lengths_s must be a list of numbers, got '12'"),
    ('{"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]], '
     '"trace_label": 5}', "grid trace_label must be a string, got 5"),
    ('{"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]], '
     '"trace_label": null}', "grid trace_label must be a string, got None"),
]


@pytest.mark.parametrize("text, message", _BAD_GRID_JSON,
                         ids=[text for text, _ in _BAD_GRID_JSON])
def test_load_grid_json_rejects_bad_json(text, message):
    with pytest.raises(ValueError) as err:
        ps.load_grid_json(io.StringIO(text))
    assert str(err.value) == message


def test_export_csv_round_trip(spiky_trace):
    grid = ps.sweep_gpus_saved(spiky_trace, [0.55, 0.75], [0.0, 0.02, 0.1], 700.0)
    buf = io.StringIO()
    ps.write_grid_csv(grid, buf)
    back = ps.load_grid_csv(io.StringIO(buf.getvalue()), trace_label=grid.trace_label)
    assert back.threshold_fracs == grid.threshold_fracs
    assert back.burst_lengths_s == grid.burst_lengths_s
    np.testing.assert_array_equal(back.values, grid.values)


@pytest.mark.parametrize("text, where", [
    # float() and int() read '0_0' as 0.0 and '1_0' as 10.
    ("threshold_frac/burst_s,0_0,0.1\n0.5,1,0\n", "row 1 column 2"),
    ("threshold_frac/burst_s,0.0,0.1\n0.5,1_0,5\n", "row 2 column 2"),
    ("threshold_frac/burst_s,0.0,0.1\n\n0.7,5,3\n0.5,5,abc\n", "row 3 column 3"),
    ("threshold_frac/burst_s,0.0\n0.5,1\n0.7\u00a0,1\n", "row 3 column 1"),
    # A transposed table: its axes would load swapped.
    ("burst_s/threshold_frac,0.5,0.55\n0.02,1,0\n0.04,0,0\n", "row 1 column 1"),
])
def test_load_grid_csv_names_bad_cell(text, where):
    with pytest.raises(ValueError, match=f"^grid CSV {where}: "):
        ps.load_grid_csv(io.StringIO(text))


@pytest.mark.parametrize("text, message", [
    ("threshold_frac/burst_s,nan\n0.5,1\n",
     "grid CSV row 1 column 2: expected a finite number, got 'nan'"),
    ("threshold_frac/burst_s,0.0\n1e999,1\n",
     "grid CSV row 2 column 1: expected a finite number, got '1e999'"),
    # An int cell beyond the float range is no float: the grid's own
    # values check refuses it.
    ("threshold_frac/burst_s,0.0\n0.5,1" + "0" * 400 + "\n",
     "grid values must be integers that fit int64, got an array of object"),
], ids=["header-nan", "first-column-1e999", "huge-int-cell"])
def test_load_grid_csv_refuses_a_number_that_is_not_finite_by_its_cell(text, message):
    with pytest.raises(ValueError) as err:
        ps.load_grid_csv(io.StringIO(text))
    assert str(err.value) == message


def test_ragged_grid_values_are_refused_by_field():
    text = '{"threshold_fracs":[0.5,0.6],"burst_lengths_s":[0.0],"values":[[1],[1,2]]}'
    message = "grid values must be a rectangular array"
    with pytest.raises(ValueError) as err:
        ps.load_grid_json(io.StringIO(text))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        ps.SweepGrid((0.5, 0.6), (0.0,), [[1], [1, 2]])
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("threshold_frac/burst_s,0.0,0.1\n", "needs a header and at least one row"),
    ("threshold_frac/burst_s,0.0,0.1\n\n  \n", "needs a header and at least one row"),
    ("threshold_frac/burst_s,0.0,0.1\n0.5,1,0\n0.7,1\n",
     "row 3 width does not match header"),
    ("threshold_frac/burst_s,0.0\n0.5,1,0\n", "row 2 width does not match header"),
])
def test_load_grid_csv_refuses_bad_shape(text, message):
    with pytest.raises(ValueError, match=f"^grid CSV {message}"):
        ps.load_grid_csv(io.StringIO(text))


@pytest.mark.parametrize("read_size", [None, 16])
def test_load_grid_csv_refuses_a_byte_that_is_not_utf8_naming_its_line(
        monkeypatch, tmp_path, read_size):
    # Lines are counted as load_trace counts them, blank ones too, also
    # where the bad byte comes in a later read.
    data = b"threshold_frac/burst_s,0.0,0.1\n0.5,1,0\n\n0.7,1,0\n0.9,\xff,0\n"
    if read_size is not None:
        monkeypatch.setattr(_textio, "READ_SIZE", read_size)
    path = tmp_path / "grid.csv"
    path.write_bytes(data)
    for source in (io.BytesIO(data), path):
        with pytest.raises(ValueError) as err:
            ps.load_grid_csv(source)
        assert str(err.value) == ("grid CSV line 5: not UTF-8 text "
                                  "(byte 0xff: invalid start byte)")


@pytest.mark.parametrize("missing", ["threshold_fracs", "burst_lengths_s", "values"])
def test_load_grid_json_names_missing_field(missing):
    data = {"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]]}
    del data[missing]
    with pytest.raises(ValueError, match=f"^missing grid fields: \\['{missing}'\\]$"):
        ps.load_grid_json(io.StringIO(json.dumps(data)))


def _hand_built_grid_csv(grid) -> str:
    """The grid CSV as write_grid_csv built it by hand, one row at a time."""
    header = ["threshold_frac/burst_s"] + [repr(b) for b in grid.burst_lengths_s]
    return "".join([",".join(header) + "\n"] + [
        ",".join([repr(frac)] + [str(int(v)) for v in row]) + "\n"
        for frac, row in zip(grid.threshold_fracs, grid.values)])


def _random_grid(rng, n_fracs, n_bursts, top):
    fracs = np.unique(rng.uniform(1e-9, 1.0, size=n_fracs))
    bursts = np.unique(np.round(rng.uniform(0.0, 2.0, size=n_bursts),
                                int(rng.integers(1, 17))))
    values = rng.integers(0, top, size=(fracs.size, bursts.size), endpoint=True)
    # Sorting each column and then each row, both descending, leaves both
    # sorted: a valid grid.
    values = np.sort(values, axis=0)[::-1]
    values = np.sort(values, axis=1)[:, ::-1]
    return ps.SweepGrid(tuple(fracs.tolist()), tuple(bursts.tolist()), values)


@pytest.mark.parametrize("n_fracs, n_bursts, top", [
    (3, 4, 5),
    (_textio.CSV_CHUNK_ROWS + 7, 6, 40),
    (_textio.CSV_BLOCK_ROWS + 3, 3, 2 ** 63 - 1),
], ids=["small", "over-a-chunk", "over-a-block-large-ints"])
def test_write_grid_csv_bytes_equal_the_hand_built_rows(n_fracs, n_bursts, top):
    rng = np.random.default_rng(n_fracs)
    grid = _random_grid(rng, n_fracs, n_bursts, top)
    buf = io.StringIO()
    ps.write_grid_csv(grid, buf)
    assert buf.getvalue() == _hand_built_grid_csv(grid)
    if top == 2 ** 63 - 1:
        assert grid.values.max() > 2 ** 62


def test_load_grid_json_refuses_an_unknown_field_by_name():
    data = {"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]],
            "gpu_unit_w": 700.0}
    with pytest.raises(ValueError) as err:
        ps.load_grid_json(io.StringIO(json.dumps(data)))
    assert str(err.value) == "unknown grid fields: ['gpu_unit_w']"


def test_load_grid_json_trace_label_replaces_the_files_label():
    grid = ps.SweepGrid((0.5, 0.7), (0.0, 0.1), [[3, 1], [2, 0]], trace_label="file")
    buf = io.StringIO()
    ps.write_grid_json(grid, buf)
    assert ps.load_grid_json(io.StringIO(buf.getvalue())).trace_label == "file"
    back = ps.load_grid_json(io.StringIO(buf.getvalue()), trace_label="given")
    assert back.trace_label == "given"
    assert (back.threshold_fracs, back.burst_lengths_s) == (grid.threshold_fracs,
                                                            grid.burst_lengths_s)
    np.testing.assert_array_equal(back.values, grid.values)


def test_export_csv_shape():
    # A 2x3 grid exports as 1 header + 2 data rows, 1 label + 3 burst columns.
    values = np.array([[5, 3, 1], [2, 1, 0]])
    grid = ps.SweepGrid(threshold_fracs=(0.5, 0.7), burst_lengths_s=(0.0, 0.05, 0.1),
                        values=values, trace_label="shape")
    buf = io.StringIO()
    ps.write_grid_csv(grid, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert len(line.split(",")) == 4


def test_grid_type_rejects_violations():
    with pytest.raises(ValueError):
        ps.SweepGrid(threshold_fracs=(0.5, 0.7), burst_lengths_s=(0.0,),
                     values=np.array([[1], [2]]))   # increasing along thresholds
    with pytest.raises(ValueError):
        ps.SweepGrid(threshold_fracs=(0.5,), burst_lengths_s=(0.0,),
                     values=np.array([[-1]]))
    with pytest.raises(ValueError):
        ps.SweepGrid(threshold_fracs=(0.5,), burst_lengths_s=(0.0, 0.1),
                     values=np.array([[1]]))
    # Values that are not integers are refused, not cast.
    for values in ([[1.7], [0.9]], [[True], [False]], [[10 ** 30], [0]],
                   np.array([[1.0], [0.0]]), np.array([[2 ** 63], [0]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="grid values"):
            ps.SweepGrid(threshold_fracs=(0.5, 0.7), burst_lengths_s=(0.0,),
                         values=values)
    with pytest.raises(ValueError, match="threshold_fracs"):
        ps.SweepGrid(threshold_fracs=5, burst_lengths_s=(0.0,), values=[[1]])


@pytest.mark.parametrize("fracs, label, message", [
    ((0.0, 0.5), "", "threshold_fracs values must be in (0, 1], got 0.0"),
    ((0.5, 1.5), "", "threshold_fracs values must be in (0, 1], got 1.5"),
    ((0.5, 0.7), 7, "grid trace_label must be a string, got 7"),
], ids=["threshold-zero", "threshold-above-one", "label"])
def test_grid_refusals_name_their_field(fracs, label, message):
    with pytest.raises(ValueError) as err:
        ps.SweepGrid(threshold_fracs=fracs, burst_lengths_s=(0.0,),
                     values=np.array([[1], [0]]), trace_label=label)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# 5. compare_strategies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cmp_setup(spiky_trace):
    cfg = SimConfig(threshold=ThresholdSpec(fraction_of_max=0.5), p_infra_w=1000.0,
                    grid_ramp_limit_w_per_s=1000.0, restart_penalty_s=5.0)
    strategies = [("none", "none"),
                  ("capacitor", ps.builtin_device_spec("capacitor")),
                  ("battery", ps.builtin_device_spec("battery")),
                  ("ideal", "ideal")]
    return spiky_trace, cfg, ps.compare_strategies(spiky_trace, strategies, cfg)


def test_compare_rows_ordered_as_given(cmp_setup):
    _, _, rows = cmp_setup
    assert [r.strategy_name for r in rows] == ["none", "capacitor", "battery", "ideal"]


def test_compare_baseline_gain_zero(cmp_setup):
    _, _, rows = cmp_setup
    assert rows[0].computational_gain_pct == 0.0


def test_compare_ideal_dominates(cmp_setup):
    _, _, rows = cmp_setup
    ideal = next(r for r in rows if r.strategy_name == "ideal")
    for r in rows:
        assert ideal.computational_gain_pct >= r.computational_gain_pct
    assert ideal.total_unserved_energy_j == 0.0


def test_compare_matches_direct_simulation(cmp_setup):
    trace, cfg, rows = cmp_setup
    direct = ps.simulate_shaving(trace, ps.builtin_device_spec("battery"), cfg)
    row = next(r for r in rows if r.strategy_name == "battery")
    assert row.total_unserved_energy_j == direct.total_unserved_energy_j
    assert row.peak_grid_w == direct.peak_grid_w
    assert row.device_energy_throughput_j == direct.device_energy_throughput_j


def test_compare_duplicate_names_rejected(spiky_trace):
    cfg = SimConfig()
    with pytest.raises(ValueError):
        ps.compare_strategies(spiky_trace, [("a", "none"), ("a", "ideal")], cfg)


def test_compare_empty_rejected(spiky_trace):
    with pytest.raises(ValueError):
        ps.compare_strategies(spiky_trace, [], SimConfig())


@pytest.mark.parametrize("name", ["cap,x", 'cap"x', "cap\nline", "cap\r\n",
                                  "cap\x85x", "cap\u2028x"])
def test_strategy_name_the_csv_cannot_hold_is_refused_before_any_simulation(
        spiky_trace, monkeypatch, name):
    # comparison.csv would split such a name over two fields or two lines.
    monkeypatch.setattr(sweep, "simulate_shaving", None)
    message = f"strategy name {name!r} must not hold ',', '\"' or a line break"
    with pytest.raises(ValueError) as err:
        ps.compare_strategies(spiky_trace, [("none", "none"), (name, "ideal")], SimConfig())
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        ps.ComparisonRow(name, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert str(err.value) == message


@pytest.mark.parametrize("name", [5, None, b"x"], ids=repr)
def test_strategy_name_that_is_not_text_is_refused_before_any_simulation(
        spiky_trace, monkeypatch, name):
    # A row named 5 would build, and write_comparison_csv then fail on it.
    calls = []
    monkeypatch.setattr(sweep, "simulate_shaving", lambda *args: calls.append(args))
    message = f"strategy name must be a string, got {name!r}"
    with pytest.raises(ValueError) as err:
        ps.compare_strategies(spiky_trace, [(name, "none")], SimConfig())
    assert str(err.value) == message
    assert calls == []
    with pytest.raises(ValueError) as err:
        ps.ComparisonRow(name, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert str(err.value) == message


def test_strategy_names_the_csv_can_hold_are_written_as_they_are():
    names = ["", "cap x", "cap's", "cap;x", "cap\tx", "caf\u00e9"]
    rows = [ps.ComparisonRow(name, 0.0, 0.0, 0.0, 0.0, 0.0) for name in names]
    buf = io.StringIO()
    ps.write_comparison_csv(rows, buf)
    lines = buf.getvalue().split("\n")
    assert lines[-1] == "" and len(lines) == 2 + len(names)
    assert [line.split(",")[0] for line in lines[1:-1]] == names


def test_compare_annotates_failing_strategy(spiky_trace):
    with pytest.raises(ValueError) as err:
        ps.compare_strategies(spiky_trace, [("weird", "flywheel")], SimConfig())
    assert "weird" in str(err.value)


def _direct_rows(trace, pairs, cfg):
    """The rows of pairs from one simulation each, every result kept, their
    numbers read from its summary, and gains from computational_gain
    against a separate baseline run."""
    baseline = ps.simulate_shaving(trace, "none", cfg)
    rows = []
    for name, spec in pairs:
        result = ps.simulate_shaving(trace, spec, cfg)
        summary = ps.result_summary_dict(result)
        rows.append(ps.ComparisonRow(
            name, ps.computational_gain(result, baseline),
            dummy_energy_j=summary["total_dummy_energy_j"],
            total_unserved_energy_j=summary["total_unserved_energy_j"],
            device_energy_throughput_j=summary["device_energy_throughput_j"],
            peak_grid_w=summary["peak_grid_w"]))
    return rows


@pytest.mark.parametrize("listing", [
    (("capacitor", "capacitor"), ("ideal", "ideal"), ("none", "none")),
    (("base", "none"), ("battery", "battery"), ("again", "none")),
    (("capacitor", "capacitor"), ("battery", "battery")),
], ids=["none-last", "none-twice", "none-absent"])
def test_compare_rows_equal_direct_simulations(cmp_setup, listing):
    trace, cfg, _ = cmp_setup
    pairs = [(name, strategy_spec(kind)) for name, kind in listing]
    rows = ps.compare_strategies(trace, pairs, cfg)
    # A "none" pair's direct row holds a direct "none" run's totals.
    assert rows == _direct_rows(trace, pairs, cfg)
    assert all(row.computational_gain_pct == 0.0
               for row, (_, kind) in zip(rows, listing) if kind == "none")


@pytest.mark.parametrize("t_derate_c, derate_slope_per_c, walks", [
    (70.0, SimConfig.derate_slope_per_c, 0), (63.0, SimConfig.derate_slope_per_c, 2),
    (25.0, SimConfig.derate_slope_per_c, 5), (25.0, 0.0, 5),
], ids=["bites-nowhere", "bites-battery-and-ideal", "bites-everywhere", "zero-slope"])
def test_compare_rows_equal_direct_simulations_where_derating_bites(
        default_trace, monkeypatch, t_derate_c, derate_slope_per_c, walks):
    # On the shipped trace the nodes peak at 62.1 C (none, capacitor,
    # supercap) and 64.2 C (battery, ideal), so at 63 C compare walks two
    # nodes and skips three.  A zero slope takes the same path: at 25 C,
    # t_ambient_c, every node passes t_derate_c and is walked, and every
    # factor is 1.0.
    cfg = SimConfig(t_derate_c=t_derate_c, derate_slope_per_c=derate_slope_per_c)
    pairs = [(name, strategy_spec(name)) for name in STRATEGIES]
    walked = []
    walk = shaving._thermal_walk
    monkeypatch.setattr(shaving, "_thermal_walk", lambda *args: walked.append(1) or walk(*args))
    rows = ps.compare_strategies(default_trace, pairs, cfg)
    monkeypatch.undo()
    assert len(walked) == walks
    direct = _direct_rows(default_trace, pairs, cfg)
    assert [[repr(v) for v in dataclasses.astuple(row)] for row in rows] == [
        [repr(v) for v in dataclasses.astuple(row)] for row in direct]


@pytest.mark.parametrize("listing, first", [
    ((("none", "none"), ("ideal", "ideal")), "none"),
    ((("cap", "capacitor"),), "cap"),
])
def test_compare_zero_baseline_names_first_strategy(listing, first):
    trace = make_trace(np.zeros(400), dt=0.005)
    pairs = [(name, strategy_spec(kind)) for name, kind in listing]
    with pytest.raises(ValueError, match=re.escape(
            f"strategy {first!r}: baseline served no useful energy")):
        ps.compare_strategies(trace, pairs, SimConfig())


def test_compare_takes_a_mapping(cmp_setup):
    # A dict is read in its insertion order, like the list of its items.
    trace, cfg, rows = cmp_setup
    by_name = {"none": "none", "capacitor": ps.builtin_device_spec("capacitor"),
               "battery": ps.builtin_device_spec("battery"), "ideal": "ideal"}
    assert ps.compare_strategies(trace, by_name, cfg) == rows


def test_compare_holds_one_simulation_at_a_time(cmp_setup, monkeypatch):
    trace, cfg, _ = cmp_setup
    simulate = sweep.simulate_shaving
    results = []        # a weak reference to each simulation's result
    alive_at_start = []

    def recording(*args):
        alive_at_start.append(sum(ref() is not None for ref in results))
        result = simulate(*args)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(sweep, "simulate_shaving", recording)
    pairs = [(name, strategy_spec(name)) for name in STRATEGIES]
    rows = ps.compare_strategies(trace, pairs, cfg)
    assert len(rows) == len(STRATEGIES)
    # The baseline plus one run per device; the "none" row reuses the baseline.
    assert alive_at_start == [0] * len(STRATEGIES)
    assert all(ref() is None for ref in results)


def _traced_peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_memory_peak_is_one_simulation(default_trace, default_config):
    n = int(round(120.0 / default_trace.dt_s))
    trace = ps.PowerTrace(dt_s=default_trace.dt_s, samples=default_trace.samples[:n],
                          rack_max_w=default_trace.rack_max_w)
    pairs = [(name, strategy_spec(name)) for name in STRATEGIES]
    one = _traced_peak_bytes(lambda: ps.simulate_shaving(trace, "none", default_config))
    compared = _traced_peak_bytes(
        lambda: ps.compare_strategies(trace, pairs, default_config))
    assert compared <= 1.5 * one, (compared, one)


def test_preset_dummy_pattern_on_calibrated_trace(default_trace, default_config):
    rows = ps.compare_strategies(
        default_trace,
        [("capacitor", ps.builtin_device_spec("capacitor")),
         ("supercap", ps.builtin_device_spec("supercap")),
         ("battery", ps.builtin_device_spec("battery"))],
        default_config)
    by_name = {r.strategy_name: r for r in rows}
    assert by_name["capacitor"].dummy_energy_j > 0.0
    assert by_name["supercap"].dummy_energy_j <= 0.01 * by_name["capacitor"].dummy_energy_j
    assert by_name["battery"].dummy_energy_j == 0.0
    assert by_name["battery"].computational_gain_pct > by_name["supercap"].computational_gain_pct


# ---------------------------------------------------------------------------
# 6. Comparison CSV
# ---------------------------------------------------------------------------

def test_comparison_csv_layout(cmp_setup):
    import io
    _, _, rows = cmp_setup
    buf = io.StringIO()
    ps.write_comparison_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("strategy_name,computational_gain_pct,dummy_energy_j,"
                        "total_unserved_energy_j,device_energy_throughput_j,"
                        "peak_grid_w")
    assert len(lines) == 1 + len(rows)
    assert lines[1].split(",")[0] == "none"


def test_row_figures_are_summary_figures_in_the_csv_columns(cmp_setup):
    # Each row number after the gain is a figure of the run's summary.
    trace, cfg, rows = cmp_setup
    for row in rows:
        want = ps.result_summary_dict(
            ps.simulate_shaving(trace, strategy_spec(row.strategy_name), cfg))
        assert [repr(getattr(row, column)) for column, _ in sweep._ROW_FIGURES] == [
            repr(want[figure]) for _, figure in sweep._ROW_FIGURES], row.strategy_name
    buf = io.StringIO()
    ps.write_comparison_csv(rows, buf)
    assert buf.getvalue().splitlines()[0] == ",".join(
        ["strategy_name", "computational_gain_pct",
         *(column for column, _ in sweep._ROW_FIGURES)])


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
