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
 6. Comparison CSV layout
"""

import io
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import powershave as ps
from powershave import SimConfig, ThresholdSpec, sweep

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
    with pytest.raises(ValueError, match=r"threshold_frac must be in \(0, 1\], got 0.0"):
        ps.sweep_gpus_saved(spiky_trace, (0.0, 0.5), (0.0,))
    with pytest.raises(ValueError, match="gpu_unit_w must be positive"):
        ps.sweep_gpus_saved(spiky_trace, (0.5,), (0.0,), gpu_unit_w=0.0)
    with pytest.raises(ValueError, match="min_burst_s must be non-negative"):
        ps.gpus_saved(spiky_trace, 0.5, math.nan)


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


@pytest.mark.parametrize("text", [
    '{"threshold_fracs": [0.5],', "[1, 2]",
    # Values are refused, not truncated or wrapped, and a malformed axis is
    # named.
    '{%s, "values": [[1.7], [0.9]]}' % _GRID_AXES,
    '{%s, "values": [[true], [false]]}' % _GRID_AXES,
    '{%s, "values": [[1e30], [0]]}' % _GRID_AXES,
    '{%s, "values": [[9223372036854775808], [0]]}' % _GRID_AXES,
    '{"threshold_fracs": 5, "burst_lengths_s": [0.0], "values": [[1]]}',
    '{"threshold_fracs": [null], "burst_lengths_s": [0.0], "values": [[1]]}',
    # Axis entries and the label are refused, not cast.
    '{"threshold_fracs": [true], "burst_lengths_s": [0.0], "values": [[1]]}',
    '{"threshold_fracs": ["0.5"], "burst_lengths_s": [0.0], "values": [[1]]}',
    '{"threshold_fracs": [0.5], "burst_lengths_s": "12", "values": [[1, 1]]}',
    '{"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]], '
    '"trace_label": 5}',
    '{"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]], '
    '"trace_label": null}',
])
def test_load_grid_json_rejects_bad_json(text):
    with pytest.raises(ValueError, match="grid"):
        ps.load_grid_json(io.StringIO(text))


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
])
def test_load_grid_csv_names_bad_cell(text, where):
    with pytest.raises(ValueError, match=f"^grid CSV {where}: "):
        ps.load_grid_csv(io.StringIO(text))


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


@pytest.mark.parametrize("missing", ["threshold_fracs", "burst_lengths_s", "values"])
def test_load_grid_json_names_missing_field(missing):
    data = {"threshold_fracs": [0.5], "burst_lengths_s": [0.0], "values": [[1]]}
    del data[missing]
    with pytest.raises(ValueError, match=f"grid JSON missing fields: \\['{missing}'\\]"):
        ps.load_grid_json(io.StringIO(json.dumps(data)))


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


def test_compare_annotates_failing_strategy(spiky_trace):
    with pytest.raises(ValueError) as err:
        ps.compare_strategies(spiky_trace, [("weird", "flywheel")], SimConfig())
    assert "weird" in str(err.value)


def _direct_rows(trace, pairs, cfg):
    """The rows of pairs from one simulation each, every result kept, and
    gains from computational_gain against a separate baseline run."""
    baseline = ps.simulate_shaving(trace, "none", cfg)
    rows = []
    for name, spec in pairs:
        result = ps.simulate_shaving(trace, spec, cfg)
        rows.append(ps.ComparisonRow(
            name, ps.computational_gain(result, baseline),
            result.total_dummy_energy_j, result.total_unserved_energy_j,
            result.device_energy_throughput_j, result.peak_grid_w))
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


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
