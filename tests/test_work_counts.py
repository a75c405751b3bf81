"""Work counts: what the hot layers skip, pinned by wrapping what the code
calls, never by timing.

Each expected count is a relation to the result's own series, so a change
that keeps every output but does more work fails here.  A change that
moves a count on purpose says why in CHANGES.md.

 1. compare walks the thermal node where its bound passes t_derate_c,
    whatever the slope; simulate walks it once
 2. the device halves are called only on the steps that discharge or
    charge the device
 3. the battery is walked over the runs above the threshold and the
    shedding tails only; the tracked feed visits every step
 4. the export calls repr once per distinct bit pattern per block

load_trace's skip (no plain data block is split into lines) is pinned by
tests/test_trace.py::test_load_data_blocks_on_array_path.
"""

import builtins
import dataclasses
import io

import numpy as np
import pytest

import powershave as ps
from powershave import SimConfig, _textio, shaving, sweep
from powershave.devices import builtin_device_spec

from conftest import STRATEGIES, strategy_spec


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# ---------------------------------------------------------------------------
# 1. Thermal walks
# ---------------------------------------------------------------------------

DEFAULT_PAIRS = [(name, strategy_spec(name)) for name in STRATEGIES]


def test_compare_walks_no_node_where_derating_cannot_bite(default_trace, monkeypatch):
    # On the shipped trace no node comes near t_derate_c (70 C): the
    # bound reads 62-65 C for every strategy.
    walks = _counting(monkeypatch, shaving, "_thermal_walk")
    series = _counting(monkeypatch, sweep, "_simulate_series")
    ps.compare_strategies(default_trace, DEFAULT_PAIRS, SimConfig())
    assert len(series) == len(STRATEGIES)
    assert walks == []


def test_simulate_walks_the_node_once(default_trace, monkeypatch):
    walks = _counting(monkeypatch, shaving, "_thermal_walk")
    ps.simulate_shaving(default_trace, builtin_device_spec("supercap"), SimConfig())
    assert [len(args[0]) for args in walks] == [default_trace.n_samples]


def test_compare_walks_each_simulation_where_derating_bites(default_trace, monkeypatch):
    walks = _counting(monkeypatch, shaving, "_thermal_walk")
    series = _counting(monkeypatch, sweep, "_simulate_series")
    cfg = SimConfig(t_derate_c=SimConfig.t_ambient_c)
    ps.compare_strategies(default_trace, DEFAULT_PAIRS, cfg)
    assert len(series) == len(STRATEGIES)
    assert [len(args[0]) for args in walks] == [default_trace.n_samples] * len(series)


# ---------------------------------------------------------------------------
# 2. Device halves
# ---------------------------------------------------------------------------

def _replayed_feed(result) -> np.ndarray:
    """The feed c of each step, replayed with the step loop's rule.  With
    no restart penalty nothing is held down, so each step's effective
    demand is its demand."""
    cfg = result.config
    theta = result.threshold_w
    load = cfg.p_infra_w + result.p_comp_demand
    need = np.where(theta < result.p_comp_demand, cfg.p_infra_w + theta, load)
    r_step = (np.inf if result.strategy == "battery"
              else cfg.grid_ramp_limit_w_per_s * result.dt_s)
    feed = np.empty(result.n_steps)
    c = float(need[0])
    for i, nd in enumerate(need.tolist()):
        top = c + r_step
        c -= r_step
        if not c > nd:
            c = nd
        if top < c:
            c = top
        feed[i] = c
    return feed, load, need


@pytest.mark.parametrize("kind", ["capacitor", "supercap", "battery"])
def test_device_halves_run_only_on_steps_that_discharge_or_charge(
        default_trace, monkeypatch, kind):
    calls = {"discharge": [], "charge": []}
    device_halves = shaving.device_halves

    def counting_halves(spec, dt):
        halves = device_halves(spec, dt)

        def wrap(name, fn):
            def half(*args):
                out = fn(*args)
                calls[name].append(out[0])
                return out
            return half

        return wrap("discharge", halves[0]), wrap("charge", halves[1])

    monkeypatch.setattr(shaving, "device_halves", counting_halves)
    cfg = SimConfig(restart_penalty_s=0.0)
    result = ps.simulate_shaving(default_trace, builtin_device_spec(kind), cfg)
    feed, load, need = _replayed_feed(result)
    requested = feed < load
    offered = ~requested & (need < feed)
    # One discharge call per step with a request, one charge call per step
    # with an offer, and none on any other step.
    assert len(calls["discharge"]) == int(requested.sum())
    assert len(calls["charge"]) == int(offered.sum())
    # Each call that moved power is one step of the series that shows it.
    assert sum(w > 0.0 for w in calls["discharge"]) == int((result.p_ext_discharge > 0.0).sum())
    assert sum(w > 0.0 for w in calls["charge"]) == int((result.p_ext_charge > 0.0).sum())
    # An offer is charged or burnt as dummy load, so the series show it too.
    assert int(offered.sum()) == int(((result.p_ext_charge > 0.0)
                                      | (result.p_dummy > 0.0)).sum())
    if kind == "battery":
        assert calls["charge"] == []
        assert len(calls["discharge"]) == int((result.p_comp_demand > result.threshold_w).sum())
    else:
        assert len(calls["discharge"]) + len(calls["charge"]) < result.n_steps


# ---------------------------------------------------------------------------
# 3. Steps walked
# ---------------------------------------------------------------------------

def _walked_steps(monkeypatch) -> list:
    """The lengths of the step ranges _step_loop walks.  Its walk is the one
    enumerate in shaving that is given a start step."""
    walked = []

    def counting_enumerate(iterable, *start):
        if start:
            walked.append(len(iterable))
        return builtins.enumerate(iterable, *start)

    monkeypatch.setattr(shaving, "enumerate", counting_enumerate, raising=False)
    return walked


def test_battery_walks_runs_above_threshold_and_shedding_tails(default_trace, monkeypatch):
    walked = _walked_steps(monkeypatch)
    preset = builtin_device_spec("battery")
    weak = dataclasses.replace(preset, max_discharge_w=preset.max_discharge_w / 8.0)
    result = ps.simulate_shaving(default_trace, weak, SimConfig())
    above = result.p_comp_demand > result.threshold_w
    curtailed = result.curtailed_w > 0.0
    # A step is walked when it is above the threshold, when it sheds (an
    # open event or a hold), or when it follows a step that shed: that step
    # may close the event or reach the hold's expiry.
    after = np.concatenate(([False], curtailed[:-1]))
    expected = above | curtailed | after
    assert (curtailed & ~above).any(), "no shedding tail to walk"
    assert (result.p_comp_demand > 0.0).all(), "a held step of zero demand sheds nothing"
    assert sum(walked) == int(expected.sum())
    assert sum(walked) < result.n_steps


@pytest.mark.parametrize("kind", ["none", "supercap"])
def test_tracked_feed_visits_every_step(default_trace, monkeypatch, kind):
    walked = _walked_steps(monkeypatch)
    ps.simulate_shaving(default_trace, strategy_spec(kind), SimConfig())
    assert sum(walked) == default_trace.n_samples


# ---------------------------------------------------------------------------
# 4. Export
# ---------------------------------------------------------------------------

def test_export_calls_repr_once_per_distinct_value_per_block(short_results, monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(_textio, "repr", counting_repr, raising=False)
    result = short_results["supercap"]
    ps.write_result_csv(result, io.StringIO())
    block = _textio.CSV_BLOCK_ROWS
    assert result.n_steps > block
    distinct = 0
    for name in shaving._SERIES_NAMES:
        col = np.ascontiguousarray(getattr(result, name), dtype=np.float64)
        distinct += sum(np.unique(col[start:start + block].view(np.int64)).size
                        for start in range(0, col.size, block))
    assert len(calls) == distinct
    assert distinct < len(shaving._SERIES_NAMES) * result.n_steps
