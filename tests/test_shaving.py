"""Peak-shaving co-simulation: balance, curtailment, thermal, gain metrics.

Covers:
 1. SimConfig validation and JSON round trip
 2. thermal_step fixed point, steady state, monotonicity; derate_factor
 3. simulate_shaving hand examples (ideal grid identity, bare-grid
    curtailment, restart hold-down timing, overlapping holds), and the
    temperature series replayed through thermal_step
 4. Grid cap and ramp-violation reporting
 5. Dummy-load scheduling under a tight ramp and its thermal effect
 6. computational_gain identity, constructed +100%, preset ordering
 7. gpus_saved hand checks and monotonicity
 8. Whole-run conservation on every run via the run_sim helper
 9. Result CSV / summary JSON export layout

Every simulation here goes through conftest.run_sim, which asserts the
per-step power balance, the grid cap, and exact device bookkeeping.
"""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

import powershave as ps
from powershave import SimConfig, ThresholdSpec
from powershave.devices import builtin_device_spec

from conftest import SHORT_SYNTH_CONFIG, loose_config, make_trace, run_sim


# ---------------------------------------------------------------------------
# 1. SimConfig
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(p_infra_w=-1.0)
    with pytest.raises(ValueError):
        SimConfig(grid_ramp_limit_w_per_s=0.0)
    with pytest.raises(ValueError):
        SimConfig(restart_penalty_s=-0.5)
    with pytest.raises(ValueError):
        SimConfig(gpu_unit_w=0.0)
    with pytest.raises(ValueError):
        SimConfig(thermal_tau_s=0.0)


_CAPACITOR = ps.DeviceSpec(kind="capacitor", energy_capacity_j=50.0,
                           max_discharge_w=12000.0, max_charge_w=12000.0)


_NON_FINITE_CASES = [
    (SimConfig(), "p_infra_w", math.nan),
    (SimConfig(), "restart_penalty_s", math.nan),
    (SimConfig(), "t_derate_c", math.nan),
    (SimConfig(), "grid_ramp_limit_w_per_s", math.inf),
    (SimConfig(), "t_ambient_c", -math.inf),
    (SimConfig(), "thermal_tau_s", 10 ** 400),     # JSON reads it as an int
    (_CAPACITOR, "energy_capacity_j", math.inf),
    (_CAPACITOR, "max_charge_w", math.nan),
    (SHORT_SYNTH_CONFIG, "inference_rate_hz", math.nan),
    (SHORT_SYNTH_CONFIG, "duration_s", math.inf),
    (ThresholdSpec(absolute_w=600.0), "absolute_w", math.inf),
]


@pytest.mark.parametrize("base, field, value", _NON_FINITE_CASES,
                         ids=[f"{type(b).__name__}.{f}" for b, f, _ in _NON_FINITE_CASES])
def test_config_dataclasses_reject_non_finite(base, field, value):
    # Each of these passes the field's one-sided bound, so only the finite
    # check can stop it.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        dataclasses.replace(base, **{field: value})


def test_config_json_round_trip():
    cfg = SimConfig(threshold=ThresholdSpec(absolute_w=9000.0), p_infra_w=500.0,
                    restart_penalty_s=30.0)
    buf = io.StringIO()
    ps.write_sim_config(cfg, buf)
    back = ps.load_sim_config(io.StringIO(buf.getvalue()))
    assert back == cfg


def test_int_in_float_field_writes_float_bytes():
    # 20000 and 20000.0 compare equal, so they must record one digest.
    def text(cfg):
        buf = io.StringIO()
        ps.write_sim_config(cfg, buf)
        return buf.getvalue()

    as_int = SimConfig(threshold=ThresholdSpec(absolute_w=9000), p_infra_w=20000)
    as_float = SimConfig(threshold=ThresholdSpec(absolute_w=9000.0), p_infra_w=20000.0)
    assert as_int == as_float
    assert text(as_int) == text(as_float)
    assert type(as_int.p_infra_w) is float
    assert type(as_int.threshold.absolute_w) is float


def test_config_defaults_sane():
    cfg = SimConfig()
    assert cfg.threshold.fraction_of_max == pytest.approx(0.7)
    assert cfg.gpu_unit_w == 700.0
    assert cfg.heat_factor == pytest.approx(1.3)
    assert cfg.restart_penalty_s == 60.0


# ---------------------------------------------------------------------------
# 2. Thermal proxy
# ---------------------------------------------------------------------------

def test_thermal_fixed_point():
    cfg = SimConfig()
    t = ps.thermal_step(cfg.t_ambient_c, 0.0, cfg, 0.5)
    assert t == pytest.approx(cfg.t_ambient_c)


def test_thermal_steady_state():
    # Constant heat for many time constants settles within 1% of the
    # analytic steady state t_ambient + heat * k_scale.
    cfg = SimConfig()
    heat = 90000.0
    target = cfg.t_ambient_c + heat * cfg.k_scale_c_per_w
    t = cfg.t_ambient_c
    dt = 0.5
    for _ in range(int(12 * cfg.thermal_tau_s / dt)):
        t = ps.thermal_step(t, heat, cfg, dt)
    assert abs(t - target) <= 0.01 * abs(target - cfg.t_ambient_c)
    print(f"thermal steady state {t:.3f} C vs analytic {target:.3f} C")


def test_thermal_monotone_in_heat():
    cfg = SimConfig()
    t1 = ps.thermal_step(40.0, 50000.0, cfg, 0.1)
    t2 = ps.thermal_step(40.0, 90000.0, cfg, 0.1)
    assert t2 > t1


def test_thermal_full_power_hits_design_max():
    # At nameplate-scale heat input the node settles at t_max_c.
    cfg = SimConfig()
    target = cfg.t_ambient_c + cfg.thermal_ref_power_w * cfg.k_scale_c_per_w
    assert target == pytest.approx(cfg.t_max_c)


def test_derate_factor():
    cfg = SimConfig()
    assert ps.derate_factor(cfg.t_derate_c - 5.0, cfg) == 1.0
    assert ps.derate_factor(cfg.t_derate_c, cfg) == 1.0
    over = ps.derate_factor(cfg.t_derate_c + 10.0, cfg)
    assert over == pytest.approx(1.0 - 10.0 * cfg.derate_slope_per_c)
    # Far past the knee the factor floors at zero.
    assert ps.derate_factor(cfg.t_derate_c + 1e4, cfg) == 0.0


# ---------------------------------------------------------------------------
# 3. Hand examples
# ---------------------------------------------------------------------------

def test_ideal_grid_identity():
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=600.0), p_infra_w=0.0,
                       restart_penalty_s=0.0)
    r = run_sim(tr, "ideal", cfg)
    np.testing.assert_allclose(r.p_grid, np.minimum(tr.samples, 600.0), atol=1e-9)
    np.testing.assert_allclose(r.curtailed_w, 0.0, atol=1e-12)
    assert r.total_unserved_energy_j == 0.0
    assert np.all(r.stored_j == 0.0)


def test_bare_grid_hand_example():
    # No device, threshold 600 W, restart 0: the 900 W step sheds 300 W,
    # one GPU unit at the peak.
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=600.0), p_infra_w=0.0,
                       restart_penalty_s=0.0)
    r = run_sim(tr, "none", cfg)
    np.testing.assert_allclose(r.curtailed_w, [0.0, 300.0, 0.0], atol=1e-12)
    assert math.ceil(float(r.curtailed_w.max()) / cfg.gpu_unit_w) == 1
    assert r.curtailed_gpu_seconds == pytest.approx(0.01)
    assert r.unserved_spike_count == 1
    assert r.total_unserved_energy_j == pytest.approx(3.0)


def test_restart_holds_shed_units_down():
    # 1400 W for one step sheds two 700 W units; with a 0.05 s restart
    # penalty they stay down for exactly five 0.01 s steps afterwards.
    samples = [1400.0] + [300.0] * 9
    tr = make_trace(samples, dt=0.01, rack_max=2000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=700.0), p_infra_w=0.0,
                       restart_penalty_s=0.05)
    r = run_sim(tr, "none", cfg)
    np.testing.assert_allclose(r.curtailed_w,
                               [700.0] + [300.0] * 5 + [0.0] * 4, atol=1e-12)
    assert r.unserved_spike_count == 1


@pytest.mark.parametrize("case", ["second_sheds_more", "second_sheds_fewer"])
def test_restart_holds_overlap_as_window_max(case):
    # Two shortfall events inside one 0.05 s restart window.  Event 1 sheds
    # at step 0 and its hold runs from step 1 until t = 0.06 (step 6).
    # Event 2 sheds at step 3, on top of event 1's held units, and its hold
    # runs from step 4 until t = 0.09 (step 9).  While both holds are live
    # the larger one applies, so on the steps just before and after the
    # first hold expires the served power shows which hold is in force.
    unit = 700.0
    base = 1500.0
    if case == "second_sheds_more":
        first, second = 1, 2
        expect_before, expect_after = base - 2 * unit, base - 2 * unit
    else:
        first, second = 2, 1
        expect_before, expect_after = base - 2 * unit, base - 1 * unit
    samples = [base] * 12
    samples[0] = 2000.0 + first * unit
    samples[3] = 2000.0 + (first + second) * unit
    tr = make_trace(samples, dt=0.01, rack_max=6000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=2000.0), p_infra_w=0.0,
                       gpu_unit_w=unit, restart_penalty_s=0.05)
    r = run_sim(tr, "none", cfg)
    assert r.unserved_spike_count == 2
    # Step 3 curtails event 1's held units plus the ones event 2 sheds.
    np.testing.assert_allclose(r.curtailed_w[[0, 3]],
                               [first * unit, (first + second) * unit], atol=1e-9)
    assert r.p_comp_served[5] == pytest.approx(expect_before, abs=1e-9)
    assert r.p_comp_served[6] == pytest.approx(expect_after, abs=1e-9)
    # The second hold alone lasts through step 8; from step 9 every unit
    # serves again.
    assert r.p_comp_served[8] == pytest.approx(expect_after, abs=1e-9)
    np.testing.assert_allclose(r.p_comp_served[9:], base, atol=1e-9)


@pytest.mark.parametrize("i0, dt, restart", [
    (3504, 0.003, 1.470000000001),     # restart/dt estimates one step late
    (703, 0.005, 0.800000000001),
    (908, 0.0246, 9.348000000001),     # restart/dt estimates one step early
    (2187, 0.005, 0.845000000001),
])
@pytest.mark.parametrize("strategy", ["none", "battery"])
def test_restart_hold_expiry_at_step_boundary(i0, dt, restart, strategy):
    # A hold added at the end of step i0 lasts up to the first step j with
    # i0*dt + restart <= j*dt + 1e-12.  These penalties sit 1e-12 past a
    # whole number of steps, where rounding decides j.  One unit is shed at
    # step i0 - 1 and held from step i0 on; both the dense loop ("none")
    # and the battery walk must free it at j.
    want = next(j for j in range(i0 + 1, 10**6) if i0 * dt + restart <= j * dt + 1e-12)
    samples = [300.0] * (want + 3)
    samples[i0 - 1] = 1400.0
    tr = make_trace(samples, dt=dt, rack_max=2000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=700.0), p_infra_w=0.0,
                       restart_penalty_s=restart)
    spec = strategy if strategy == "none" else ps.DeviceSpec(
        kind="battery", energy_capacity_j=1e-3, max_discharge_w=1e-3, max_charge_w=0.0)
    r = run_sim(tr, spec, cfg)
    assert np.flatnonzero(r.curtailed_w > 1.0).tolist() == list(range(i0 - 1, want))
    assert r.unserved_spike_count == 1


def test_thermal_replay(short_results):
    # The temperature series is the public Euler step run over the heat of
    # served compute plus dummy load, bit for bit.
    for name, r in short_results.items():
        cfg = r.config
        temp = cfg.t_ambient_c
        replay = np.empty(r.n_steps)
        for i, heat in enumerate(cfg.heat_factor * (r.p_comp_served + r.p_dummy)):
            temp = ps.thermal_step(temp, float(heat), cfg, r.dt_s)
            replay[i] = temp
        assert np.array_equal(replay, r.temperature_c), name


def test_restart_zero_recovers_next_step():
    samples = [1400.0] + [300.0] * 3
    tr = make_trace(samples, dt=0.01, rack_max=2000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=700.0), p_infra_w=0.0,
                       restart_penalty_s=0.0)
    r = run_sim(tr, "none", cfg)
    np.testing.assert_allclose(r.curtailed_w, [700.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_infra_power_rides_on_top():
    tr = make_trace([300.0, 300.0], dt=0.01, rack_max=1000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=600.0), p_infra_w=250.0,
                       restart_penalty_s=0.0)
    r = run_sim(tr, "none", cfg)
    np.testing.assert_allclose(r.p_grid, 550.0, atol=1e-9)


def test_device_covers_deficit():
    # A capacitor with plenty of charge serves a short super-threshold
    # burst entirely.
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    spec = ps.DeviceSpec(kind="capacitor", energy_capacity_j=50.0,
                         max_discharge_w=1000.0, max_charge_w=1000.0,
                         response_tau_s=0.0, switch_latency_s=0.0,
                         round_trip_efficiency=1.0, soc_min_frac=0.0,
                         soc_max_frac=1.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=600.0), p_infra_w=0.0,
                       restart_penalty_s=0.0)
    r = run_sim(tr, spec, cfg)
    np.testing.assert_allclose(r.curtailed_w, 0.0, atol=1e-12)
    assert r.p_ext_discharge[1] == pytest.approx(300.0)
    assert r.final_stored_j == pytest.approx(50.0 - 3.0)


# ---------------------------------------------------------------------------
# 4. Grid cap and ramp reporting
# ---------------------------------------------------------------------------

def test_grid_cap_all_strategies(default_trace, preset_results):
    cap = (preset_results["none"].threshold_w
           + preset_results["none"].config.p_infra_w)
    for name, r in preset_results.items():
        assert float(r.p_grid.max()) <= cap + 1e-6, name


def test_ramp_violations_recomputed(default_trace, preset_results):
    # The report lists exactly the steps whose grid move exceeds the limit.
    for name, r in preset_results.items():
        step = r.config.grid_ramp_limit_w_per_s * r.dt_s
        bad = np.flatnonzero(np.abs(np.diff(r.p_grid)) > step * (1 + 1e-9) + 1e-9) + 1
        np.testing.assert_array_equal(bad, r.ramp_violation_steps, err_msg=name)


def test_loose_ramp_has_no_violations():
    tr = make_trace([300.0, 900.0, 300.0, 800.0], dt=0.01, rack_max=1000.0)
    r = run_sim(tr, "none", loose_config(threshold=ThresholdSpec(absolute_w=950.0),
                                         restart_penalty_s=0.0))
    assert r.ramp_violation_count == 0


def test_tracked_feed_respects_ramp():
    # With no device and a tight ramp, the feed chases demand at the
    # allowed slope; the balance comes out as dummy load on the way down.
    samples = [500.0] * 50 + [100.0] * 50
    tr = make_trace(samples, dt=0.01, rack_max=1000.0)
    cfg = SimConfig(threshold=ThresholdSpec(absolute_w=800.0), p_infra_w=0.0,
                    grid_ramp_limit_w_per_s=1000.0, restart_penalty_s=0.0)
    r = run_sim(tr, "none", cfg)
    assert r.ramp_violation_count == 0
    # 400 W drop at 10 W per step takes 40 steps of dummy burn.
    assert r.p_dummy[50] == pytest.approx(390.0)
    assert r.total_dummy_energy_j == pytest.approx(sum(390.0 - 10.0 * k for k in range(39)) * 0.01)


# ---------------------------------------------------------------------------
# 5. Dummy load thermal effect
# ---------------------------------------------------------------------------

def test_dummy_keeps_rack_warm():
    # Same trace, same strategy; the tight-ramp run burns dummy power in
    # the valley, so its temperature can never fall below the loose-ramp
    # run's on any step.
    rng = np.random.default_rng(99)
    base = np.concatenate([np.full(80, 500.0), np.full(200, 60.0),
                           np.full(80, 500.0)])
    tr = make_trace(base + rng.uniform(0.0, 5.0, base.size), dt=0.01,
                    rack_max=1000.0)
    cfg_tight = SimConfig(threshold=ThresholdSpec(absolute_w=800.0), p_infra_w=0.0,
                          grid_ramp_limit_w_per_s=500.0, restart_penalty_s=0.0)
    cfg_loose = loose_config(threshold=ThresholdSpec(absolute_w=800.0), p_infra_w=0.0,
                             restart_penalty_s=0.0)
    r_dummy = run_sim(tr, "none", cfg_tight)
    r_free = run_sim(tr, "none", cfg_loose)
    assert r_dummy.total_dummy_energy_j > 0.0
    assert r_free.total_dummy_energy_j == 0.0
    assert np.all(r_dummy.temperature_c >= r_free.temperature_c - 1e-9)
    valley = slice(90, 270)
    assert (r_dummy.temperature_c[valley].min()
            >= r_free.temperature_c[valley].min())


# ---------------------------------------------------------------------------
# 6. computational_gain
# ---------------------------------------------------------------------------

def test_gain_identity(default_trace, preset_results):
    assert ps.computational_gain(preset_results["none"], preset_results["none"]) == 0.0


def test_gain_constructed_plus_100():
    # Flat demand at double the threshold: the bare grid serves exactly
    # half, the ideal device serves all, so the gain is +100%.
    tr = make_trace(np.full(2000, 1400.0), dt=0.01, rack_max=2000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=700.0), p_infra_w=0.0,
                       restart_penalty_s=0.0)
    r_none = run_sim(tr, "none", cfg)
    r_ideal = run_sim(tr, "ideal", cfg)
    assert ps.computational_gain(r_ideal, r_none) == pytest.approx(100.0, abs=1e-9)


def test_gain_orderings(preset_results):
    base = preset_results["none"]
    g = {k: ps.computational_gain(r, base) for k, r in preset_results.items()}
    assert g["battery"] > g["supercap"]
    assert g["supercap"] > g["capacitor"]
    assert g["ideal"] >= g["battery"]
    print("gains vs none:",
          {k: f"{v:+.3f}%" for k, v in g.items() if k != "none"})


def test_gain_rejects_mismatched_lengths():
    tr_a = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    tr_b = make_trace([300.0, 900.0], dt=0.01, rack_max=1000.0)
    cfg = loose_config(threshold=ThresholdSpec(absolute_w=600.0),
                       restart_penalty_s=0.0)
    with pytest.raises(ValueError):
        ps.computational_gain(run_sim(tr_a, "none", cfg), run_sim(tr_b, "none", cfg))


# ---------------------------------------------------------------------------
# 7. gpus_saved
# ---------------------------------------------------------------------------

def test_gpus_saved_hand_value():
    # One qualifying spike with peak excess 2950 W: ceil(2950/700) = 5.
    samples = [1000.0] * 10 + [5000.0 + 2950.0] * 4 + [1000.0] * 10
    tr = make_trace(samples, dt=0.01, rack_max=10000.0)
    assert ps.gpus_saved(tr, threshold_frac=0.5, min_burst_s=0.02,
                         gpu_unit_w=700.0) == 5


def test_gpus_saved_zero_cases():
    quiet = make_trace([1000.0] * 20, dt=0.01, rack_max=10000.0)
    assert ps.gpus_saved(quiet, 0.5, 0.0, 700.0) == 0
    spiky = make_trace([1000.0] * 10 + [8000.0] * 2 + [1000.0] * 10,
                       dt=0.01, rack_max=10000.0)
    # Spike lasts 0.02 s; demanding 0.5 s empties the qualifying set.
    assert ps.gpus_saved(spiky, 0.5, 0.5, 700.0) == 0


def test_gpus_saved_validation():
    tr = make_trace([1000.0] * 20, dt=0.01, rack_max=10000.0)
    with pytest.raises(ValueError):
        ps.gpus_saved(tr, 0.0, 0.0, 700.0)
    with pytest.raises(ValueError):
        ps.gpus_saved(tr, 1.5, 0.0, 700.0)
    with pytest.raises(ValueError):
        ps.gpus_saved(tr, 0.5, -0.1, 700.0)
    with pytest.raises(ValueError):
        ps.gpus_saved(tr, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        ps.gpus_saved(tr, 0.5, 0.0, math.inf)     # every cell would read 0


def test_gpus_saved_monotone_random():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        samples = rng.uniform(100.0, 9000.0, size=800)
        tr = make_trace(samples, dt=0.005, rack_max=10000.0)
        fracs = [0.3, 0.5, 0.7, 0.9]
        bursts = [0.0, 0.01, 0.05]
        grid = [[ps.gpus_saved(tr, f, b, 700.0) for b in bursts] for f in fracs]
        for row in grid:
            assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))
        for j in range(len(bursts)):
            col = [grid[i][j] for i in range(len(fracs))]
            assert all(col[i] >= col[i + 1] for i in range(len(col) - 1))


# ---------------------------------------------------------------------------
# 8. Strategy comparisons on the calibrated trace
# ---------------------------------------------------------------------------

def test_battery_beats_capacitor_on_events(preset_results):
    assert (preset_results["battery"].unserved_spike_count
            < preset_results["capacitor"].unserved_spike_count)


def test_dummy_energy_pattern(preset_results):
    cap = preset_results["capacitor"].total_dummy_energy_j
    sup = preset_results["supercap"].total_dummy_energy_j
    bat = preset_results["battery"].total_dummy_energy_j
    assert cap > 0.0
    assert sup <= 0.01 * cap
    assert bat == 0.0
    print(f"dummy energy: capacitor {cap:.0f} J, supercap {sup:.1f} J, battery {bat:.0f} J")


def test_ideal_beats_presets(preset_results):
    base = preset_results["none"]
    g_ideal = ps.computational_gain(preset_results["ideal"], base)
    for name in ("capacitor", "supercap", "battery"):
        assert g_ideal >= ps.computational_gain(preset_results[name], base)
    assert preset_results["ideal"].total_unserved_energy_j == 0.0


@pytest.mark.parametrize("config", [
    SimConfig(),
    # Low enough that the battery's rating binds: shortfall events and
    # restart holds.
    SimConfig(threshold=ThresholdSpec(fraction_of_max=0.3), restart_penalty_s=1.0),
], ids=["default", "shortfalls"])
def test_battery_charge_side_and_switching_change_nothing(short_trace, config):
    # The feed stops at the need, so a battery is never offered a charge,
    # and it starts armed for discharge, so it never switches: in a
    # simulation it is a discharge with no lag.
    preset = builtin_device_spec("battery")
    changed = dataclasses.replace(preset, max_charge_w=0.0, round_trip_efficiency=0.5,
                                  switch_latency_s=5.0)
    runs = [run_sim(short_trace, spec, config) for spec in (preset, changed)]
    if config.restart_penalty_s == 1.0:
        assert runs[0].unserved_spike_count > 0
    for f in dataclasses.fields(ps.ShavingResult):
        a, b = (getattr(r, f.name) for r in runs)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


def test_none_strategy_uses_no_device(preset_results):
    r = preset_results["none"]
    assert np.all(r.p_ext_discharge == 0.0)
    assert np.all(r.p_ext_charge == 0.0)
    assert np.all(r.stored_j == 0.0)


# ---------------------------------------------------------------------------
# 9. Export formats
# ---------------------------------------------------------------------------

def test_result_csv_layout():
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    r = run_sim(tr, "none", loose_config(threshold=ThresholdSpec(absolute_w=600.0),
                                         restart_penalty_s=0.0))
    buf = io.StringIO()
    ps.write_result_csv(r, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("p_comp_demand,p_comp_served,p_grid,p_ext_discharge,"
                        "p_ext_charge,p_dummy,curtailed_w,stored_j,temperature_c")
    assert len(lines) == 1 + r.n_steps
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 300.0


# Values whose repr is easy to get wrong when formatting is shared between
# cells: signed zeros, subnormals, and both sides of repr's switches to
# exponent form (above 1e16 and below 1e-4).
AWKWARD_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                  9999999999999998.0, 1e16, 1.0000000000000002e16, 1.2e17,
                  1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05,
                  700.0, 0.1, math.inf, -math.inf, math.nan)


def naive_result_csv(result):
    """write_result_csv's text, one repr(float(x)) per cell."""
    names = ("p_comp_demand", "p_comp_served", "p_grid", "p_ext_discharge",
             "p_ext_charge", "p_dummy", "curtailed_w", "stored_j", "temperature_c")
    lines = [",".join(names)]
    for i in range(result.n_steps):
        lines.append(",".join(repr(float(getattr(result, name)[i])) for name in names))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("offset", [-1, 0, 1, None])
def test_result_csv_matches_per_cell_repr(offset):
    from dataclasses import replace
    from powershave._textio import CSV_BLOCK_ROWS
    n = 1 if offset is None else CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    pool = np.array(AWKWARD_FLOATS)
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    base = run_sim(tr, "none", loose_config(threshold=ThresholdSpec(absolute_w=600.0)))
    cols = {name: rng.choice(pool, size=n) for name in (
        "p_comp_demand", "p_comp_served", "p_grid", "p_ext_discharge",
        "p_ext_charge", "p_dummy", "curtailed_w")}
    # A column without repeats, signed zeros at its head.
    distinct = np.arange(n, dtype=float) * 1e-5
    distinct[0] = -0.0
    cols["stored_j"] = distinct
    # Repeats that straddle the block boundary, among values unique to them.
    straddle = np.arange(n, dtype=float) + 0.5
    straddle[CSV_BLOCK_ROWS - 2:CSV_BLOCK_ROWS + 2] = -0.0
    straddle[0] = 0.0
    straddle[1:2] = -0.0
    cols["temperature_c"] = straddle
    result = replace(base, **cols)
    buf = io.StringIO()
    ps.write_result_csv(result, buf)
    assert buf.getvalue() == naive_result_csv(result)


def test_result_summary_json_fields():
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    r = run_sim(tr, "ideal", loose_config(threshold=ThresholdSpec(absolute_w=600.0),
                                          restart_penalty_s=0.0))
    buf = io.StringIO()
    ps.write_result_summary_json(r, buf)
    doc = json.loads(buf.getvalue())
    for key in ("strategy", "threshold_w", "total_dummy_energy_j",
                "total_unserved_energy_j", "curtailed_gpu_seconds",
                "unserved_spike_count", "device_energy_throughput_j",
                "final_stored_j", "peak_grid_w", "ramp_violation_count",
                "useful_compute_j"):
        assert key in doc
    assert doc["strategy"] == "ideal"
    assert doc["total_unserved_energy_j"] == 0.0


def test_result_summary_json_rejects_nan():
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    r = run_sim(tr, "ideal", loose_config(threshold=ThresholdSpec(absolute_w=600.0)))
    buf = io.StringIO()
    with pytest.raises(ValueError):
        ps.write_result_summary_json(dataclasses.replace(r, total_dummy_energy_j=math.nan),
                                     buf)
    assert buf.getvalue() == ""


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
