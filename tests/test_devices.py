"""Shaving-device models: spec validation, stepping, lag, switching.

Covers:
 1. capacitor_energy hand values and validation
 2. DeviceSpec / init_state invariants
 3. device_step hand examples (battery discharge, switch latency,
    lag-free capacitor, no-op)
 4. Energy bookkeeping and soc-window properties on random step sequences
 5. Rate caps: delivered / absorbed never exceed their limits
 6. Battery switching dwell and zero output while switching
 7. First-order lag step response against the analytic curve
 8. Spec JSON round trip and shipped presets
"""

import io
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import powershave as ps
from powershave.devices import (BUILTIN_DEVICE_NAMES, DeviceSpec, builtin_device_spec,
                                device_step, init_state, load_device_spec,
                                write_device_spec)

from conftest import with_numpy_numbers, written


def passive_spec(**overrides):
    base = dict(kind="capacitor", energy_capacity_j=100.0, max_discharge_w=1000.0,
                max_charge_w=1000.0, response_tau_s=0.0, switch_latency_s=0.0,
                round_trip_efficiency=1.0, soc_min_frac=0.0, soc_max_frac=1.0)
    base.update(overrides)
    return DeviceSpec(**base)


def battery_spec(**overrides):
    base = dict(kind="battery", energy_capacity_j=1000.0, max_discharge_w=500.0,
                max_charge_w=500.0, response_tau_s=0.0, switch_latency_s=0.02,
                round_trip_efficiency=0.9, soc_min_frac=0.1, soc_max_frac=0.9)
    base.update(overrides)
    return DeviceSpec(**base)


# ---------------------------------------------------------------------------
# 1. capacitor_energy
# ---------------------------------------------------------------------------

def test_capacitor_energy_values():
    assert ps.capacitor_energy(1.0, 10.0, 0.0) == pytest.approx(50.0)
    assert ps.capacitor_energy(1.0, 10.0, 10.0) == 0.0   # empty swing window
    assert ps.capacitor_energy(3.0, 5.0, 3.0) == pytest.approx(24.0)


def test_capacitor_energy_validation():
    with pytest.raises(ValueError):
        ps.capacitor_energy(0.0, 10.0)
    with pytest.raises(ValueError):
        ps.capacitor_energy(1.0, 5.0, 7.0)
    with pytest.raises(ValueError):
        ps.capacitor_energy(1.0, 5.0, -1.0)


# ---------------------------------------------------------------------------
# 2. DeviceSpec / init_state
# ---------------------------------------------------------------------------

def test_init_state_battery():
    spec = battery_spec(energy_capacity_j=3.6e6)
    st = init_state(spec)
    assert st.stored_j == pytest.approx(3.24e6)   # 0.9 x capacity
    assert st.mode == "idle"
    assert st.last_output_w == 0.0


def test_init_state_capacitor_full():
    spec = passive_spec(energy_capacity_j=50.0)
    assert init_state(spec).stored_j == pytest.approx(50.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        passive_spec(soc_min_frac=0.9, soc_max_frac=0.9)
    with pytest.raises(ValueError):
        passive_spec(soc_min_frac=0.95, soc_max_frac=0.9)
    with pytest.raises(ValueError):
        passive_spec(energy_capacity_j=0.0)
    with pytest.raises(ValueError):
        passive_spec(max_discharge_w=0.0)
    with pytest.raises(ValueError):
        passive_spec(response_tau_s=-0.1)
    with pytest.raises(ValueError):
        battery_spec(round_trip_efficiency=0.0)
    with pytest.raises(ValueError):
        battery_spec(round_trip_efficiency=1.2)
    with pytest.raises(ValueError):
        passive_spec(kind="flywheel")


@pytest.mark.parametrize("make, field, message", [
    (lambda: passive_spec(round_trip_efficiency=0.9), "round_trip_efficiency",
     "passive kinds have round_trip_efficiency fixed at 1.0"),
    (lambda: passive_spec(kind="supercapacitor", switch_latency_s=0.01), "switch_latency_s",
     "passive kinds have switch_latency_s fixed at 0.0"),
    (lambda: battery_spec(response_tau_s=0.01), "response_tau_s",
     "battery kind has response_tau_s fixed at 0.0"),
], ids=["passive-efficiency", "passive-latency", "battery-tau"])
def test_kind_fixed_fields_refused_by_name(make, field, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message and field in message


# ---------------------------------------------------------------------------
# 3. device_step hand examples
# ---------------------------------------------------------------------------

def test_battery_discharge_example():
    # Discharging, 100 J stored, request 400 W for 0.1 s: 40 J drawn.
    spec = battery_spec(energy_capacity_j=200.0, max_discharge_w=1000.0,
                        soc_min_frac=0.0, soc_max_frac=1.0,
                        switch_latency_s=0.0, round_trip_efficiency=1.0)
    st = replace(init_state(spec), stored_j=100.0, mode="discharging")
    delivered, absorbed, new = device_step(spec, st, 400.0, 0.0, 0.1)
    assert delivered == pytest.approx(400.0)
    assert absorbed == 0.0
    assert new.stored_j == pytest.approx(60.0)


def test_battery_switch_latency_two_steps():
    # Latency 0.02 s at dt 0.01 s costs exactly two dead steps.
    spec = battery_spec(switch_latency_s=0.02)
    st = init_state(spec)
    d1, _, s1 = device_step(spec, st, 400.0, 0.0, 0.01)
    assert d1 == 0.0 and s1.mode == "switching"
    assert s1.switch_remaining_s == pytest.approx(0.01)
    d2, _, s2 = device_step(spec, s1, 400.0, 0.0, 0.01)
    assert d2 == 0.0 and s2.mode == "discharging"
    d3, _, s3 = device_step(spec, s2, 400.0, 0.0, 0.01)
    assert d3 == pytest.approx(400.0)
    assert s3.stored_j == pytest.approx(st.stored_j - 4.0)


@pytest.mark.parametrize("latency", [0.01, 0.004])
def test_battery_switch_latency_within_a_step_loses_one_step(latency):
    # A turnaround no longer than dt = 0.01 s ends with the step that
    # starts it: that step delivers nothing, the next one delivers.
    spec = battery_spec(switch_latency_s=latency)
    st = init_state(spec)
    d1, a1, s1 = device_step(spec, st, 400.0, 0.0, 0.01)
    assert (d1, a1, s1) == (0.0, 0.0, replace(st, mode="discharging"))
    d2, _, s2 = device_step(spec, s1, 400.0, 0.0, 0.01)
    assert d2 == 400.0 and s2.stored_j == pytest.approx(st.stored_j - 4.0)


def test_capacitor_tau_zero_budget_limited():
    # 12 J at 600 W for 10 ms is affordable: 6 J drawn, 6 J left.
    spec = passive_spec(energy_capacity_j=50.0, max_discharge_w=12000.0)
    st = replace(init_state(spec), stored_j=12.0)
    delivered, absorbed, new = device_step(spec, st, 600.0, 0.0, 0.01)
    assert delivered == pytest.approx(600.0)
    assert absorbed == 0.0
    assert new.stored_j == pytest.approx(6.0)


def test_noop_step():
    for spec in (passive_spec(), battery_spec()):
        st = init_state(spec)
        delivered, absorbed, new = device_step(spec, st, 0.0, 0.0, 0.01)
        assert delivered == 0.0 and absorbed == 0.0
        assert new.stored_j == st.stored_j


def test_step_argument_validation():
    spec = passive_spec()
    st = init_state(spec)
    with pytest.raises(ValueError):
        device_step(spec, st, -1.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        device_step(spec, st, 0.0, -1.0, 0.01)
    with pytest.raises(ValueError):
        device_step(spec, st, 10.0, 10.0, 0.01)
    with pytest.raises(ValueError):
        device_step(spec, st, 10.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# 4/5. Randomized bookkeeping, soc window, and rate caps
# ---------------------------------------------------------------------------

def test_random_walk_invariants():
    rng = np.random.default_rng(42)
    specs = [
        passive_spec(energy_capacity_j=30.0, response_tau_s=0.003,
                     max_discharge_w=800.0, max_charge_w=500.0),
        passive_spec(kind="supercapacitor", energy_capacity_j=4000.0,
                     response_tau_s=0.02, soc_min_frac=0.05, soc_max_frac=0.95),
        battery_spec(),
        battery_spec(switch_latency_s=0.0, round_trip_efficiency=0.8),
    ]
    worst_closure = 0.0
    for spec in specs:
        st = init_state(spec)
        lo = spec.soc_min_frac * spec.energy_capacity_j
        hi = spec.soc_max_frac * spec.energy_capacity_j
        flow = 0.0
        start = st.stored_j
        for _ in range(3000):
            dt = float(rng.choice([0.002, 0.005, 0.01]))
            u = rng.random()
            if u < 0.45:
                req, avail = float(rng.uniform(0.0, 1200.0)), 0.0
            elif u < 0.9:
                req, avail = 0.0, float(rng.uniform(0.0, 1200.0))
            else:
                req, avail = 0.0, 0.0
            delivered, absorbed, st = device_step(spec, st, req, avail, dt)
            assert delivered <= min(req, spec.max_discharge_w) + 1e-12
            assert absorbed <= min(avail, spec.max_charge_w) + 1e-12
            assert lo - 1e-9 <= st.stored_j <= hi + 1e-9
            flow += (absorbed * spec.round_trip_efficiency - delivered) * dt
        closure = abs((st.stored_j - start) - flow)
        worst_closure = max(worst_closure, closure)
        assert closure <= 1e-9 * max(1.0, spec.energy_capacity_j)
    print(f"bookkeeping closure worst case: {worst_closure:.3e} J over 3000 steps x 4 specs")


# ---------------------------------------------------------------------------
# 6. Battery switching behaviour
# ---------------------------------------------------------------------------

def test_battery_silent_while_switching():
    spec = battery_spec(switch_latency_s=0.05)
    st = init_state(spec)
    dead = 0
    for _ in range(200):
        delivered, absorbed, st = device_step(spec, st, 300.0, 0.0, 0.01)
        if st.mode in ("switching",) or delivered == 0.0:
            assert delivered == 0.0 and absorbed == 0.0
            if st.mode == "switching" or (delivered == 0.0 and st.mode == "discharging"):
                dead += 1
        if st.mode == "discharging" and delivered > 0.0:
            break
    # Dwell equals the latency within one dt: 0.05 s / 0.01 s = 5 steps.
    assert dead in (4, 5, 6)


def test_battery_direction_flip_restarts_switch():
    spec = battery_spec(switch_latency_s=0.03)
    st = init_state(spec)
    _, _, st = device_step(spec, st, 300.0, 0.0, 0.01)   # toward discharging
    assert st.mode == "switching" and st.switch_target == "discharging"
    _, _, st = device_step(spec, st, 0.0, 300.0, 0.01)   # flip toward charging
    assert st.mode == "switching" and st.switch_target == "charging"
    assert st.switch_remaining_s == pytest.approx(0.02)


def test_battery_charge_respects_efficiency():
    spec = battery_spec(switch_latency_s=0.0, round_trip_efficiency=0.5,
                        soc_min_frac=0.0, soc_max_frac=1.0)
    st = replace(init_state(spec), stored_j=0.0, mode="charging")
    delivered, absorbed, new = device_step(spec, st, 0.0, 200.0, 0.1)
    assert absorbed == pytest.approx(200.0)
    # Only half the absorbed energy lands in the store.
    assert new.stored_j == pytest.approx(10.0)


def test_battery_charge_headroom_accounts_for_efficiency():
    # 1 J of headroom at efficiency 0.5 admits 2 J of absorbed energy.
    spec = battery_spec(switch_latency_s=0.0, round_trip_efficiency=0.5,
                        soc_min_frac=0.0, soc_max_frac=1.0,
                        energy_capacity_j=100.0, max_charge_w=10000.0)
    st = replace(init_state(spec), stored_j=99.0, mode="charging")
    delivered, absorbed, new = device_step(spec, st, 0.0, 10000.0, 0.1)
    assert absorbed == pytest.approx(20.0)
    assert new.stored_j == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# 7. First-order lag
# ---------------------------------------------------------------------------

def test_lag_step_response_analytic():
    # Constant request R from rest: delivered(t) = R(1 - e^(-t/tau)),
    # within 2% once dt <= tau / 10.
    tau = 0.05
    dt = tau / 10.0
    R = 400.0
    spec = passive_spec(energy_capacity_j=1e9, max_discharge_w=1e6,
                        response_tau_s=tau)
    st = init_state(spec)
    worst = 0.0
    for k in range(1, 120):
        delivered, _, st = device_step(spec, st, R, 0.0, dt)
        t = k * dt
        expect = R * (1.0 - math.exp(-t / tau))
        worst = max(worst, abs(delivered - expect) / R)
    assert worst <= 0.02
    print(f"lag step response max deviation: {worst * 100:.3f}% of R")


def test_lag_zero_tau_is_instant():
    spec = passive_spec(response_tau_s=0.0, energy_capacity_j=1e9,
                        max_discharge_w=1e6)
    st = init_state(spec)
    delivered, _, _ = device_step(spec, st, 777.0, 0.0, 0.01)
    assert delivered == pytest.approx(777.0)


def test_lag_never_overshoots_falling_target():
    # A falling request is honoured at once; output never exceeds it.
    spec = passive_spec(energy_capacity_j=1e9, max_discharge_w=1e6,
                        response_tau_s=0.02)
    st = init_state(spec)
    for _ in range(50):
        _, _, st = device_step(spec, st, 500.0, 0.0, 0.005)
    delivered, _, _ = device_step(spec, st, 100.0, 0.0, 0.005)
    assert delivered <= 100.0 + 1e-12


def test_recharge_is_not_lagged():
    # Absorption ramps to the offer immediately; only delivery transients
    # carry the response lag.
    spec = passive_spec(energy_capacity_j=1e6, response_tau_s=0.5,
                        max_charge_w=2000.0)
    st = replace(init_state(spec), stored_j=0.0)
    delivered, absorbed, _ = device_step(spec, st, 0.0, 1500.0, 0.01)
    assert absorbed == pytest.approx(1500.0)


# ---------------------------------------------------------------------------
# 8. Spec files
# ---------------------------------------------------------------------------

def test_spec_json_round_trip(tmp_path):
    spec = battery_spec()
    path = tmp_path / "bat.json"
    write_device_spec(spec, str(path))
    back = load_device_spec(str(path))
    assert back == spec


def test_spec_stream_round_trip():
    spec = passive_spec(kind="supercapacitor", energy_capacity_j=5000.0)
    buf = io.StringIO()
    write_device_spec(spec, buf)
    back = load_device_spec(io.StringIO(buf.getvalue()))
    assert back == spec


def test_spec_of_numpy_numbers_writes_python_bytes():
    spec = battery_spec()
    as_numpy = with_numpy_numbers(spec)
    assert type(as_numpy.energy_capacity_j) is float
    assert written(write_device_spec, as_numpy) == written(write_device_spec, spec)


def _random_spec(rng, kind):
    soc_min = rng.uniform(0.0, 0.5)
    passive = kind != "battery"
    return DeviceSpec(
        kind=kind, energy_capacity_j=rng.uniform(1.0, 1e8),
        max_discharge_w=rng.uniform(1.0, 1e6), max_charge_w=rng.uniform(0.0, 1e6),
        response_tau_s=rng.uniform(0.0, 2.0) if passive else 0.0,
        switch_latency_s=0.0 if passive else rng.uniform(0.0, 2.0),
        round_trip_efficiency=1.0 if passive else 1.0 - 0.5 * rng.random(),
        soc_min_frac=soc_min, soc_max_frac=rng.uniform(soc_min + 0.01, 1.0))


@pytest.mark.parametrize("kind", ["capacitor", "supercapacitor", "battery"])
def test_random_specs_round_trip(kind):
    rng = np.random.default_rng(2103)
    for _ in range(50):
        spec = _random_spec(rng, kind)
        text = written(write_device_spec, spec)
        back = load_device_spec(io.StringIO(text))
        assert back == spec
        assert written(write_device_spec, back) == text


@pytest.mark.parametrize("name", BUILTIN_DEVICE_NAMES)
def test_packaged_presets_are_the_writers_bytes(name):
    raw = (resources.files("powershave") / "data" / f"{name}.json").read_bytes()
    buf = io.BytesIO()
    write_device_spec(load_device_spec(io.BytesIO(raw)), buf)
    assert buf.getvalue() == raw


def test_builtin_presets_exist_and_validate():
    cap = builtin_device_spec("capacitor")
    sup = builtin_device_spec("supercap")
    bat = builtin_device_spec("battery")
    assert cap.kind == "capacitor"
    assert sup.kind == "supercapacitor"
    assert bat.kind == "battery"
    # The supercapacitor carries more charge and a slower response than
    # the plain capacitor.
    assert sup.energy_capacity_j > cap.energy_capacity_j
    assert sup.response_tau_s > cap.response_tau_s
    assert bat.energy_capacity_j > sup.energy_capacity_j
    with pytest.raises(ValueError):
        builtin_device_spec("flux-capacitor")


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
