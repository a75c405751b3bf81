"""Bit-exact reference oracle for the shaving kernel.

reference_simulate_shaving is the per-step co-simulation as it stood before
the kernel was flattened: it calls a checked device step and the thermal
step every step and rescans a list of restart holds.  It keeps its own
copy of that era's device physics (reference_device_step and its helpers),
so it never reaches the kernel's device code.  Only the data classes
(DeviceSpec, DeviceState, SimConfig, ShavingResult, PowerTrace) and
init_state, which gives a device's starting state, are shared.

Seeded cases cover short traces with plateaus, samples exactly at the
threshold and -0.0 samples, dt from 1 ms to 50 ms, restart penalties zero
and positive, absolute and fractional thresholds, tight and loose ramp
limits, and every strategy: none, ideal, the three presets and random
valid batteries and passive devices (SOC windows, efficiency below 1, zero
charge rating, switch latency that is not a multiple of dt).  Every series
must match bit for bit, every total by repr, and the ramp-violation steps
exactly.

device_step is checked against reference_device_step on its own, step by
step, over seeded sequences of discharge requests, charge offers and idle
steps for every kind: battery switch latencies of zero, below dt, equal
to dt and not a multiple of dt, efficiency below 1, a zero charge rating
and narrowed SOC windows.  Each step's (delivered, absorbed, DeviceState)
must match by repr.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import powershave as ps
from powershave.devices import DEVICE_KINDS, PASSIVE_KINDS, DeviceSpec, init_state
from powershave.shaving import ShavingResult

_TIME_EPS = 1e-12


# ---------------------------------------------------------------------------
# Reference device physics
# ---------------------------------------------------------------------------

def _lag_step(last, target, dt, tau):
    if tau <= 0.0:
        return target
    step = last + (target - last) * (1.0 - math.exp(-dt / tau))
    # The lag shapes the rise only; a falling target is honoured at once.
    return min(step, target)


def reference_device_step(spec, state, requested_discharge_w, available_charge_w, dt_s):
    if dt_s <= 0.0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    if requested_discharge_w < 0.0 or available_charge_w < 0.0:
        raise ValueError("power arguments must be non-negative")
    if requested_discharge_w > 0.0 and available_charge_w > 0.0:
        raise ValueError("cannot request discharge and offer charge in the same step")
    if spec.kind in PASSIVE_KINDS:
        return _passive_step(spec, state, requested_discharge_w, available_charge_w, dt_s)
    return _battery_step(spec, state, requested_discharge_w, available_charge_w, dt_s)


def _usable_w(spec, stored, dt):
    return max(0.0, stored - spec.soc_min_frac * spec.energy_capacity_j) / dt


def _headroom_w(spec, stored, dt):
    room = max(0.0, spec.soc_max_frac * spec.energy_capacity_j - stored)
    return room / (dt * spec.round_trip_efficiency)


def _soc_floor(spec, stored):
    return max(stored, spec.soc_min_frac * spec.energy_capacity_j)


def _soc_ceil(spec, stored):
    return min(stored, spec.soc_max_frac * spec.energy_capacity_j)


def _passive_step(spec, state, request, available, dt):
    if request > 0.0:
        base = state.last_output_w if state.mode == "discharging" else 0.0
        target = min(request, spec.max_discharge_w, _usable_w(spec, state.stored_j, dt))
        delivered = _lag_step(base, target, dt, spec.response_tau_s)
        new = replace(state, stored_j=_soc_floor(spec, state.stored_j - delivered * dt),
                      mode="discharging", last_output_w=delivered)
        return delivered, 0.0, new
    if available > 0.0:
        absorbed = min(available, spec.max_charge_w, _headroom_w(spec, state.stored_j, dt))
        gained = absorbed * dt * spec.round_trip_efficiency
        new = replace(state, stored_j=_soc_ceil(spec, state.stored_j + gained),
                      mode="charging", last_output_w=absorbed)
        return 0.0, absorbed, new
    return 0.0, 0.0, replace(state, mode="idle", last_output_w=0.0)


def _battery_step(spec, state, request, available, dt):
    want = "discharging" if request > 0.0 else ("charging" if available > 0.0 else None)

    if state.mode == "switching":
        if want is not None and want != state.switch_target:
            return 0.0, 0.0, replace(state, switch_target=want,
                                     switch_remaining_s=spec.switch_latency_s - dt,
                                     last_output_w=0.0)
        remaining = state.switch_remaining_s - dt
        if remaining > _TIME_EPS:
            return 0.0, 0.0, replace(state, switch_remaining_s=remaining, last_output_w=0.0)
        return 0.0, 0.0, replace(state, mode=state.switch_target, switch_target=None,
                                 switch_remaining_s=0.0, last_output_w=0.0)

    if want is None:
        return 0.0, 0.0, state

    if state.mode != want:
        if spec.switch_latency_s > 0.0:
            remaining = spec.switch_latency_s - dt
            if remaining > _TIME_EPS:
                return 0.0, 0.0, replace(state, mode="switching", switch_target=want,
                                         switch_remaining_s=remaining, last_output_w=0.0)
            return 0.0, 0.0, replace(state, mode=want, switch_target=None,
                                     switch_remaining_s=0.0, last_output_w=0.0)
        state = replace(state, mode=want)

    if want == "discharging":
        delivered = min(request, spec.max_discharge_w, _usable_w(spec, state.stored_j, dt))
        new = replace(state, stored_j=_soc_floor(spec, state.stored_j - delivered * dt),
                      last_output_w=delivered)
        return delivered, 0.0, new
    absorbed = min(available, spec.max_charge_w, _headroom_w(spec, state.stored_j, dt))
    gained = absorbed * dt * spec.round_trip_efficiency
    new = replace(state, stored_j=_soc_ceil(spec, state.stored_j + gained),
                  last_output_w=absorbed)
    return 0.0, absorbed, new


# ---------------------------------------------------------------------------
# Reference kernel
# ---------------------------------------------------------------------------

def reference_thermal_step(temp_c, heat_input_w, config, dt_s):
    if dt_s <= 0.0:
        raise ValueError("dt_s must be positive")
    drive = heat_input_w * config.k_scale_c_per_w - (temp_c - config.t_ambient_c)
    return temp_c + dt_s * drive / config.thermal_tau_s


def reference_simulate_shaving(trace, spec, config, steps=None):
    """steps, when a list, receives (d_eff, deficit, surplus, live_short)
    of every step."""
    if spec == "none" or spec == "ideal":
        strategy = spec
    else:
        strategy = spec.kind
    theta = config.threshold.resolve(trace.rack_max_w)
    p_infra = config.p_infra_w
    cap = p_infra + theta
    dt = trace.dt_s
    r_step = config.grid_ramp_limit_w_per_s * dt
    gpu_w = config.gpu_unit_w
    n = trace.n_samples
    samples = trace.samples

    ideal = strategy == "ideal"
    device = spec if isinstance(spec, DeviceSpec) else None
    if ideal:
        tracked_feed = False
    elif device is None:
        tracked_feed = True
    else:
        tracked_feed = device.kind in PASSIVE_KINDS

    dstate = None
    if device is not None:
        dstate = init_state(device)
        if device.kind == "battery":
            dstate = replace(dstate, mode="discharging")

    served_a = np.zeros(n)
    grid_a = np.zeros(n)
    discharge_a = np.zeros(n)
    charge_a = np.zeros(n)
    dummy_a = np.zeros(n)
    curtailed_a = np.zeros(n)
    stored_a = np.zeros(n)
    temp_a = np.zeros(n)
    violations = []

    penalties = []
    in_event = False
    event_max_gpus = 0
    unserved_events = 0

    temp = config.t_ambient_c
    k_heat = config.heat_factor
    c_prev = 0.0
    g_prev = 0.0
    restart = config.restart_penalty_s

    for i in range(n):
        t_now = i * dt
        blocked = 0
        if restart > 0.0:
            if in_event:
                blocked = event_max_gpus
            if penalties:
                penalties = [p for p in penalties if p[0] > t_now + 1e-12]
                for _, g_cnt in penalties:
                    if g_cnt > blocked:
                        blocked = g_cnt

        demand = float(samples[i])
        d_eff = demand if not blocked else max(0.0, demand - blocked * gpu_w)
        if ideal:
            d_eff = demand

        need = p_infra + min(d_eff, theta)
        if tracked_feed and i > 0:
            c = min(max(need, c_prev - r_step), c_prev + r_step)
            if c > cap:
                c = cap
        else:
            c = need

        deficit = p_infra + d_eff - c
        if deficit < 0.0:
            deficit = 0.0
        surplus = c - need
        if surplus < 0.0:
            surplus = 0.0

        if ideal:
            delivered, absorbed = deficit, 0.0
        elif device is not None:
            request = deficit if deficit > 0.0 else 0.0
            offer = surplus if deficit <= 0.0 else 0.0
            delivered, absorbed, dstate = reference_device_step(device, dstate, request,
                                                                offer, dt)
        else:
            delivered, absorbed = 0.0, 0.0

        shortfall = deficit - delivered
        if shortfall < 0.0:
            shortfall = 0.0
        escal = min(shortfall, cap - c)
        live_short = shortfall - escal
        # A shortfall that sheds no accelerator is served.
        if not live_short / gpu_w - 1e-9 > 0.0:
            live_short = 0.0

        served = d_eff - live_short
        dummy = surplus - absorbed
        if dummy < 0.0:
            dummy = 0.0
        grid = p_infra + served + dummy + absorbed - delivered

        if i > 0 and abs(grid - g_prev) > r_step * (1.0 + 1e-9):
            violations.append(i)

        if live_short > 0.0:
            if not in_event:
                in_event = True
                event_max_gpus = 0
                unserved_events += 1
            shed = math.ceil(live_short / gpu_w - 1e-9)
            if restart > 0.0:
                event_max_gpus += shed
            elif shed > event_max_gpus:
                event_max_gpus = shed
        elif in_event:
            in_event = False
            if restart > 0.0 and event_max_gpus > 0:
                penalties.append((t_now + restart, event_max_gpus))

        temp = reference_thermal_step(temp, k_heat * (served + dummy), config, dt)
        if steps is not None:
            steps.append((d_eff, deficit, surplus, live_short))

        served_a[i] = served
        grid_a[i] = grid
        discharge_a[i] = delivered
        charge_a[i] = absorbed
        dummy_a[i] = dummy
        curtailed_a[i] = demand - served
        stored_a[i] = dstate.stored_j if dstate is not None else 0.0
        temp_a[i] = temp
        c_prev = c
        g_prev = grid

    demand_a = samples.astype(float, copy=True)
    gpu_steps = np.ceil(np.maximum(curtailed_a, 0.0) / gpu_w - 1e-9)
    result = ShavingResult(
        strategy=strategy,
        threshold_w=theta,
        dt_s=dt,
        rack_max_w=trace.rack_max_w,
        config=config,
        p_comp_demand=demand_a,
        p_comp_served=served_a,
        p_grid=grid_a,
        p_ext_discharge=discharge_a,
        p_ext_charge=charge_a,
        p_dummy=dummy_a,
        curtailed_w=curtailed_a,
        stored_j=stored_a,
        total_dummy_energy_j=float(dummy_a.sum() * dt),
        total_unserved_energy_j=float(curtailed_a.sum() * dt),
        curtailed_gpu_seconds=float(gpu_steps.sum() * dt),
        unserved_spike_count=unserved_events,
        device_energy_throughput_j=float((discharge_a.sum() + charge_a.sum()) * dt),
        ramp_violation_steps=np.asarray(violations, dtype=np.int64),
    )
    # The reference's own per-step walk stands as the record's temperature,
    # so the kernel's walk on first read is checked against it.
    object.__setattr__(result, "temperature_c", temp_a)
    return result


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------

N_CASES = 150
STRATEGIES = ("none", "ideal", "capacitor", "supercap", "battery",
              "random-battery", "random-passive")


def _case_config(rng, rack_max):
    if rng.random() < 0.5:
        threshold = ps.ThresholdSpec(fraction_of_max=float(rng.uniform(0.3, 0.9)))
    else:
        threshold = ps.ThresholdSpec(absolute_w=float(rng.uniform(0.3, 0.9) * rack_max))
    if rng.random() < 0.3:
        ramp = 1e12
    else:
        ramp = float(rack_max * rng.uniform(0.05, 2.0))
    return ps.SimConfig(
        threshold=threshold,
        p_infra_w=float(rng.choice([0.0, 0.01 * rack_max, 0.15 * rack_max])),
        grid_ramp_limit_w_per_s=ramp,
        restart_penalty_s=float(rng.choice([0.0, 0.05, 1.0, 60.0, rng.uniform(0.0, 0.5)])),
        gpu_unit_w=float(rack_max * rng.uniform(0.002, 0.05)),
        thermal_tau_s=float(rng.uniform(0.5, 200.0)),
        thermal_ref_power_w=float(rack_max),
    )


def _case_trace(rng, rack_max, theta):
    """Plateaus of random length and level, some exactly at the threshold
    and some at -0.0, with noise on part of them."""
    n = int(rng.integers(40, 400))
    dt = float(rng.choice([0.001, 0.005, 0.01, 0.05, rng.uniform(0.001, 0.05)]))
    samples = np.empty(n)
    i = 0
    while i < n:
        seg = samples[i:i + int(rng.integers(1, 40))]
        kind = rng.random()
        if kind < 0.15:
            seg[:] = theta
        elif kind < 0.25:
            seg[:] = -0.0
        elif rng.random() < 0.6:
            seg[:] = rng.uniform(0.0, rack_max)
        else:
            seg[:] = np.abs(rng.uniform(0.0, rack_max) + rng.normal(0.0, 0.05 * rack_max, seg.size))
        i += seg.size
    return ps.PowerTrace(dt_s=dt, samples=samples, rack_max_w=rack_max,
                         source_label="oracle")


def _random_device(rng, kind, rack_max, duration):
    lo = float(rng.uniform(0.0, 0.4)) if rng.random() < 0.5 else 0.0
    hi = float(rng.uniform(lo + 0.1, 1.0)) if rng.random() < 0.5 else 1.0
    spec = dict(
        kind=kind,
        energy_capacity_j=float(rack_max * duration * rng.uniform(0.002, 0.3)),
        max_discharge_w=float(rack_max * rng.uniform(0.05, 0.6)),
        max_charge_w=0.0 if rng.random() < 0.2 else float(rack_max * rng.uniform(0.01, 0.5)),
        soc_min_frac=lo,
        soc_max_frac=hi,
    )
    if kind == "battery":
        if rng.random() < 0.7:
            spec["round_trip_efficiency"] = float(rng.uniform(0.6, 1.0))
        if rng.random() < 0.8:
            spec["switch_latency_s"] = float(rng.uniform(0.0, 0.2))
    elif rng.random() < 0.7:
        spec["response_tau_s"] = float(rng.uniform(0.001, 0.5))
    return DeviceSpec(**spec)


def _case(k):
    """(trace, config, {strategy: device}) of seeded case k."""
    rng = np.random.default_rng([20261018, k])
    rack_max = float(rng.uniform(5e3, 2e5))
    config = _case_config(rng, rack_max)
    trace = _case_trace(rng, rack_max, config.threshold.resolve(rack_max))
    duration = trace.duration_s
    devices = {
        "none": "none",
        "ideal": "ideal",
        "capacitor": ps.builtin_device_spec("capacitor"),
        "supercap": ps.builtin_device_spec("supercap"),
        "battery": ps.builtin_device_spec("battery"),
        "random-battery": _random_device(rng, "battery", rack_max, duration),
        "random-passive": _random_device(rng, str(rng.choice(PASSIVE_KINDS)),
                                         rack_max, duration),
    }
    return trace, config, devices


@pytest.fixture(scope="module")
def cases():
    return [_case(k) for k in range(N_CASES)]


def _same(got, want):
    """Bit equality for arrays (so -0.0 differs from 0.0) and repr
    equality for scalars; anything else by ==."""
    if isinstance(want, np.ndarray):
        return (got.dtype == want.dtype and got.shape == want.shape
                and np.array_equal(got.view(np.uint8), want.view(np.uint8)))
    if isinstance(want, float):
        return type(got) is float and repr(got) == repr(want)
    return got == want


def assert_same_result(got, want, label):
    for name in [f.name for f in fields(ShavingResult)] + ["temperature_c"]:
        a, b = getattr(got, name), getattr(want, name)
        assert _same(a, b), f"{label}: {name} differs"
    assert _same(ps.result_summary_dict(got), ps.result_summary_dict(want)), label


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_kernel_matches_reference(cases, strategy):
    for k, (trace, config, devices) in enumerate(cases):
        spec = devices[strategy]
        assert_same_result(ps.simulate_shaving(trace, spec, config),
                           reference_simulate_shaving(trace, spec, config),
                           f"case {k} {strategy}")


def test_cases_reach_every_branch(cases):
    # The cases are only as good as what they exercise: shortfall with
    # restart holds, ramp violations, empty devices, lagged and switching
    # devices, and threshold and -0.0 samples.
    seen = dict(holds=0, violations=0, empty=0, neg_zero=0, at_theta=0,
                battery_holds=0, battery_quiet_gaps=0, tracked_ends_above=0,
                tracked_ends_at_or_below=0, passive_idle_gaps=0,
                lagged_discharge_after_charge=0, lagged_discharge_after_idle=0)
    for trace, config, devices in cases:
        theta = config.threshold.resolve(trace.rack_max_w)
        seen["neg_zero"] += bool(np.any(np.signbit(trace.samples)))
        seen["at_theta"] += bool(np.any(trace.samples == theta))
        # The tracked-feed kernel works out the live shortfall only on steps
        # with d_eff above theta, so a shortfall event must be seen to end
        # both there (the device or the escalation covered the step) and on
        # a step at or below theta.  A passive device also takes an idle
        # step, neither asked nor offered anything, between active ones.
        for name in ("none", "random-passive"):
            steps = []
            r = reference_simulate_shaving(trace, devices[name], config, steps)
            d_eff, deficit, surplus, live = np.array(steps).T
            # An event is open on a step iff the step before left a live
            # shortfall.
            ends = np.flatnonzero((live[:-1] > 0.0) & (live[1:] == 0.0)) + 1
            seen["tracked_ends_above"] += bool(np.any(theta < d_eff[ends]))
            seen["tracked_ends_at_or_below"] += bool(np.any(d_eff[ends] <= theta))
        # From here on r and the step columns are random-passive's.
        idle = (deficit <= 0.0) & (surplus <= 0.0)
        active = np.flatnonzero(~idle)
        seen["passive_idle_gaps"] += bool(active.size
                                          and idle[active[0]:active[-1]].any())
        spec = devices["random-passive"]
        # A lagged discharge starts from 0.0 after a step that did not
        # discharge, whether that step charged or idled.
        if spec.response_tau_s > 0.0:
            discharge = deficit > 0.0
            charge = ~discharge & ~idle
            seen["lagged_discharge_after_charge"] += bool(np.any(discharge[1:] & charge[:-1]))
            seen["lagged_discharge_after_idle"] += bool(np.any(discharge[1:] & idle[:-1]))
        seen["empty"] += bool(np.any(r.stored_j <= spec.soc_min_frac * spec.energy_capacity_j))
        seen["violations"] += r.ramp_violation_count > 0
        seen["holds"] += config.restart_penalty_s > 0.0 and r.unserved_spike_count > 1
        # The battery kernel walks only the steps that can change state, in
        # two modes: step by step through a live restart hold, and jumping
        # over the quiet steps between steps with demand above theta.
        above = trace.samples > theta
        for name in ("battery", "random-battery"):
            r = reference_simulate_shaving(trace, devices[name], config)
            seen["battery_holds"] += (config.restart_penalty_s > 0.0
                                      and r.unserved_spike_count > 1)
            seen["battery_quiet_gaps"] += bool(above.any() and not above.all())
    assert min(seen.values()) >= 10, seen


def _steps_match(spec, state, dt, rng, n_steps, label):
    """Step device_step and reference_device_step side by side from state
    through runs of discharge requests, charge offers and idle steps, in
    random order and length, until a run ends at or past n_steps.  Each
    step's (delivered, absorbed, new state) must match by repr, so bit
    for bit and type for type.  Returns each step's (delivered, absorbed,
    new state)."""
    ref = state
    out = []
    while len(out) < n_steps:
        side = rng.integers(3)
        for _ in range(int(rng.integers(1, 12))):
            amount = float(rng.uniform(0.0, 1.5 * spec.max_discharge_w))
            request, offer = ((amount, 0.0) if side == 0 else
                              (0.0, amount) if side == 1 else (0.0, 0.0))
            *got, state = ps.device_step(spec, state, request, offer, dt)
            *want, ref = reference_device_step(spec, ref, request, offer, dt)
            assert repr((got, state)) == repr((want, ref)), (
                f"{label} step {len(out)}: {got, state} != {want, ref}")
            out.append((*got, state))
    return out


@pytest.mark.parametrize("kind", DEVICE_KINDS)
def test_device_step_matches_reference(kind):
    # simulate_shaving never offers a battery charge (its feed stops at
    # the need), so charging, efficiency and the switch machine are
    # checked here: runs of discharge requests, charge offers and idle
    # steps, in random order and length, from either starting mode.
    for k in range(40):
        rng = np.random.default_rng([20261019, k])
        dt = float(rng.choice([0.001, 0.005, 0.01, 0.05, rng.uniform(0.001, 0.05)]))
        spec = _random_device(rng, kind, 1e4, 200 * dt)
        state = init_state(spec)
        if rng.random() < 0.5:
            state = replace(state, mode="discharging")
        _steps_match(spec, state, dt, rng, 200, f"{kind} case {k}")


# Battery switch latencies in steps of dt: none, below one step, exactly
# one step, and two that are not a whole number of steps.
_LATENCY_STEPS = (0.0, 0.4, 1.0, 2.5, 3.7)


def _step_case(k, kind):
    """(spec, starting state, dt, rng) of seeded device-step case k.  A
    battery's latency cycles through _LATENCY_STEPS; odd cases raise
    soc_min_frac and cases not divisible by 3 lower soc_max_frac; every
    fourth case keeps the default efficiency (battery) or lag (passive),
    the others draw one; every fifth has a zero charge rating."""
    rng = np.random.default_rng([20261022, k])
    dt = float(rng.choice([0.001, 0.005, 0.01, 0.05, rng.uniform(0.001, 0.05)]))
    lo = float(rng.uniform(0.0, 0.4)) if k % 2 else 0.0
    hi = float(rng.uniform(lo + 0.1, 1.0)) if k % 3 else 1.0
    spec = dict(kind=kind, energy_capacity_j=float(1e4 * dt * rng.uniform(0.2, 8.0)),
                max_discharge_w=float(rng.uniform(500.0, 6000.0)),
                max_charge_w=0.0 if k % 5 == 0 else float(rng.uniform(100.0, 5000.0)),
                soc_min_frac=lo, soc_max_frac=hi)
    if kind == "battery":
        spec["switch_latency_s"] = _LATENCY_STEPS[k % len(_LATENCY_STEPS)] * dt
        if k % 4:
            spec["round_trip_efficiency"] = float(rng.uniform(0.6, 1.0))
    elif k % 4:
        spec["response_tau_s"] = float(rng.uniform(0.001, 0.5))
    spec = DeviceSpec(**spec)
    mode = str(rng.choice(["idle", "discharging", "charging"]))
    return spec, replace(init_state(spec), mode=mode), dt, rng


@pytest.mark.parametrize("kind", DEVICE_KINDS)
def test_device_step_matches_reference_on_seeded_sequences(kind):
    # The switch machine at every kind of latency, lossy charging, a zero
    # charge rating and narrowed SOC windows, 60 steps a case; the counts
    # show that the cases reach each of them.
    seen = dict(switching=0, lossy_charge=0, zero_charge_rating=0, at_floor=0,
                at_ceiling=0, **{f"turn at {m} dt": 0 for m in _LATENCY_STEPS})
    for k in range(300):
        spec, state, dt, rng = _step_case(k, kind)
        steps = _steps_match(spec, state, dt, rng, 60, f"{kind} case {k}")
        modes = [state.mode] + [s.mode for *_, s in steps]
        floor = spec.soc_min_frac * spec.energy_capacity_j
        ceiling = spec.soc_max_frac * spec.energy_capacity_j
        seen["switching"] += "switching" in modes
        seen["lossy_charge"] += spec.round_trip_efficiency < 1.0 and any(
            absorbed > 0.0 for _, absorbed, _ in steps)
        seen["zero_charge_rating"] += spec.max_charge_w == 0.0
        seen["at_floor"] += floor > 0.0 and any(s.stored_j <= floor for *_, s in steps)
        seen["at_ceiling"] += ceiling < spec.energy_capacity_j and any(
            absorbed > 0.0 and s.stored_j >= ceiling for _, absorbed, s in steps)
        latency = _LATENCY_STEPS[k % len(_LATENCY_STEPS)]
        seen[f"turn at {latency} dt"] += any(
            {a, b} == {"charging", "discharging"} or "switching" in (a, b)
            for a, b in zip(modes, modes[1:]))
    # A passive device has no switch machine and charges without loss.
    reached = [n for name, n in seen.items() if kind == "battery"
               or name not in ("switching", "lossy_charge") and not name.startswith("turn")]
    assert min(reached) >= 10, seen
