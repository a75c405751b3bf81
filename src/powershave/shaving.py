"""Grid draw simulation for a rack trace with a peak-shaving device.

Power balance per step, all quantities in watts:

    p_grid + p_ext_discharge = p_infra + p_comp_served + p_dummy + p_ext_charge

The grid feed is capped at threshold + p_infra_w and is rate-limited by
grid_ramp_limit_w_per_s.  How the feed is driven depends on the shaving
strategy:

* "none" and passive devices (capacitor, supercapacitor) sit behind a
  ramp-following feed: the feed chases the compute demand no faster than
  the ramp limit, the storage element buffers the difference in both
  directions, and surplus the element cannot absorb burns off as dummy
  load so the feed never has to fall faster than allowed.
* battery ("active") and the ideal device modulate the feed directly:
  the feed follows demand up to the cap and the device injects whatever
  exceeds the cap.  No dummy load is ever scheduled; fast feed movements
  are charged against the ramp limit in the violation report.

Whenever the device cannot cover a deficit, the feed escalates above its
rate-limited path, up to the cap; each step whose feed moves faster than
the ramp limit allows is recorded in ramp_violation_steps.  Demand above
the cap that the device cannot serve is curtailed: whole accelerators
are shed (gpu_unit_w each) and, when restart_penalty_s is positive, stay
down through the rest of the shortfall and for restart_penalty_s beyond
its end before they may serve again.

A lumped first-order thermal node integrates the heat of served compute
plus dummy load; temperatures past t_derate_c de-rate the value of
served energy in the computational-gain metric (the simulation itself
never throttles).  Because nothing in the step loop reads the
temperature, the node is integrated after the loop, over the finished
served and dummy series, with the same Euler update as thermal_step.

Only the steps that can change state run as scalar code:

* The direct feed (battery, ideal) is array code.  The ideal device
  delivers the whole deficit, so it runs no loop.  A battery is walked
  step by step only where demand exceeds the threshold and while a
  shortfall event is open or a restart hold is live; on any other step
  it is asked for nothing, so its state stays as it is.
* The tracked feed ("none", passive devices) carries the feed from one
  step to the next, so its loop visits every step, but keeps only what a
  step hands the next: the restart holds and the open event, which set
  the effective demand; the rate-limited feed; the device state.  A step
  at or below the threshold leaves no live shortfall (escalation covers
  its whole deficit), so the shortfall, escalation and event opening run
  only on steps above it.  Need, surplus and dummy load are array passes
  after the loop.

Both keep the device state in local variables and advance it with a
stepper that devices.passive_stepper / devices.battery_stepper build once
per run, the same physics as device_step.  Nothing in a step reads the
grid feed it draws, so p_grid and the ramp check are array post-passes
over the finished series.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, asdict

import numpy as np

from ._textio import (check_finite, check_json_fields, read_json_object,
                      write_columns_csv, write_json)
from .trace import PowerTrace
from .spikes import ThresholdSpec, _runs_above
from .devices import DeviceSpec, battery_stepper, init_state, passive_stepper
# Unused here; bench/tracer.py patches shaving.device_step and shaving.thermal_step.
from .devices import device_step  # noqa: F401

__all__ = [
    "SimConfig",
    "ShavingResult",
    "simulate_shaving",
    "thermal_step",
    "derate_factor",
    "useful_compute_j",
    "computational_gain",
    "gpus_saved",
    "load_sim_config",
    "write_sim_config",
    "result_summary_dict",
    "write_result_csv",
    "write_result_summary_json",
]

# Series column order for CSV export.
_SERIES_NAMES = (
    "p_comp_demand", "p_comp_served", "p_grid", "p_ext_discharge",
    "p_ext_charge", "p_dummy", "curtailed_w", "stored_j", "temperature_c",
)

_W_EPS = 1e-9


@dataclass(frozen=True)
class SimConfig:
    threshold: ThresholdSpec = ThresholdSpec(fraction_of_max=0.7)
    p_infra_w: float = 20000.0
    # One tenth of the default rack scale per second: the feed follows
    # second-scale load swings but not millisecond burst edges.
    grid_ramp_limit_w_per_s: float = 14000.0
    restart_penalty_s: float = 60.0
    gpu_unit_w: float = 700.0
    heat_factor: float = 1.3
    thermal_tau_s: float = 120.0
    t_ambient_c: float = 25.0
    t_max_c: float = 75.0
    t_derate_c: float = 70.0
    derate_slope_per_c: float = 0.01
    thermal_ref_power_w: float = 140000.0

    def __post_init__(self):
        check_finite(self)
        if not isinstance(self.threshold, ThresholdSpec):
            raise ValueError("threshold must be a ThresholdSpec")
        if self.p_infra_w < 0.0:
            raise ValueError("p_infra_w must be non-negative")
        if not (self.grid_ramp_limit_w_per_s > 0.0):
            raise ValueError("grid_ramp_limit_w_per_s must be positive")
        if self.restart_penalty_s < 0.0:
            raise ValueError("restart_penalty_s must be non-negative")
        if not (self.gpu_unit_w > 0.0):
            raise ValueError("gpu_unit_w must be positive")
        if not (self.heat_factor > 0.0):
            raise ValueError("heat_factor must be positive")
        if not (self.thermal_tau_s > 0.0):
            raise ValueError("thermal_tau_s must be positive")
        if not (self.t_max_c > self.t_ambient_c):
            raise ValueError("t_max_c must exceed t_ambient_c")
        if self.t_derate_c < self.t_ambient_c:
            raise ValueError("t_derate_c must be at least t_ambient_c")
        if self.derate_slope_per_c < 0.0:
            raise ValueError("derate_slope_per_c must be non-negative")
        if not (self.thermal_ref_power_w > 0.0):
            raise ValueError("thermal_ref_power_w must be positive")

    @property
    def k_scale_c_per_w(self) -> float:
        """Steady-state heating coefficient: holding thermal_ref_power_w of
        heat input settles the node at t_max_c."""
        return (self.t_max_c - self.t_ambient_c) / self.thermal_ref_power_w


def write_sim_config(config: SimConfig, dest) -> None:
    """Sorted fields; the threshold holds only the field that is set."""
    d = asdict(config)
    d["threshold"] = {k: v for k, v in d["threshold"].items() if v is not None}
    write_json(d, dest)


def load_sim_config(source) -> SimConfig:
    data = read_json_object(source, "sim config")
    check_json_fields(SimConfig, data, "sim config")
    data = dict(data)
    if "threshold" in data:
        thr = data["threshold"]
        if not isinstance(thr, dict):
            raise ValueError("threshold must be an object")
        check_json_fields(ThresholdSpec, thr, "threshold")
        data["threshold"] = ThresholdSpec(**thr)
    return SimConfig(**data)


def thermal_step(temp_c: float, heat_input_w: float, config: SimConfig,
                 dt_s: float) -> float:
    """One explicit Euler step of the lumped rack thermal node."""
    if dt_s <= 0.0:
        raise ValueError("dt_s must be positive")
    drive = heat_input_w * config.k_scale_c_per_w - (temp_c - config.t_ambient_c)
    return temp_c + dt_s * drive / config.thermal_tau_s


def derate_factor(temp_c, config: SimConfig):
    """Capacity factor of served compute at the given rack temperature, or
    elementwise over an array of temperatures."""
    over = np.maximum(0.0, temp_c - config.t_derate_c)
    return np.maximum(0.0, 1.0 - config.derate_slope_per_c * over)


@dataclass(frozen=True)
class ShavingResult:
    """Per-step series plus run totals.  All series share the trace
    length; stored_j is identically zero for the "none" and "ideal"
    strategies (nothing finite to track)."""

    strategy: str
    threshold_w: float
    dt_s: float
    rack_max_w: float
    config: SimConfig
    p_comp_demand: np.ndarray
    p_comp_served: np.ndarray
    p_grid: np.ndarray
    p_ext_discharge: np.ndarray
    p_ext_charge: np.ndarray
    p_dummy: np.ndarray
    curtailed_w: np.ndarray
    stored_j: np.ndarray
    temperature_c: np.ndarray
    total_dummy_energy_j: float
    total_unserved_energy_j: float
    curtailed_gpu_seconds: float
    unserved_spike_count: int
    device_energy_throughput_j: float
    ramp_violation_steps: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.p_comp_demand.shape[0]

    @property
    def ramp_violation_count(self) -> int:
        return int(self.ramp_violation_steps.shape[0])

    @property
    def peak_grid_w(self) -> float:
        return float(self.p_grid.max()) if self.n_steps else 0.0

    @property
    def final_stored_j(self) -> float:
        return float(self.stored_j[-1]) if self.n_steps else 0.0


def _strategy_label(spec) -> str:
    if spec == "none" or spec is None:
        return "none"
    if spec == "ideal":
        return "ideal"
    if isinstance(spec, DeviceSpec):
        return spec.kind
    raise ValueError(f"device must be a DeviceSpec, 'none' or 'ideal'; got {spec!r}")


def simulate_shaving(trace: PowerTrace, spec, config: SimConfig) -> ShavingResult:
    """Run the step-by-step co-simulation; see the module docstring for
    the feed policies.  spec is a DeviceSpec, "none", or "ideal"."""
    if not isinstance(trace, PowerTrace):
        raise ValueError("trace must be a PowerTrace")
    if not isinstance(config, SimConfig):
        raise ValueError("config must be a SimConfig")
    strategy = _strategy_label(spec)

    theta = config.threshold.resolve(trace.rack_max_w)
    p_infra = config.p_infra_w
    dt = trace.dt_s
    gpu_w = config.gpu_unit_w
    n = trace.n_samples

    demand_a = trace.samples.astype(float, copy=True)
    served_a = np.zeros(n)
    grid_a = np.zeros(n)
    discharge_a = np.zeros(n)
    charge_a = np.zeros(n)
    dummy_a = np.zeros(n)
    curtailed_a = np.zeros(n)
    stored_a = np.zeros(n)
    temp_a = np.zeros(n)

    if strategy in ("ideal", "battery"):
        # grid_a holds each step's need until the post-pass below.
        unserved_events = _direct_feed(
            demand_a, served_a, discharge_a, stored_a, grid_a,
            spec if strategy == "battery" else None, config, theta, dt)
    else:
        # grid_a and temp_a are scratch until the post-passes below.
        unserved_events = _step_loop(
            demand_a, served_a, grid_a, discharge_a, charge_a, dummy_a,
            stored_a, temp_a, spec if strategy != "none" else None, config,
            theta, dt)

    # Nothing in the step reads the grid feed it draws, so the feed and the
    # ramp check follow here, in the step's own order of operations:
    # p_infra + served + dummy + absorbed - delivered.
    np.add(p_infra, served_a, out=grid_a)
    grid_a += dummy_a
    grid_a += charge_a
    grid_a -= discharge_a
    r_bound = config.grid_ramp_limit_w_per_s * dt * (1.0 + 1e-9) + _W_EPS
    # temp_a[1:] holds |grid[i] - grid[i-1]| until the thermal pass below
    # overwrites it.
    jumps = temp_a[1:]
    np.subtract(grid_a[1:], grid_a[:-1], out=jumps)
    np.abs(jumps, out=jumps)
    violations = np.flatnonzero(jumps > r_bound)
    violations += 1

    # The simulation never reads the temperature, so the thermal node is
    # integrated here, with thermal_step's Euler update, over the heat of
    # served compute plus dummy load.
    k_scale = config.k_scale_c_per_w
    t_amb = config.t_ambient_c
    tau = config.thermal_tau_s
    # temp_a holds each step's heat input until that step's temperature
    # overwrites it.
    np.add(served_a, dummy_a, out=temp_a)
    temp_a *= config.heat_factor
    temp_m = memoryview(temp_a)
    temp = t_amb
    for i, heat in enumerate(temp_m):
        temp = temp + dt * (heat * k_scale - (temp - t_amb)) / tau
        temp_m[i] = temp

    np.subtract(demand_a, served_a, out=curtailed_a)
    gpu_steps = np.ceil(np.maximum(curtailed_a, 0.0) / gpu_w - 1e-9)
    return ShavingResult(
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
        temperature_c=temp_a,
        total_dummy_energy_j=float(dummy_a.sum() * dt),
        total_unserved_energy_j=float(curtailed_a.sum() * dt),
        curtailed_gpu_seconds=float(gpu_steps.sum() * dt),
        unserved_spike_count=unserved_events,
        device_energy_throughput_j=float((discharge_a.sum() + charge_a.sum()) * dt),
        ramp_violation_steps=violations,
    )


# Restart holds: (expiry step, accelerators held down); the effective count
# at any step is the max over unexpired holds.  Holds expire in the order
# they are added (the penalty is constant), and a hold that expires no later
# than a newer, larger one never sets the max, so it is dropped when the
# newer one is added.  The deque front is then the max.  The loops keep the
# front in locals and touch the deque only when the front expires or a hold
# is added.  While a shortfall event is open, the accelerators it has shed
# so far stay down too, so a shed unit is blocked without gaps from the step
# it drops until its restart hold expires.

def _expire_holds(holds, i, n):
    """Drop the holds expired at step i; return the front, or (n, 0) when
    none is left."""
    while holds and holds[0][0] <= i:
        holds.popleft()
    return holds[0] if holds else (n, 0)


def _add_hold(holds, i, gpus, dt, restart, n):
    """Hold gpus down for restart seconds from the end of step i; return
    the front.  The hold expires at the first step j > i with
    i*dt + restart <= j*dt + 1e-12, or at n when no step before n
    qualifies.  j*dt is monotone in j, so j is found once: the estimate
    from restart/dt can be a step off either way after rounding, and the
    two loops move it to the exact step."""
    t_end = i * dt + restart
    j = max(i + 1, math.ceil(min((t_end - 1e-12) / dt, n)))
    while j > i + 1 and t_end <= (j - 1) * dt + 1e-12:
        j -= 1
    while j < n and not t_end <= j * dt + 1e-12:
        j += 1
    while holds and holds[-1][1] <= gpus:
        holds.pop()
    holds.append((j, gpus))
    return holds[0]


def _shed(event_gpus, live_short, gpu_w, restart):
    """Accelerators an open event holds down after a step that leaves
    live_short watts unserved."""
    shed = math.ceil(live_short / gpu_w - 1e-9)
    if restart > 0.0:
        # Residual shortfall past the units already held down sheds that
        # many more.
        return event_gpus + shed
    return shed if shed > event_gpus else event_gpus


def _fill_need(need_a, d_eff_a, p_infra, theta):
    """need_a = p_infra + min(d_eff, theta), with the step's tie rule
    (theta if theta < d_eff else d_eff).  theta is positive, so on a tie
    both operands have the same bits and np.minimum may pick either."""
    np.minimum(d_eff_a, theta, out=need_a)
    np.add(p_infra, need_a, out=need_a)


def _direct_feed(demand_a, served_a, discharge_a, stored_a, need_a, battery,
                 config, theta, dt) -> int:
    """The direct feed, for the ideal device (battery None) and a battery:
    fills served, discharge and stored in place and returns the number of
    shortfall events.  need_a is scratch.

    The feed takes p_infra plus demand up to theta and the device is asked
    for the rest, so the step is array code.  The ideal device delivers the
    whole deficit.  A battery is walked in scalar code only on the steps
    where the array values may not hold: those with demand above theta,
    and every step while a shortfall event is open or a restart hold is
    live.  On any other step it is asked for nothing, so its state stays
    as it is and nothing is shed."""
    p_infra = config.p_infra_w
    _fill_need(need_a, demand_a, p_infra, theta)
    np.add(p_infra, demand_a, out=discharge_a)
    discharge_a -= need_a
    discharge_a[discharge_a < 0.0] = 0.0
    # demand - 0.0 keeps a -0.0 demand sample as -0.0, as the step does.
    np.subtract(demand_a, 0.0, out=served_a)
    if battery is None:
        return 0

    cap = p_infra + theta
    gpu_w = config.gpu_unit_w
    restart = config.restart_penalty_s
    n = demand_a.shape[0]
    step = battery_stepper(battery, dt)
    # Battery state as plain values, in DeviceState's field order.  The
    # controller arms the inverter before the run starts, so the first
    # discharge needs no turnaround.
    stored, mode, last, target, remaining = (
        init_state(battery).stored_j, "discharging", 0.0, None, 0.0)
    demand_m, served_m, discharge_m, stored_m = (
        memoryview(a) for a in (demand_a, served_a, discharge_a, stored_a))

    holds = deque()
    hold_end, hold_gpus = n, 0
    in_event = False
    event_gpus = 0
    unserved_events = 0

    i = 0      # the first step not yet walked
    for hot in np.flatnonzero(theta < demand_a).tolist():
        if hot < i:
            continue
        stored_a[i:hot] = stored
        i = hot
        while True:
            if i >= hold_end:
                hold_end, hold_gpus = _expire_holds(holds, i, n)
            blocked = hold_gpus
            if in_event and restart > 0.0 and event_gpus > blocked:
                blocked = event_gpus
            d_eff = demand_m[i]
            if blocked:
                d_eff = d_eff - blocked * gpu_w
                if not d_eff > 0.0:
                    d_eff = 0.0

            c = p_infra + (theta if theta < d_eff else d_eff)
            deficit = p_infra + d_eff - c
            if deficit < 0.0:
                deficit = 0.0
            # The feed stops at the need, so it has no surplus to offer.
            delivered, _, stored, mode, last, target, remaining = step(
                stored, mode, last, target, remaining, deficit, 0.0)

            shortfall = deficit - delivered
            if shortfall < 0.0:
                shortfall = 0.0
            escal = cap - c
            if not escal < shortfall:
                escal = shortfall
            live_short = shortfall - escal
            if live_short < _W_EPS:
                live_short = 0.0

            if live_short > 0.0:
                if not in_event:
                    in_event = True
                    event_gpus = 0
                    unserved_events += 1
                event_gpus = _shed(event_gpus, live_short, gpu_w, restart)
            elif in_event:
                in_event = False
                if restart > 0.0 and event_gpus > 0:
                    hold_end, hold_gpus = _add_hold(holds, i, event_gpus, dt,
                                                    restart, n)

            served_m[i] = d_eff - live_short
            discharge_m[i] = delivered
            stored_m[i] = stored
            i += 1
            if i == n or not (in_event or holds):
                break
    stored_a[i:] = stored
    return unserved_events


def _step_loop(demand_a, served_a, feed_a, discharge_a, charge_a, dummy_a,
               stored_a, scratch_a, device, config, theta, dt) -> int:
    """The ramp-following feed, for "none" (device None) and passive
    devices: fills served, discharge, charge, dummy and stored in place and
    returns the number of shortfall events.  feed_a and scratch_a are
    scratch; feed_a ends holding the rate-limited feed c of each step.

    The loop keeps only what one step hands the next: the restart holds and
    the open event, which set d_eff; the feed c; the device state.  A step
    with d_eff at or below theta leaves nothing unserved: its need
    p_infra + d_eff is at most cap (rounding is monotone), so its deficit
    need - c is at most cap - c and escalation covers all of it.  Only a
    step with d_eff above theta works out its live shortfall and may open
    an event.  The loop stores d_eff as served and each live shortfall in
    dummy_a, which is free until the dummy pass; served loses the live
    shortfalls after the loop.  need, surplus and dummy are array passes
    over the finished series."""
    p_infra = config.p_infra_w
    cap = p_infra + theta
    r_step = config.grid_ramp_limit_w_per_s * dt
    gpu_w = config.gpu_unit_w
    restart = config.restart_penalty_s
    n = demand_a.shape[0]

    # Device state as plain values, in DeviceState's field order.
    passive = device is not None
    stored, mode, last = 0.0, "idle", 0.0
    if passive:
        step = passive_stepper(device, dt)
        stored = init_state(device).stored_j

    served_m, feed_m, discharge_m, charge_m, stored_m, live_m = (
        memoryview(a) for a in (served_a, feed_a, discharge_a, charge_a,
                                stored_a, dummy_a))

    holds = deque()
    hold_end, hold_gpus = n, 0
    in_event = False
    event_gpus = 0
    unserved_events = 0
    # The first step's feed is its need, which the ramp rule below gives
    # back when the previous feed is that need.
    first = float(demand_a[0])
    c = p_infra + (theta if theta < first else first)

    # min() and max() are written out as comparisons that pick the same
    # operand on ties, which keeps the output bits and saves calls per step.
    # The feed never exceeds cap: it starts at a need, and each step takes
    # the larger of its need and the previous feed less r_step, then caps
    # it at the previous feed plus r_step.
    for i, demand in enumerate(memoryview(demand_a)):
        if i >= hold_end:
            hold_end, hold_gpus = _expire_holds(holds, i, n)
        blocked = hold_gpus
        if in_event and restart > 0.0 and event_gpus > blocked:
            blocked = event_gpus
        if not blocked:
            d_eff = demand
        else:
            d_eff = demand - blocked * gpu_w
            if not d_eff > 0.0:
                d_eff = 0.0

        c_prev = c
        if theta < d_eff:
            # The need is cap, so the feed has no surplus to offer.
            c = c_prev - r_step
            if not c > cap:
                c = cap
            if c_prev + r_step < c:
                c = c_prev + r_step
            deficit = p_infra + d_eff - c
            if deficit < 0.0:
                deficit = 0.0
            delivered = 0.0
            if passive:
                if deficit > 0.0:
                    delivered, _, stored, mode, last = step(
                        stored, mode, last, deficit, 0.0)
                    discharge_m[i] = delivered
                else:
                    _, _, stored, mode, last = step(stored, mode, last, 0.0, 0.0)
                stored_m[i] = stored

            shortfall = deficit - delivered
            if shortfall < 0.0:
                shortfall = 0.0
            escal = cap - c
            if not escal < shortfall:
                escal = shortfall
            live_short = shortfall - escal
            if not live_short < _W_EPS:
                live_m[i] = live_short
                if not in_event:
                    in_event = True
                    event_gpus = 0
                    unserved_events += 1
                event_gpus = _shed(event_gpus, live_short, gpu_w, restart)
            elif in_event:
                # Shedding has ended the shortfall; the downed units hold
                # for the restart penalty from this step on.
                in_event = False
                if restart > 0.0 and event_gpus > 0:
                    hold_end, hold_gpus = _add_hold(holds, i, event_gpus, dt,
                                                    restart, n)
        else:
            need = p_infra + d_eff
            c = c_prev - r_step
            if not c > need:
                c = need
            if c_prev + r_step < c:
                c = c_prev + r_step
            if passive:
                # The deficit is need - c and the surplus c - need.
                if c < need:
                    delivered, _, stored, mode, last = step(
                        stored, mode, last, need - c, 0.0)
                    discharge_m[i] = delivered
                elif need < c:
                    _, absorbed, stored, mode, last = step(
                        stored, mode, last, 0.0, c - need)
                    charge_m[i] = absorbed
                else:
                    _, _, stored, mode, last = step(stored, mode, last, 0.0, 0.0)
                stored_m[i] = stored
            if in_event:
                in_event = False
                if restart > 0.0 and event_gpus > 0:
                    hold_end, hold_gpus = _add_hold(holds, i, event_gpus, dt,
                                                    restart, n)

        served_m[i] = d_eff
        feed_m[i] = c

    # served_a holds d_eff until the live shortfalls come off it; d_eff -
    # 0.0 keeps every other step's bits, -0.0 included.
    _fill_need(scratch_a, served_a, p_infra, theta)
    served_a -= dummy_a
    surplus = np.subtract(feed_a, scratch_a, out=scratch_a)
    # absorbed is 0 wherever the surplus is not positive, so the surplus
    # needs no clip of its own before absorbed comes off it.  The surplus is
    # never -0.0 (c is a zero only where it equals the need), so
    # np.maximum's pick on a tie with 0.0 cannot show.
    np.subtract(surplus, charge_a, out=dummy_a)
    np.maximum(dummy_a, 0.0, out=dummy_a)
    return unserved_events


def useful_compute_j(result: ShavingResult) -> float:
    """Served energy weighted by the thermal de-rating capacity factor."""
    factor = derate_factor(result.temperature_c, result.config)
    return float(np.sum(result.p_comp_served * factor) * result.dt_s)


def computational_gain(result: ShavingResult, baseline: ShavingResult) -> float:
    """Percent change in de-rating-weighted served energy vs a baseline
    run of the same trace and config."""
    if result.n_steps != baseline.n_steps or result.dt_s != baseline.dt_s:
        raise ValueError("results come from different traces")
    if result.threshold_w != baseline.threshold_w or result.config != baseline.config:
        raise ValueError("results come from different configs")
    useful_base = useful_compute_j(baseline)
    if useful_base <= 0.0:
        raise ValueError("baseline served no useful energy; gain undefined")
    return 100.0 * (useful_compute_j(result) - useful_base) / useful_base


def gpus_saved(trace: PowerTrace, threshold_frac: float, min_burst_s: float,
               gpu_unit_w: float = 700.0) -> int:
    """Accelerators spared from shutdown if spikes longer than min_burst_s
    above the threshold could be absorbed: ceil of the worst qualifying
    peak excess over the per-unit draw."""
    return int(_gpus_saved_grid(trace, (threshold_frac,), (min_burst_s,),
                                gpu_unit_w)[0, 0])


def _gpus_saved_grid(trace: PowerTrace, threshold_fracs, min_bursts_s,
                     gpu_unit_w: float) -> np.ndarray:
    """gpus_saved for every (threshold, burst length) pair, rows by
    threshold.  Every argument is checked before any work; then one scan
    for runs above each threshold serves its whole row."""
    for frac in threshold_fracs:
        if not (0.0 < frac <= 1.0):
            raise ValueError(f"threshold_frac must be in (0, 1], got {frac}")
    for burst in min_bursts_s:
        if not (burst >= 0.0):
            raise ValueError("min_burst_s must be non-negative")
    if not (0.0 < gpu_unit_w < math.inf):
        raise ValueError("gpu_unit_w must be positive and finite")
    values = np.zeros((len(threshold_fracs), len(min_bursts_s)), dtype=np.int64)
    for i, frac in enumerate(threshold_fracs):
        theta = ThresholdSpec(absolute_w=frac * trace.rack_max_w).resolve(trace.rack_max_w)
        starts, stops, peaks = _runs_above(trace.samples, theta)
        # A run qualifies when its duration reaches the burst length; the
        # whisker keeps durations that are whole multiples of dt in.
        reach = (stops - starts) * trace.dt_s + 1e-12
        for j, burst in enumerate(min_bursts_s):
            worst = peaks[reach >= burst].max(initial=0.0)
            if worst > 0.0:
                values[i, j] = math.ceil(worst / gpu_unit_w - 1e-9)
    return values


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def result_summary_dict(result: ShavingResult) -> dict:
    return {
        "strategy": result.strategy,
        "threshold_w": result.threshold_w,
        "dt_s": result.dt_s,
        "rack_max_w": result.rack_max_w,
        "n_steps": result.n_steps,
        "total_dummy_energy_j": result.total_dummy_energy_j,
        "total_unserved_energy_j": result.total_unserved_energy_j,
        "curtailed_gpu_seconds": result.curtailed_gpu_seconds,
        "unserved_spike_count": result.unserved_spike_count,
        "device_energy_throughput_j": result.device_energy_throughput_j,
        "final_stored_j": result.final_stored_j,
        "peak_grid_w": result.peak_grid_w,
        "ramp_violation_count": result.ramp_violation_count,
        "useful_compute_j": useful_compute_j(result),
    }


def write_result_csv(result: ShavingResult, dest) -> None:
    """One row per step, columns exactly the series names, values as float
    repr."""
    write_columns_csv(dest, (",".join(_SERIES_NAMES),),
                      [np.asarray(getattr(result, name), dtype=np.float64)
                       for name in _SERIES_NAMES])


def write_result_summary_json(result: ShavingResult, dest) -> None:
    """result_summary_dict as JSON.  A summary holding NaN or an infinity
    raises ValueError: it is not JSON."""
    write_json(result_summary_dict(result), dest)
