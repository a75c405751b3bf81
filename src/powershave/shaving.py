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

The step loop does only the work that is truly sequential.  It keeps the
device state in local variables and advances it with a stepper that
devices.passive_stepper / devices.battery_stepper build once per run, the
same physics as device_step.  Nothing in a step reads the grid feed it
draws, so p_grid and the ramp check are array post-passes over the
finished series.  The ideal device reads no device state and no restart
hold, so its series are array code and it runs no loop at all.
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
from .devices import (DeviceSpec, PASSIVE_KINDS, battery_stepper, init_state,
                      passive_stepper)
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

    if strategy == "ideal":
        _ideal_series(demand_a, served_a, discharge_a, grid_a, p_infra, theta)
        unserved_events = 0
    else:
        unserved_events = _step_loop(
            demand_a, served_a, discharge_a, charge_a, dummy_a, stored_a,
            spec if isinstance(spec, DeviceSpec) else None, config, theta, dt)

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


def _ideal_series(demand_a, served_a, discharge_a, scratch, p_infra, theta):
    """The ideal device's step over the whole trace at once.  It reads no
    device state and no restart hold: the feed takes p_infra plus demand up
    to theta, the device delivers the rest, and nothing is curtailed."""
    # need = p_infra + min(demand, theta), with the step's tie rule
    # (theta if theta < demand else demand).
    need = scratch
    np.copyto(need, demand_a)
    need[theta < demand_a] = theta
    np.add(p_infra, need, out=need)
    np.add(p_infra, demand_a, out=discharge_a)
    discharge_a -= need
    discharge_a[discharge_a < 0.0] = 0.0
    # demand - 0.0 keeps a -0.0 demand sample as -0.0, as the step does.
    np.subtract(demand_a, 0.0, out=served_a)


def _step_loop(demand_a, served_a, discharge_a, charge_a, dummy_a, stored_a,
               device, config, theta, dt) -> int:
    """The sequential part of the simulation, for "none" (device None) and
    for devices: fills served, discharge, charge, dummy and stored in place
    and returns the number of shortfall events."""
    p_infra = config.p_infra_w
    cap = p_infra + theta
    r_step = config.grid_ramp_limit_w_per_s * dt
    gpu_w = config.gpu_unit_w
    passive = device is not None and device.kind in PASSIVE_KINDS
    # Passive elements ride behind the ramp-following feed; a battery's
    # electronics steer the feed directly.
    tracked_feed = device is None or passive

    # Device state as plain values, in DeviceState's field order.
    stored, mode, last, target, remaining = 0.0, "idle", 0.0, None, 0.0
    if passive:
        step = passive_stepper(device, dt)
        stored = init_state(device).stored_j
    elif device is not None:
        step = battery_stepper(device, dt)
        stored = init_state(device).stored_j
        # The controller arms the inverter before the run starts, so the
        # first discharge needs no turnaround.
        mode = "discharging"

    served_m, discharge_m, charge_m, dummy_m, stored_m = (
        memoryview(a) for a in (served_a, discharge_a, charge_a, dummy_a, stored_a))

    # Restart holds: (expiry time, accelerators held down); the effective
    # count at any step is the max over unexpired holds.  Holds expire in
    # the order they are added (the penalty is constant), and a hold that
    # expires no later than a newer, larger one never sets the max, so it
    # is dropped when the newer one is added.  The deque front is then the
    # max.  While a shortfall event is open, the accelerators it has shed
    # so far stay down too, so a shed unit is blocked without gaps from the
    # step it drops until its restart hold expires.
    holds = deque()
    in_event = False
    event_max_gpus = 0
    unserved_events = 0

    c_prev = 0.0
    restart = config.restart_penalty_s

    # min() and max() are written out as comparisons that pick the same
    # operand on ties, which keeps the output bits and saves calls per step.
    for i, demand in enumerate(memoryview(demand_a)):
        blocked = 0
        if restart > 0.0:
            if in_event:
                blocked = event_max_gpus
            if holds:
                t_now = i * dt
                while holds and holds[0][0] <= t_now + 1e-12:
                    holds.popleft()
                if holds and holds[0][1] > blocked:
                    blocked = holds[0][1]

        if not blocked:
            d_eff = demand
        else:
            d_eff = demand - blocked * gpu_w
            if not d_eff > 0.0:
                d_eff = 0.0

        need = p_infra + (theta if theta < d_eff else d_eff)
        if tracked_feed and i > 0:
            c = c_prev - r_step
            if not c > need:
                c = need
            if c_prev + r_step < c:
                c = c_prev + r_step
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

        if device is None:
            delivered, absorbed = 0.0, 0.0
        else:
            request = deficit if deficit > 0.0 else 0.0
            offer = surplus if deficit <= 0.0 else 0.0
            if passive:
                delivered, absorbed, stored, mode, last = step(
                    stored, mode, last, request, offer)
            else:
                delivered, absorbed, stored, mode, last, target, remaining = step(
                    stored, mode, last, target, remaining, request, offer)
            stored_m[i] = stored

        shortfall = deficit - delivered
        if shortfall < 0.0:
            shortfall = 0.0
        escal = cap - c
        if not escal < shortfall:
            escal = shortfall
        live_short = shortfall - escal
        if live_short < _W_EPS:
            live_short = 0.0

        dummy = surplus - absorbed
        if dummy < 0.0:
            dummy = 0.0

        if live_short > 0.0:
            if not in_event:
                in_event = True
                event_max_gpus = 0
                unserved_events += 1
            shed = math.ceil(live_short / gpu_w - 1e-9)
            if restart > 0.0:
                # Residual shortfall past the units already held down
                # sheds that many more.
                event_max_gpus += shed
            elif shed > event_max_gpus:
                event_max_gpus = shed
        elif in_event:
            # Shedding has ended the shortfall; the downed units hold for
            # the restart penalty from this step on.
            in_event = False
            if restart > 0.0 and event_max_gpus > 0:
                while holds and holds[-1][1] <= event_max_gpus:
                    holds.pop()
                holds.append((i * dt + restart, event_max_gpus))

        served_m[i] = d_eff - live_short
        discharge_m[i] = delivered
        charge_m[i] = absorbed
        dummy_m[i] = dummy
        c_prev = c
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
