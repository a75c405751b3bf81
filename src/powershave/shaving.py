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
the cap that the device cannot serve is curtailed by one shedding machine
for every strategy (_Shedding): whole accelerators are shed (gpu_unit_w
each) and, when restart_penalty_s is positive, stay down through the
rest of the shortfall and for restart_penalty_s beyond its end before
they may serve again.

A lumped first-order thermal node integrates the heat of served compute
plus dummy load; temperatures past t_derate_c de-rate the value of
served energy in the computational-gain metric (the simulation itself
never throttles).  Because nothing in the step loop reads the
temperature, the node is integrated after the loop, over the finished
served and dummy series, by _thermal_walk, which thermal_step runs for
one step.

Only the steps that can change state run as scalar code.  The ideal
device delivers the whole deficit, so it is array code.  Every other
strategy runs one step loop, _step_loop, which keeps only the shedding
state, the feed and the device state; need, surplus and dummy load are
array passes after it.  The tracked feed ("none", passive devices)
carries the feed from one step to the next, so the loop visits every
step.  The battery's feed is direct: a ramp limit of infinity makes each
step's feed its need, so the battery is never offered a charge, and as
it is armed for discharge before the run, each of its steps is a
discharge with no lag.  It is walked only over the runs of steps where
demand exceeds the threshold, and on while a shortfall event is open or
accelerators are held down; on any other step it is asked for nothing,
so its state stays as it is.

The loop calls the shedding machine only on the steps that change its
state, and the device's discharge and charge halves, which
devices.device_halves builds once per run (the same physics as
device_step), only on the steps that discharge or charge it.  Nothing
in a step reads the grid feed it draws, so p_grid and the ramp check are
array post-passes over the finished series.
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
from .devices import DeviceSpec, device_halves, init_state
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
# Power-balance tolerance as a fraction of rack_max_w, the same as the
# invariant checks' BALANCE_TOL_FRAC in tests/conftest.py.
_BALANCE_TOL_FRAC = 1e-6


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
    return _thermal_walk([heat_input_w], temp_c, config, dt_s)


def _thermal_walk(heat_m, temp, config: SimConfig, dt: float) -> float:
    """The only implementation of the thermal node: run it from temp over
    a series of heat inputs, overwrite each input with the temperature at
    the end of its step and return the last one."""
    k_scale = config.k_scale_c_per_w
    t_amb = config.t_ambient_c
    tau = config.thermal_tau_s
    for i, heat in enumerate(heat_m):
        temp = temp + dt * (heat * k_scale - (temp - t_amb)) / tau
        heat_m[i] = temp
    return temp


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


def _check_gpu_unit_w(rack_max_w: float, gpu_unit_w: float,
                      name: str = "gpu_unit_w") -> None:
    """Refuse a unit for which whole-unit counts up to the rack's draw
    are not exact floats (beyond 2**53) or not finite."""
    if not (0.0 < gpu_unit_w < math.inf and rack_max_w / gpu_unit_w <= 2.0 ** 53):
        raise ValueError(f"{name} must be positive, finite and at least "
                         f"rack_max_w / 2**53 ({rack_max_w / 2.0 ** 53!r} W), "
                         f"got {gpu_unit_w!r}")


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
    dt = trace.dt_s
    _check_gpu_unit_w(trace.rack_max_w, config.gpu_unit_w)
    if dt > config.thermal_tau_s:
        # A longer explicit Euler step overshoots and may diverge.
        raise ValueError(f"thermal_tau_s must be at least the trace step "
                         f"dt_s ({dt!r} s), got {config.thermal_tau_s!r}")
    if not math.isfinite(trace.rack_max_w * config.heat_factor
                         * config.k_scale_c_per_w):
        raise ValueError("the heat scale rack_max_w * heat_factor * (t_max_c - "
                         "t_ambient_c) / thermal_ref_power_w must be finite")
    if not (abs((config.p_infra_w + trace.rack_max_w) - config.p_infra_w
                - trace.rack_max_w) <= _BALANCE_TOL_FRAC * trace.rack_max_w):
        # Past this, p_infra_w + the compute draw rounds the draw away and
        # the grid series no longer carries it.
        raise ValueError(f"p_infra_w must be small enough that p_infra_w + "
                         f"rack_max_w keeps rack_max_w ({trace.rack_max_w!r} W) "
                         f"to a relative error of {_BALANCE_TOL_FRAC!r}, "
                         f"got {config.p_infra_w!r}")

    theta = config.threshold.resolve(trace.rack_max_w)
    p_infra = config.p_infra_w
    gpu_w = config.gpu_unit_w
    n = trace.n_samples

    demand_a = trace.samples.astype(float, copy=True)
    # A step the loop does not walk or that sheds nothing serves its
    # demand, which is demand - 0.0 bit for bit, -0.0 included.
    served_a = demand_a.copy()
    grid_a = np.zeros(n)
    discharge_a = np.zeros(n)
    charge_a = np.zeros(n)
    dummy_a = np.zeros(n)
    curtailed_a = np.zeros(n)
    stored_a = np.zeros(n)
    temp_a = np.zeros(n)

    if strategy == "ideal":
        # The feed takes p_infra plus demand up to theta, and the device
        # delivers the rest.  That deficit is never negative: it is 0.0 at
        # or below theta, and above it rounding is monotone.  grid_a holds
        # each step's need until the post-pass below.
        _fill_need(grid_a, demand_a, p_infra, theta)
        np.add(p_infra, demand_a, out=discharge_a)
        discharge_a -= grid_a
        unserved_events = 0
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
    # integrated here, over the heat of served compute plus dummy load,
    # which temp_a holds until the walk overwrites it.
    np.add(served_a, dummy_a, out=temp_a)
    temp_a *= config.heat_factor
    _thermal_walk(memoryview(temp_a), config.t_ambient_c, config, dt)

    np.subtract(demand_a, served_a, out=curtailed_a)
    # ceil(max(curtailed, 0) / gpu_w - 1e-9), in one temporary.
    gpu_steps = np.maximum(curtailed_a, 0.0)
    gpu_steps /= gpu_w
    gpu_steps -= 1e-9
    np.ceil(gpu_steps, out=gpu_steps)
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


class _Shedding:
    """The shedding machine of one run: the open shortfall event, the
    restart holds and the number of events.

    A step that leaves a live shortfall opens an event or grows it by
    whole accelerators, and the first step that leaves none closes it.
    With a positive restart penalty the units an event has shed stay down
    while it is open and for restart_penalty_s from the end of the step
    that closes it.  Restart holds are (expiry step, accelerators); the
    count held down is the max over unexpired holds.  Holds expire in the
    order they are added (the penalty is constant), and a hold that
    expires no later than a newer, larger one never sets the max, so it is
    dropped when the newer one is added; the deque front is then the max.

    Both calls return what the next step reads, (blocked_w, expiry,
    in_event): the draw of the accelerators held down, the step at which
    the front hold expires (n when none is left) and whether an event is
    open.  The step loop keeps these in locals and calls expire(i) only on a
    step that reaches expiry, and end_step(i, live) only on a step that
    leaves a live shortfall or ends an open event."""

    def __init__(self, n, dt, config):
        self.n = n
        self.dt = dt
        self.gpu_w = config.gpu_unit_w
        self.restart = config.restart_penalty_s
        self.holds = deque()
        self.in_event = False
        self.event_gpus = 0
        self.events = 0

    def _state(self):
        holds = self.holds
        expiry, blocked = holds[0] if holds else (self.n, 0)
        if self.in_event and self.restart > 0.0 and self.event_gpus > blocked:
            blocked = self.event_gpus
        return blocked * self.gpu_w, expiry, self.in_event

    def expire(self, i):
        """Drop the holds expired at step i."""
        holds = self.holds
        while holds and holds[0][0] <= i:
            holds.popleft()
        return self._state()

    def end_step(self, i, live):
        """Step i left live watts unserved (0.0 when it left none, which
        ends the open event)."""
        if live:
            if not self.in_event:
                self.in_event = True
                self.event_gpus = 0
                self.events += 1
            shed = math.ceil(live / self.gpu_w - 1e-9)
            if self.restart > 0.0:
                # Residual shortfall past the units already held down sheds
                # that many more.
                self.event_gpus += shed
            elif shed > self.event_gpus:
                self.event_gpus = shed
            return self._state()
        self.in_event = False
        gpus = self.event_gpus
        if self.restart > 0.0 and gpus > 0:
            # The hold expires at the first step j > i with
            # i*dt + restart <= j*dt + 1e-12, or at n when no step before n
            # qualifies.  j*dt is monotone in j, so j is found once: the
            # estimate from restart/dt can be a step off either way after
            # rounding, and the two loops move it to the exact step.
            dt, n, holds = self.dt, self.n, self.holds
            t_end = i * dt + self.restart
            j = max(i + 1, math.ceil(min((t_end - 1e-12) / dt, n)))
            while j > i + 1 and t_end <= (j - 1) * dt + 1e-12:
                j -= 1
            while j < n and not t_end <= j * dt + 1e-12:
                j += 1
            while holds and holds[-1][1] <= gpus:
                holds.pop()
            holds.append((j, gpus))
        return self._state()


def _live_short(deficit, delivered, escal):
    """What a step leaves unserved after the device delivered and the feed
    escalated by up to escal: the deficit's shortfall past both, or 0.0
    below _W_EPS.  escal must be at least 0 (the step loop passes cap - c,
    and the feed never passes the cap); then a deficit at or below
    delivered leaves 0.0."""
    shortfall = deficit - delivered
    if not escal < shortfall:
        escal = shortfall
    live = shortfall - escal
    return 0.0 if live < _W_EPS else live


def _fill_need(need_a, d_eff_a, p_infra, theta):
    """need_a = p_infra + min(d_eff, theta), with the step's tie rule
    (theta if theta < d_eff else d_eff).  theta is positive, so on a tie
    both operands have the same bits and np.minimum may pick either."""
    np.minimum(d_eff_a, theta, out=need_a)
    np.add(p_infra, need_a, out=need_a)


def _step_loop(demand_a, served_a, feed_a, discharge_a, charge_a, dummy_a,
               stored_a, scratch_a, device, config, theta, dt) -> int:
    """The step loop of every strategy but the ideal device: "none"
    (device None), passive devices and the battery.  Fills discharge,
    charge, dummy and stored in place, takes the live shortfalls off
    served, which must hold the demand, and returns the number of
    shortfall events.  feed_a and scratch_a are scratch; feed_a ends
    holding the feed c of each step walked.

    One step body serves both sides of theta.  The need is cap above theta
    and the load p_infra + d_eff at or below it; the device is asked for
    load - c, which at or below theta has the bits of need - c.  The feed
    starts at a need, and each step takes the larger of its need and the
    previous feed less r_step, capped at the previous feed plus r_step, so
    it never exceeds cap and has no surplus above theta.  The battery's
    r_step is infinite, so its feed is each step's need and it is never
    offered a charge.  A step at or below theta leaves nothing unserved:
    its need is at most cap (rounding is monotone), so escalation covers
    its deficit; only a step above theta works out its live shortfall.
    The loop stores d_eff as served where it differs from the demand, and
    each live shortfall in dummy_a, which is free until the dummy pass;
    served loses the live shortfalls after the loop.

    The tracked feed visits every step.  A battery is walked over each run
    of steps above theta, and on while an event is open or a hold is live.
    A step it skips asks it for nothing, so stored_a is filled over each
    skipped range, and feed_a keeps 0.0 there, not above the need, so the
    dummy pass gives it no dummy load, like every battery step."""
    p_infra = config.p_infra_w
    cap = p_infra + theta
    n = demand_a.shape[0]
    if device is None or device.kind != "battery":
        r_step = config.grid_ramp_limit_w_per_s * dt
        runs = ((0, n),)
    else:
        r_step = math.inf
        # (start, stop) of each run of steps above theta.
        hot = np.concatenate(([False], theta < demand_a, [False]))
        edges = np.flatnonzero(hot[:-1] != hot[1:]).tolist()
        runs = zip(edges[0::2], edges[1::2])

    # Device state as plain values: stored, and delivered, the power of the
    # last step if it discharged, else 0.0.  delivered is where the next
    # discharge's lag starts and what the live shortfall takes off; with
    # no device both stay 0.0.
    has_device = device is not None
    stored = delivered = 0.0
    if has_device:
        discharge, charge = device_halves(device, dt)
        stored = init_state(device).stored_j

    demand_m, served_m, feed_m, discharge_m, charge_m, stored_m, live_m = (
        memoryview(a) for a in (demand_a, served_a, feed_a, discharge_a,
                                charge_a, stored_a, dummy_a))
    shedding = _Shedding(n, dt, config)
    blocked_w, expiry, in_event = 0.0, n, False
    # The first step's feed is its need, which the ramp rule below gives
    # back when the previous feed is that need.
    first = float(demand_a[0])
    c = p_infra + (theta if theta < first else first)

    # min() and max() are written out as comparisons that pick the same
    # operand on ties, which keeps the output bits and saves calls per step.
    i = 0      # the first step not yet walked
    for start, stop in runs:
        if stop <= i:
            continue
        stored_a[i:start] = stored
        start = max(start, i)
        while start < stop:
            for i, demand in enumerate(demand_m[start:stop], start):
                if i >= expiry:
                    blocked_w, expiry, in_event = shedding.expire(i)
                if not blocked_w:
                    d_eff = demand
                else:
                    d_eff = demand - blocked_w
                    if not d_eff > 0.0:
                        d_eff = 0.0
                    served_m[i] = d_eff

                load = p_infra + d_eff
                need = cap if theta < d_eff else load
                top = c + r_step
                c -= r_step
                if not c > need:
                    c = need
                if top < c:
                    c = top
                if has_device:
                    # The request is load - c, positive exactly when c < load,
                    # and the offer c - need; a step with neither makes no call.
                    if c < load:
                        delivered, stored = discharge(stored, delivered, load - c)
                        discharge_m[i] = delivered
                    else:
                        delivered = 0.0
                        if need < c:
                            charge_m[i], stored = charge(stored, c - need)
                    stored_m[i] = stored

                if theta < d_eff:
                    live = _live_short(load - c, delivered, cap - c)
                    if live or in_event:
                        live_m[i] = live
                        blocked_w, expiry, in_event = shedding.end_step(i, live)
                elif in_event:
                    blocked_w, expiry, in_event = shedding.end_step(i, 0.0)
                feed_m[i] = c
            start = i = i + 1
            if in_event or blocked_w:
                # Walk on through the step that may close the event, else
                # through the step at which the front hold expires.
                stop = min(start + 1 if in_event else expiry + 1, n)
    stored_a[i:] = stored

    # served_a holds d_eff until the live shortfalls come off it; d_eff -
    # 0.0 keeps every other step's bits, -0.0 included.
    _fill_need(scratch_a, served_a, p_infra, theta)
    served_a -= dummy_a
    surplus = np.subtract(feed_a, scratch_a, out=scratch_a)
    # absorbed is 0 wherever the surplus is not positive, so the surplus
    # needs no clip of its own before absorbed comes off it.  The surplus is
    # never -0.0 (c is a zero only where it equals the need, and a step
    # not walked has 0.0 less a need that is not negative), so
    # np.maximum's pick on a tie with 0.0 cannot show.
    np.subtract(surplus, charge_a, out=dummy_a)
    np.maximum(dummy_a, 0.0, out=dummy_a)
    return shedding.events


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
    return _gain_pct(useful_compute_j(result), useful_compute_j(baseline))


def _gain_pct(useful_j: float, useful_base_j: float) -> float:
    """The computational gain of one useful energy over a baseline's, in
    percent; the one gain formula."""
    if useful_base_j <= 0.0:
        raise ValueError("baseline served no useful energy; gain undefined")
    return 100.0 * (useful_j - useful_base_j) / useful_base_j


def gpus_saved(trace: PowerTrace, threshold_frac: float, min_burst_s: float,
               gpu_unit_w: float = SimConfig.gpu_unit_w) -> int:
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
    _check_gpu_unit_w(trace.rack_max_w, gpu_unit_w)
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
