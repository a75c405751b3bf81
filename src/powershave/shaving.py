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
one step.  simulate_shaving runs the loop, the grid feed, the ramp check
and the curtailed GPU-seconds, and walks no node: a ShavingResult walks
its own node the first time its temperature_c is read, as write_result_csv
does, and keeps it.  useful_compute_j first takes a proven upper bound on
the node (_node_bound_c, a few array passes) and reads the temperature
only where that bound passes t_derate_c: below it every de-rating factor
is exactly 1.0 and the walk could change no bit of the energy.  So
compare_strategies, which needs only the summaries, walks no node on a
trace that stays below the knee.

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

How many accelerators absorbing every long enough spike would spare from
shutdown (gpus_saved) needs no simulation: sweep.py answers it from the
trace alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ._textio import (NON_NEGATIVE, POSITIVE, check_fields, number_field,
                      read_config, write_columns_csv, write_config, write_json)
from .trace import PowerTrace
from .spikes import ThresholdSpec, _runs_above
from .devices import DeviceSpec, device_halves, init_state
# Unused here; imported only for bench/tracer.py, which patches
# shaving.device_step (and shaving.thermal_step, defined below).
from .devices import device_step  # noqa: F401

__all__ = [
    "SimConfig",
    "ShavingResult",
    "simulate_shaving",
    "thermal_step",
    "derate_factor",
    "useful_compute_j",
    "computational_gain",
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

# Power-balance tolerance as a fraction of rack_max_w, the same as the
# invariant checks' BALANCE_TOL_FRAC in tests/conftest.py.
_BALANCE_TOL_FRAC = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """The simulation's settings, and the one home of the default threshold
    (0.7 of rack max) and accelerator unit (700 W), which analyze,
    simulate, gpus_saved, sweep_gpus_saved and --gpu-unit-w take from it."""

    threshold: ThresholdSpec = ThresholdSpec(fraction_of_max=0.7)
    p_infra_w: float = field(default=20000.0, metadata=NON_NEGATIVE)
    # One tenth of the default rack scale per second: the feed follows
    # second-scale load swings but not millisecond burst edges.
    grid_ramp_limit_w_per_s: float = field(default=14000.0, metadata=POSITIVE)
    restart_penalty_s: float = field(default=60.0, metadata=NON_NEGATIVE)
    gpu_unit_w: float = field(default=700.0, metadata=POSITIVE)
    heat_factor: float = field(default=1.3, metadata=POSITIVE)
    thermal_tau_s: float = field(default=120.0, metadata=POSITIVE)
    t_ambient_c: float = 25.0
    t_max_c: float = 75.0
    t_derate_c: float = 70.0
    derate_slope_per_c: float = field(default=0.01, metadata=NON_NEGATIVE)
    thermal_ref_power_w: float = field(default=140000.0, metadata=POSITIVE)

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.threshold, ThresholdSpec):
            raise ValueError("threshold must be a ThresholdSpec")
        if not (self.t_max_c > self.t_ambient_c):
            raise ValueError("t_max_c must exceed t_ambient_c")
        if self.t_derate_c < self.t_ambient_c:
            raise ValueError("t_derate_c must be at least t_ambient_c")

    @property
    def k_scale_c_per_w(self) -> float:
        """Steady-state heating coefficient: holding thermal_ref_power_w of
        heat input settles the node at t_max_c."""
        return (self.t_max_c - self.t_ambient_c) / self.thermal_ref_power_w


def write_sim_config(config: SimConfig, dest) -> None:
    """Sorted fields; the threshold holds only the field that is set."""
    write_config(config, dest)


def load_sim_config(source) -> SimConfig:
    return read_config(SimConfig, source, "sim config")


def thermal_step(temp_c: float, heat_input_w: float, config: SimConfig,
                 dt_s: float) -> float:
    """One explicit Euler step of the lumped rack thermal node.

    temp_c must be a finite number, heat_input_w a non-negative one and
    dt_s a positive one at most config.thermal_tau_s (a longer explicit
    Euler step overshoots the steady state); ValueError naming the
    argument otherwise."""
    temp_c = number_field("temp_c", temp_c)
    heat_input_w = number_field("heat_input_w", heat_input_w, sign="non-negative")
    dt_s = number_field("dt_s", dt_s, sign="positive")
    if dt_s > config.thermal_tau_s:
        raise ValueError(f"dt_s must be at most thermal_tau_s "
                         f"({config.thermal_tau_s!r} s), got {dt_s!r}")
    return _thermal_walk([heat_input_w * config.k_scale_c_per_w], temp_c,
                         config, dt_s)


def _thermal_walk(g_m, temp, config: SimConfig, dt: float) -> float:
    """The only implementation of the thermal node: run it from temp over
    a series of inputs g = heat * k_scale_c_per_w (_node_input), overwrite
    each input with the temperature at the end of its step and return the
    last one."""
    t_amb = config.t_ambient_c
    tau = config.thermal_tau_s
    for i, g in enumerate(g_m):
        temp = temp + dt * (g - (temp - t_amb)) / tau
        g_m[i] = temp
    return temp


def _node_input(served, dummy, config: SimConfig, out: np.ndarray) -> np.ndarray:
    """The thermal node's input of each step into out: the heat of served
    compute plus dummy load, times k_scale_c_per_w, multiplied in the order
    one thermal_step takes."""
    np.add(served, dummy, out=out)
    out *= config.heat_factor
    out *= config.k_scale_c_per_w
    return out


# Steps per block of _node_bound_c.
_BOUND_BLOCK = 100
# The unit roundoff of a double, its smallest normal and its smallest
# subnormal number.
_U = 2.0 ** -53
_NORMAL_MIN = 2.0 ** -1022
_SUBNORMAL_MIN = 2.0 ** -1074


def _node_bound_c(g: np.ndarray, config: SimConfig, dt: float) -> float:
    """An upper bound on every temperature _thermal_walk writes when it
    runs over g from t_ambient_c, or inf where c = dt / thermal_tau_s is
    not a normal number at most 1, or some g is negative or not finite.
    It costs a few array passes and one scalar step per block of
    L = _BOUND_BLOCK steps, against one scalar step per step for the walk.

    Derivation.  With V = T - t_ambient_c, a step is
    V <- (1 - c) V + c g, from V = 0.  With c <= 1 and every g >= 0, V
    stays non-negative and (1 - c) V <= V.  So inside block b, which
    starts with V <= U_b and whose inputs sum to S_b, every V is at most
    U_b + c S_b, and the block ends with V <= (1 - c)**L U_b + c S_b =
    U_{b+1} (U_0 = 0).  Then B = max over blocks of U_b + c S_b bounds
    every V of the exact walk.

    Rounding margin.  Let u = 2**-53, m the number of blocks and
    k = min(n, 1/c).
    * The bound.  a = (1 - c)**L is raised by (2L + 4)u, more than the
      2u error of 1 - c carried through the power plus the power's own
      rounding, so it is not below the exact factor.  The rest adds and
      scales non-negative numbers, each term through at most L + 2m + 8
      roundings, so the computed B is at most (L + 2m + 8) 1.01u B below
      the exact one.
    * The walk.  Take T as the walk's float temperature and V = T -
      t_ambient_c exactly.  Then a step of the walk is V <- (1 - c) V +
      c g + d, where d gathers the five roundings of
      temp + dt * (g - (temp - t_amb)) / tau: at most u|T| from the last
      add and c (3.01u |g - V| + 1.01u |V|) from the others.  With c g <= B
      and |V| <= B + E, |d| <= u (|t_ambient_c| + 8.02 (B + E)).  Each
      error decays by (1 - c) per step, so the walk stays within
      E <= k max|d| of the exact one, and as ku < 2**-10 for any n below
      2**43, E <= 2.01ku (|t_ambient_c| + 8.03B).
    * The sum t_ambient_c + B + margin rounds by at most
      2u (|t_ambient_c| + B + margin).
    * Underflow.  A result below 2**-1022 rounds by up to 2**-1075 more,
      an absolute error: on each of the at most n + 4m + 2 roundings of
      the bound and the sum, and on each of the five roundings of the k
      walk steps whose errors add up (E above).  c itself is normal, so
      its rounding stays relative.
    margin = (3k + 2m + L + 16) u (|t_ambient_c| + 9B)
    + (3n + 4m + 2) 2**-1074 covers all four."""
    c = dt / config.thermal_tau_s
    # A NaN g fails the second test.
    if not (_NORMAL_MIN <= c <= 1.0 and g.min() >= 0.0):
        return math.inf
    n = g.shape[0]
    with np.errstate(over="ignore"):
        cs = np.add.reduceat(g, np.arange(0, n, _BOUND_BLOCK))
        cs *= c
        # B is at most the sum of every c S_b, which overflow turns to inf.
        if not cs.sum() < math.inf:
            return math.inf
    a = min(1.0, (1.0 - c) ** _BOUND_BLOCK + (2 * _BOUND_BLOCK + 4) * _U)
    u_b = bound = 0.0
    for cs_b in cs.tolist():
        top = u_b + cs_b
        if top > bound:
            bound = top
        u_b = a * u_b + cs_b
    t_amb = config.t_ambient_c
    k = min(n, 1.0 / c)
    m = cs.shape[0]
    margin = ((3 * k + 2 * m + _BOUND_BLOCK + 16) * _U * (abs(t_amb) + 9 * bound)
              + (3 * n + 4 * m + 2) * _SUBNORMAL_MIN)
    return t_amb + bound + margin


def derate_factor(temp_c, config: SimConfig):
    """Capacity factor of served compute at the given rack temperature, or
    elementwise over an array of temperatures."""
    over = np.maximum(0.0, temp_c - config.t_derate_c)
    return np.maximum(0.0, 1.0 - config.derate_slope_per_c * over)


@dataclass(frozen=True)
class ShavingResult:
    """Per-step series plus run totals.  All series share the trace
    length; stored_j is identically zero for the "none" and "ideal"
    strategies (nothing finite to track).  p_comp_demand is the trace's
    samples array itself, so it is read-only.  ramp_violation_steps holds
    the steps whose feed moved by more than the ramp limit allows.

    temperature_c, the thermal node at the end of each step, is not a
    field: the first read walks the node over the record's own served and
    dummy series and keeps the array.  So replace() gives a record that
    walks its own series."""

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
    total_dummy_energy_j: float
    total_unserved_energy_j: float
    unserved_spike_count: int
    device_energy_throughput_j: float
    curtailed_gpu_seconds: float
    ramp_violation_steps: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.p_comp_demand.shape[0]

    @property
    def peak_grid_w(self) -> float:
        return float(self.p_grid.max())

    @property
    def final_stored_j(self) -> float:
        return float(self.stored_j[-1])

    @property
    def ramp_violation_count(self) -> int:
        return int(self.ramp_violation_steps.shape[0])

    @cached_property
    def temperature_c(self) -> np.ndarray:
        temp = _node_input(self.p_comp_served, self.p_dummy, self.config,
                           np.empty(self.n_steps))
        _thermal_walk(memoryview(temp), self.config.t_ambient_c, self.config,
                      self.dt_s)
        return temp


def _check_gpu_unit_w(rack_max_w: float, gpu_unit_w) -> float:
    """gpu_unit_w as a positive Python float (number_field), refused where
    whole-unit counts up to the rack's draw are not exact floats (beyond
    2**53)."""
    unit = number_field("gpu_unit_w", gpu_unit_w, sign="positive")
    if rack_max_w / unit > 2.0 ** 53:
        raise ValueError(f"gpu_unit_w must be at least rack_max_w / 2**53 "
                         f"({rack_max_w / 2.0 ** 53!r} W), got {gpu_unit_w!r}")
    return unit


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
    the feed policies.  spec is a DeviceSpec, "none", or "ideal".  The
    checks, the step loop (or the ideal device's array code), the grid
    feed, the ramp check and the run totals; the thermal node waits for
    the first read of temperature_c.  Its one scratch series ends as
    curtailed_w, so the run holds no series beyond the ones it returns."""
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
    n = trace.n_samples

    # The trace's own frozen float64 samples: nothing writes the demand.
    demand_a = trace.samples
    # A step the loop does not walk or that sheds nothing serves its
    # demand, which is demand - 0.0 bit for bit, -0.0 included.
    served_a = demand_a.copy()
    grid_a = np.zeros(n)
    discharge_a = np.zeros(n)
    charge_a = np.zeros(n)
    dummy_a = np.zeros(n)
    stored_a = np.zeros(n)
    # Scratch until it takes the curtailed power, last.
    curtailed_a = np.empty(n)

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
        # grid_a is scratch until the post-pass below.
        unserved_events = _step_loop(
            demand_a, served_a, grid_a, discharge_a, charge_a, dummy_a,
            stored_a, curtailed_a, spec if strategy != "none" else None,
            config, theta, dt)

    # Nothing in the step reads the grid feed it draws, so the feed follows
    # here, in the step's own order of operations: p_infra + served + dummy
    # + absorbed - delivered.
    np.add(p_infra, served_a, out=grid_a)
    grid_a += dummy_a
    grid_a += charge_a
    grid_a -= discharge_a

    # |grid[i] - grid[i-1]| into curtailed_a[1:]: step i breaks the ramp
    # limit when it passes grid_ramp_limit_w_per_s * dt by a relative 1e-9.
    jumps = curtailed_a[1:]
    np.subtract(grid_a[1:], grid_a[:-1], out=jumps)
    np.abs(jumps, out=jumps)
    violations = np.flatnonzero(jumps > config.grid_ramp_limit_w_per_s * dt * (1.0 + 1e-9))
    violations += 1
    # The accelerators each step sheds, _units's rule over the array,
    # ceil(max(curtailed, 0) / gpu_w - 1e-9), into curtailed_a, and then
    # the curtailed power itself.
    np.maximum(np.subtract(demand_a, served_a, out=curtailed_a), 0.0, out=curtailed_a)
    curtailed_a /= config.gpu_unit_w
    curtailed_a -= 1e-9
    gpu_seconds = float(np.ceil(curtailed_a, out=curtailed_a).sum() * dt)
    np.subtract(demand_a, served_a, out=curtailed_a)
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
        total_dummy_energy_j=float(dummy_a.sum() * dt),
        total_unserved_energy_j=float(curtailed_a.sum() * dt),
        unserved_spike_count=unserved_events,
        device_energy_throughput_j=float((discharge_a.sum() + charge_a.sum()) * dt),
        curtailed_gpu_seconds=gpu_seconds,
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
        if self.in_event and self.event_gpus > blocked:
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
            if self.restart > 0.0:
                # Residual shortfall past the units already held down sheds
                # that many more.  Only a positive penalty holds them down,
                # so only it reads the count.
                self.event_gpus += _units(live, self.gpu_w)
            return self._state()
        self.in_event = False
        gpus = self.event_gpus
        if gpus > 0:
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


def _units(watts, gpu_unit_w) -> int:
    """The whole accelerators of gpu_unit_w watts that watts sheds, with a
    whisker of 1e-9 of a unit, so a shortfall within it of a whole number
    of units sheds that number: 0 for 0 W.  The one accelerator count of a
    grid cell, a shortfall event and the served-or-shed verdict."""
    return math.ceil(watts / gpu_unit_w - 1e-9)


def _live_short(deficit, delivered, escal, gpu_w):
    """What a step leaves unserved after the device delivered and the feed
    escalated by up to escal: the deficit's shortfall past both, or 0.0
    where it sheds no accelerator of gpu_w watts, that is where _units
    gives 0; so every event sheds at least one.  escal must be at least 0
    (the step loop passes cap - c, and the feed never passes the cap);
    then a shortfall that escal covers, a deficit at or below delivered
    among them, leaves 0.0."""
    shortfall = deficit - delivered
    live = shortfall - escal if escal < shortfall else 0.0
    return live if _units(live, gpu_w) else 0.0


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
    gpu_w = config.gpu_unit_w
    cap = p_infra + theta
    n = demand_a.shape[0]
    if device is None or device.kind != "battery":
        r_step = config.grid_ramp_limit_w_per_s * dt
        runs = ((0, n),)
    else:
        r_step = math.inf
        starts, stops, _ = _runs_above(demand_a, theta)
        runs = zip(starts.tolist(), stops.tolist())

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
                    live = _live_short(load - c, delivered, cap - c, gpu_w)
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
    """Served energy weighted by the thermal de-rating capacity factor,
    reading temperature_c only where the node can pass t_derate_c.

    Where _node_bound_c shows that no temperature passes t_derate_c, every
    factor is exactly 1.0, and served * 1.0 is served, so the sum of
    served * dt has the formula's bits.  A zero derate_slope_per_c takes
    the same path: its factors are 1.0 wherever the walk goes."""
    served, config, dt = result.p_comp_served, result.config, result.dt_s
    # The node's input is dropped before a walk allocates the temperature.
    bound = _node_bound_c(_node_input(served, result.p_dummy, config,
                                      np.empty(result.n_steps)), config, dt)
    if bound > config.t_derate_c:
        return float(np.sum(served * derate_factor(result.temperature_c, config)) * dt)
    return float(np.sum(served) * dt)


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


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def result_summary_dict(result: ShavingResult) -> dict:
    """The run's figures, ShavingResult's scalar fields plus n_steps,
    final_stored_j, peak_grid_w and ramp_violation_count, and its
    useful_compute_j.  So a new figure is a new scalar field."""
    names = [f.name for f in fields(ShavingResult) if f.type in ("str", "float", "int")]
    names += ["n_steps", "final_stored_j", "peak_grid_w", "ramp_violation_count"]
    return ({name: getattr(result, name) for name in names}
            | {"useful_compute_j": useful_compute_j(result)})


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
