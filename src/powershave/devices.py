"""Peak-shaving storage device models.

Two families share one step contract:

* passive (capacitor, supercapacitor): deliver through a first-order lag
  with time constant response_tau_s.  Output rises toward the feasible
  target as 1 - exp(-t / tau) and is cut instantly when the target falls,
  so a device never delivers more than asked.  Recharge is not lagged:
  absorption is limited only by max_charge_w and the headroom below
  soc_max_frac.  No mode machinery.
* battery: responds instantly once in the right mode, but reversing
  between charging and discharging (or leaving idle) costs
  switch_latency_s during which it neither delivers nor absorbs.  The
  round-trip efficiency is applied entirely on the charge side.

The physics of every kind is two halves, a discharge and a charge, that
device_halves builds once per (spec, dt) with the spec's constants bound
in; they take and return plain values, so a simulation loop can keep the
state in local variables.  Besides the stored energy, a passive device's
only state is where the lag starts: the power it delivered on the
previous step if that step discharged, else 0.0.  device_step is the
checked entry point over a DeviceState; it holds the battery's mode
machine, which decides on each step whether the halves act.  A
simulation arms a battery for discharge and never offers it a charge, so
there it is only ever a discharge with no lag.

Energy bookkeeping is exact: stored_j decreases by delivered * dt and
increases by absorbed * dt * round_trip_efficiency, and stays inside the
[soc_min_frac, soc_max_frac] window of the capacity.  Devices start full
at soc_max_frac.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ._textio import (NON_NEGATIVE, POSITIVE, check_fields, read_config,
                      read_package_data, write_config)

__all__ = [
    "BUILTIN_DEVICE_NAMES",
    "DeviceSpec",
    "DeviceState",
    "capacitor_energy",
    "init_state",
    "device_step",
    "load_device_spec",
    "write_device_spec",
    "builtin_device_spec",
]

PASSIVE_KINDS = ("capacitor", "supercapacitor")
DEVICE_KINDS = PASSIVE_KINDS + ("battery",)

# Names accepted anywhere a device spec file is accepted.
BUILTIN_DEVICE_NAMES = ("capacitor", "supercap", "battery")

_TIME_EPS = 1e-12


def capacitor_energy(capacitance_f: float, v_max: float, v_min: float = 0.0) -> float:
    """Usable energy of a capacitor bank swung between two voltages (J)."""
    if not (capacitance_f > 0.0):
        raise ValueError(f"capacitance_f must be positive, got {capacitance_f}")
    if v_min < 0.0:
        raise ValueError(f"v_min must be non-negative, got {v_min}")
    if not (v_max >= v_min):
        # Equal voltages are a legal empty window (0 J usable).
        raise ValueError(f"v_max must not be below v_min, got v_max={v_max} v_min={v_min}")
    return 0.5 * capacitance_f * (v_max ** 2 - v_min ** 2)


@dataclass(frozen=True)
class DeviceSpec:
    kind: str
    energy_capacity_j: float = field(metadata=POSITIVE)
    max_discharge_w: float = field(metadata=POSITIVE)
    max_charge_w: float = field(metadata=NON_NEGATIVE)
    response_tau_s: float = field(default=0.0, metadata=NON_NEGATIVE)
    switch_latency_s: float = field(default=0.0, metadata=NON_NEGATIVE)
    round_trip_efficiency: float = 1.0
    soc_min_frac: float = 0.0
    soc_max_frac: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"kind must be one of {DEVICE_KINDS}, got {self.kind!r}")
        if not (0.0 < self.round_trip_efficiency <= 1.0):
            raise ValueError("round_trip_efficiency must be in (0, 1]")
        if not (0.0 <= self.soc_min_frac < self.soc_max_frac <= 1.0):
            raise ValueError("need 0 <= soc_min_frac < soc_max_frac <= 1")
        if self.kind in PASSIVE_KINDS:
            if self.round_trip_efficiency != 1.0:
                raise ValueError("passive kinds have round_trip_efficiency fixed at 1.0")
            if self.switch_latency_s != 0.0:
                # They have no mode switching.
                raise ValueError("passive kinds have switch_latency_s fixed at 0.0")
        else:
            if self.response_tau_s != 0.0:
                # It responds through switching, not lag.
                raise ValueError("battery kind has response_tau_s fixed at 0.0")


@dataclass(frozen=True)
class DeviceState:
    """stored_j plus the dynamic state: the current mode, the previous
    step's output (the lag state), and the pending switch if any."""

    stored_j: float
    mode: str = "idle"   # idle | charging | discharging | switching
    last_output_w: float = 0.0
    switch_target: str | None = None
    switch_remaining_s: float = 0.0


def init_state(spec: DeviceSpec) -> DeviceState:
    """Fresh device: full at the top of its state-of-charge window, idle."""
    return DeviceState(stored_j=spec.soc_max_frac * spec.energy_capacity_j)


def device_step(spec: DeviceSpec, state: DeviceState,
                requested_discharge_w: float, available_charge_w: float,
                dt_s: float) -> tuple[float, float, DeviceState]:
    """Advance one step; returns (delivered_w, absorbed_w, new_state).

    The caller resolves direction: at most one of requested_discharge_w /
    available_charge_w may be positive.  delivered_w never exceeds the
    request, the discharge limit, or the energy above soc_min; absorbed_w
    never exceeds the offer, the charge limit, or the headroom below
    soc_max (after efficiency).

    A checked wrapper over the halves that device_halves binds for this
    one step, and the only code that reads or moves DeviceState's mode: a
    battery's mode machine, and a passive device's lag base.
    """
    if dt_s <= 0.0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    if requested_discharge_w < 0.0 or available_charge_w < 0.0:
        raise ValueError("power arguments must be non-negative")
    if requested_discharge_w > 0.0 and available_charge_w > 0.0:
        raise ValueError("cannot request discharge and offer charge in the same step")

    want = ("discharging" if requested_discharge_w > 0.0 else
            "charging" if available_charge_w > 0.0 else None)
    if spec.kind == "battery":
        # Left of the turnaround after the step that starts it.
        first_left = spec.switch_latency_s - dt_s
        target = state.switch_target
        if state.mode == "switching":
            if want is not None and want != target:
                # Direction changed mid-switch: the turnaround starts over.
                return 0.0, 0.0, replace(state, last_output_w=0.0, switch_target=want,
                                         switch_remaining_s=first_left)
            remaining = state.switch_remaining_s - dt_s
            if remaining > _TIME_EPS:
                return 0.0, 0.0, replace(state, last_output_w=0.0,
                                         switch_remaining_s=remaining)
            # Switch completes at the end of this step; the new mode acts
            # from the next step on.
            return 0.0, 0.0, replace(state, mode=target, last_output_w=0.0,
                                     switch_target=None, switch_remaining_s=0.0)
        if want is None:
            return 0.0, 0.0, state
        if state.mode != want and spec.switch_latency_s > 0.0:
            if first_left > _TIME_EPS:
                return 0.0, 0.0, replace(state, mode="switching", last_output_w=0.0,
                                         switch_target=want, switch_remaining_s=first_left)
            return 0.0, 0.0, replace(state, mode=want, last_output_w=0.0,
                                     switch_target=None, switch_remaining_s=0.0)
    elif want is None:
        return 0.0, 0.0, replace(state, mode="idle", last_output_w=0.0)

    discharge, charge = device_halves(spec, dt_s)
    if want == "discharging":
        base = state.last_output_w if state.mode == "discharging" else 0.0
        delivered, stored = discharge(state.stored_j, base, requested_discharge_w)
        return delivered, 0.0, replace(state, stored_j=stored, mode=want,
                                       last_output_w=delivered)
    absorbed, stored = charge(state.stored_j, available_charge_w)
    return 0.0, absorbed, replace(state, stored_j=stored, mode=want,
                                  last_output_w=absorbed)


def device_halves(spec: DeviceSpec, dt: float):
    """The two halves of a step of any device kind, unchecked and bound to
    spec and dt: (discharge, charge).

    discharge(stored_j, base_w, request_w) returns (delivered_w, stored_j):
    the request, capped by the discharge rating and by the energy above
    soc_min, then, when response_tau_s is positive, through the lag from
    base_w, then drained.  base_w is where the lag starts: the power
    delivered on the previous step if that step discharged, else 0.0.  A
    battery has no lag, so its base is never read.

    charge(stored_j, available_w) returns (absorbed_w, stored_j): the
    offer, capped by the charge rating and by the headroom below soc_max
    after efficiency.  Recharge is not lagged: the response lag constrains
    delivery transients, not the refill.

    min() and max() are written out as comparisons that pick the same
    operand on ties (the first minimal or maximal one), which keeps the
    output bits and saves calls."""
    floor = spec.soc_min_frac * spec.energy_capacity_j
    top = spec.soc_max_frac * spec.energy_capacity_j
    max_out = spec.max_discharge_w
    max_in = spec.max_charge_w
    eff = spec.round_trip_efficiency
    dt_eff = dt * eff
    tau = spec.response_tau_s
    lag = 1.0 - math.exp(-dt / tau) if tau > 0.0 else None

    def discharge(stored, base, request):
        usable = stored - floor
        target = request
        if max_out < target:
            target = max_out
        usable = (usable if usable > 0.0 else 0.0) / dt
        if usable < target:
            target = usable
        delivered = target
        if lag is not None:
            rise = base + (target - base) * lag
            # The lag shapes the rise only; a falling target is honoured at
            # once (output above the target would exceed what was asked for).
            if rise <= target:
                delivered = rise
        # delivered <= usable by construction, so stored - delivered*dt can
        # undershoot the window edge only by rounding; snap it back.
        stored = stored - delivered * dt
        return delivered, (floor if floor > stored else stored)

    def charge(stored, available):
        room = top - stored
        absorbed = available
        if max_in < absorbed:
            absorbed = max_in
        room = (room if room > 0.0 else 0.0) / dt_eff
        if room < absorbed:
            absorbed = room
        stored = stored + absorbed * dt * eff
        return absorbed, (top if top < stored else stored)

    return discharge, charge


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

def write_device_spec(spec: DeviceSpec, dest) -> None:
    """The spec's fields in declaration order, as the shipped presets list
    them."""
    write_config(spec, dest, sort_keys=False)


def load_device_spec(source) -> DeviceSpec:
    return read_config(DeviceSpec, source, "device spec")


def builtin_device_spec(name: str) -> DeviceSpec:
    """Load one of the shipped presets by short name."""
    if name not in BUILTIN_DEVICE_NAMES:
        raise ValueError(f"unknown builtin device {name!r}; choices: {', '.join(BUILTIN_DEVICE_NAMES)}")
    return read_package_data(f"{name}.json", load_device_spec)
