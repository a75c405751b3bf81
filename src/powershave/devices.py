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

device_step is the checked entry point over a DeviceState.  The physics
itself lives in functions that passive_stepper and battery_stepper build
once per (spec, dt), with the spec's constants bound in; they take and
return plain values, so a simulation loop can keep the state in local
variables.  A passive device is two halves, a discharge and a charge,
and its only state besides the stored energy is where the lag starts:
the power it delivered on the previous step if that step discharged,
else 0.0.  The battery is one stepper over all of DeviceState's fields.
The discharge limit, the SOC floor snap and the charge limit are written
once and shared by both kinds.

Energy bookkeeping is exact: stored_j decreases by delivered * dt and
increases by absorbed * dt * round_trip_efficiency, and stays inside the
[soc_min_frac, soc_max_frac] window of the capacity.  Devices start full
at soc_max_frac.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from ._textio import (check_finite, check_json_fields, read_json_object,
                      read_package_data, write_json)

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
    energy_capacity_j: float
    max_discharge_w: float
    max_charge_w: float
    response_tau_s: float = 0.0
    switch_latency_s: float = 0.0
    round_trip_efficiency: float = 1.0
    soc_min_frac: float = 0.0
    soc_max_frac: float = 1.0

    def __post_init__(self):
        check_finite(self)
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"kind must be one of {DEVICE_KINDS}, got {self.kind!r}")
        if not (self.energy_capacity_j > 0.0):
            raise ValueError("energy_capacity_j must be positive")
        if not (self.max_discharge_w > 0.0):
            raise ValueError("max_discharge_w must be positive")
        if self.max_charge_w < 0.0:
            raise ValueError("max_charge_w must be non-negative")
        if self.response_tau_s < 0.0:
            raise ValueError("response_tau_s must be non-negative")
        if self.switch_latency_s < 0.0:
            raise ValueError("switch_latency_s must be non-negative")
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

    A checked wrapper that binds passive_stepper / battery_stepper for this
    one step.
    """
    if dt_s <= 0.0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    if requested_discharge_w < 0.0 or available_charge_w < 0.0:
        raise ValueError("power arguments must be non-negative")
    if requested_discharge_w > 0.0 and available_charge_w > 0.0:
        raise ValueError("cannot request discharge and offer charge in the same step")

    if spec.kind in PASSIVE_KINDS:
        discharge, charge = passive_stepper(spec, dt_s)
        delivered = absorbed = last = 0.0
        stored, mode = state.stored_j, "idle"
        if requested_discharge_w > 0.0:
            # The only code that turns (mode, last_output_w) into a lag base.
            base = state.last_output_w if state.mode == "discharging" else 0.0
            delivered, stored = discharge(stored, base, requested_discharge_w)
            mode, last = "discharging", delivered
        elif available_charge_w > 0.0:
            absorbed, stored = charge(stored, available_charge_w)
            mode, last = "charging", absorbed
        return delivered, absorbed, replace(state, stored_j=stored, mode=mode,
                                            last_output_w=last)
    delivered, absorbed, *fields = battery_stepper(spec, dt_s)(
        state.stored_j, state.mode, state.last_output_w,
        state.switch_target, state.switch_remaining_s,
        requested_discharge_w, available_charge_w)
    return delivered, absorbed, DeviceState(*fields)


# The rules both kinds share, bound to one (spec, dt).  min() and max() are
# written out as comparisons that pick the same operand on ties (the first
# minimal or maximal one), which keeps the output bits and saves calls.

def _bind_rules(spec: DeviceSpec, dt: float):
    """(discharge_limit, drain, charge) for one spec and step length."""
    floor = spec.soc_min_frac * spec.energy_capacity_j
    top = spec.soc_max_frac * spec.energy_capacity_j
    max_out = spec.max_discharge_w
    max_in = spec.max_charge_w
    eff = spec.round_trip_efficiency
    dt_eff = dt * eff

    def discharge_limit(stored: float, request: float) -> float:
        """The request, capped by the discharge rating and by the energy
        above soc_min."""
        usable = stored - floor
        out = request
        if max_out < out:
            out = max_out
        usable = (usable if usable > 0.0 else 0.0) / dt
        if usable < out:
            out = usable
        return out

    def drain(stored: float, delivered: float) -> float:
        # delivered <= usable/dt by construction, so stored - delivered*dt
        # can undershoot the window edge only by rounding; snap it back.
        stored = stored - delivered * dt
        return floor if floor > stored else stored

    def charge(stored: float, available: float) -> tuple[float, float]:
        """(absorbed_w, stored_j after): the offer, capped by the charge
        rating and by the headroom below soc_max after efficiency."""
        room = top - stored
        absorbed = available
        if max_in < absorbed:
            absorbed = max_in
        room = (room if room > 0.0 else 0.0) / dt_eff
        if room < absorbed:
            absorbed = room
        stored = stored + absorbed * dt * eff
        return absorbed, (top if top < stored else stored)

    return discharge_limit, drain, charge


def passive_stepper(spec: DeviceSpec, dt: float):
    """The two halves of a capacitor or supercapacitor step, unchecked and
    bound to spec and dt: (discharge, charge).

    discharge(stored_j, base_w, request_w) returns (delivered_w, stored_j):
    the request through the discharge limit, then through the lag from
    base_w, then drained.  base_w is where the lag starts: the power
    delivered on the previous step if that step discharged, else 0.0.

    charge(stored_j, available_w) returns (absorbed_w, stored_j).  Recharge
    is a trickle into the element, limited by the charge rating and the
    headroom; the response lag constrains delivery transients, not the
    refill.  A step that does neither changes nothing."""
    discharge_limit, drain, charge = _bind_rules(spec, dt)
    tau = spec.response_tau_s
    lag = 1.0 - math.exp(-dt / tau) if tau > 0.0 else None

    def discharge(stored, base, request):
        target = delivered = discharge_limit(stored, request)
        if lag is not None:
            rise = base + (target - base) * lag
            # The lag shapes the rise only; a falling target is honoured at
            # once (output above the target would exceed what was asked for).
            if rise <= target:
                delivered = rise
        return delivered, drain(stored, delivered)

    return discharge, charge


def battery_stepper(spec: DeviceSpec, dt: float):
    """Unchecked battery step, bound to spec and dt: step(stored_j, mode,
    last_output_w, switch_target, switch_remaining_s, request_w,
    available_w) returns (delivered_w, absorbed_w, stored_j, mode,
    last_output_w, switch_target, switch_remaining_s)."""
    discharge_limit, drain, charge = _bind_rules(spec, dt)
    latency = spec.switch_latency_s
    # Left of the turnaround after the step that starts it.
    first_left = latency - dt

    def step(stored, mode, last, target, remaining, request, available):
        want = "discharging" if request > 0.0 else ("charging" if available > 0.0 else None)

        if mode == "switching":
            if want is not None and want != target:
                # Direction changed mid-switch: the turnaround starts over.
                return 0.0, 0.0, stored, mode, 0.0, want, first_left
            remaining -= dt
            if remaining > _TIME_EPS:
                return 0.0, 0.0, stored, mode, 0.0, target, remaining
            # Switch completes at the end of this step; the new mode acts
            # from the next step on.
            return 0.0, 0.0, stored, target, 0.0, None, 0.0

        if want is None:
            return 0.0, 0.0, stored, mode, last, target, remaining

        if mode != want:
            if latency > 0.0:
                if first_left > _TIME_EPS:
                    return 0.0, 0.0, stored, "switching", 0.0, want, first_left
                return 0.0, 0.0, stored, want, 0.0, None, 0.0
            mode = want

        if want == "discharging":
            delivered = discharge_limit(stored, request)
            return (delivered, 0.0, drain(stored, delivered), mode,
                    delivered, target, remaining)
        absorbed, stored = charge(stored, available)
        return 0.0, absorbed, stored, mode, absorbed, target, remaining

    return step


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

def write_device_spec(spec: DeviceSpec, dest) -> None:
    """The spec's fields in declaration order, as the shipped presets list
    them."""
    write_json(asdict(spec), dest, sort_keys=False)


def load_device_spec(source) -> DeviceSpec:
    data = read_json_object(source, "device spec")
    if "kind" not in data:
        raise ValueError("device spec missing 'kind'")
    check_json_fields(DeviceSpec, data, "device spec")
    return DeviceSpec(**data)


def builtin_device_spec(name: str) -> DeviceSpec:
    """Load one of the shipped presets by short name."""
    if name not in BUILTIN_DEVICE_NAMES:
        raise ValueError(f"unknown builtin device {name!r}; choices: {', '.join(BUILTIN_DEVICE_NAMES)}")
    return read_package_data(f"{name}.json", load_device_spec)
