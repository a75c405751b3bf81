"""The one number rule (_textio.number_field): on every record dataclass
through check_fields, and on every public function's number arguments.

Covers:
 1. The set of number fields that declare a sign, pinned
 2. Each of them, from dataclasses.fields: a positive field refuses 0, a
    non-negative one accepts 0 and refuses the nearest value below, each
    refusal with the rule's exact message
 3. Numpy numbers stored as Python numbers, bools refused
 4. A generated refusal table: each number argument of a public
    function, class or method refuses a bool, a string, None, NaN, the
    infinities and an int beyond the float range with the rule's exact
    ValueError, and -1.0 where it is bounded below, each naming the
    argument or the field it fills
 5. A guard: every parameter annotated float of a public function or
    method has a row in that table
"""

import dataclasses
import functools
import inspect
import io
import math
import re

import numpy as np
import pytest

import powershave as ps
from powershave.shaving import SimConfig
from powershave.spikes import ThresholdSpec

from conftest import SHORT_SYNTH_CONFIG, make_trace

# One valid record of each dataclass that keeps the rule.  The capacitor
# may hold 0.0 in each of its bounded fields but the three it needs
# positive.
RECORDS = {
    SimConfig: SimConfig(),
    ps.DeviceSpec: ps.DeviceSpec(kind="capacitor", energy_capacity_j=50.0,
                                 max_discharge_w=12000.0, max_charge_w=12000.0),
    ps.SynthConfig: SHORT_SYNTH_CONFIG,
    ThresholdSpec: ThresholdSpec(absolute_w=600.0),
    ps.PowerTrace: make_trace([1.0, 2.0, 3.0]),
    ps.ComparisonRow: ps.ComparisonRow("x", 1.5, 10.0, 20.0, 30.0, 40.0),
}

BOUNDED = {
    ("SimConfig", "p_infra_w", "non-negative"),
    ("SimConfig", "grid_ramp_limit_w_per_s", "positive"),
    ("SimConfig", "restart_penalty_s", "non-negative"),
    ("SimConfig", "gpu_unit_w", "positive"),
    ("SimConfig", "heat_factor", "positive"),
    ("SimConfig", "thermal_tau_s", "positive"),
    ("SimConfig", "derate_slope_per_c", "non-negative"),
    ("SimConfig", "thermal_ref_power_w", "positive"),
    ("DeviceSpec", "energy_capacity_j", "positive"),
    ("DeviceSpec", "max_discharge_w", "positive"),
    ("DeviceSpec", "max_charge_w", "non-negative"),
    ("DeviceSpec", "response_tau_s", "non-negative"),
    ("DeviceSpec", "switch_latency_s", "non-negative"),
    ("SynthConfig", "n_accelerators", "positive"),
    ("SynthConfig", "iteration_period_s", "positive"),
    ("SynthConfig", "burst_power_w", "positive"),
    ("SynthConfig", "inference_rate_hz", "non-negative"),
    ("SynthConfig", "seed", "non-negative"),
    ("SynthConfig", "dt_s", "positive"),
    ("ThresholdSpec", "absolute_w", "positive"),
    ("PowerTrace", "dt_s", "positive"),
    ("PowerTrace", "rack_max_w", "positive"),
    ("ComparisonRow", "dummy_energy_j", "non-negative"),
    ("ComparisonRow", "total_unserved_energy_j", "non-negative"),
    ("ComparisonRow", "device_energy_throughput_j", "non-negative"),
}


def _bounded_fields():
    return [(cls, f) for cls in RECORDS for f in dataclasses.fields(cls)
            if "sign" in f.metadata]


def test_bounded_fields_are_pinned():
    assert {(cls.__name__, f.name, f.metadata["sign"])
            for cls, f in _bounded_fields()} == BOUNDED
    assert len(BOUNDED) == 25


# (kept, refused) per sign; an int field takes the int values.
_EDGES = {"positive": ((), (0.0,)), "non-negative": ((0.0,), (-1e-300,))}
_INT_EDGES = {"positive": ((), (0,)), "non-negative": ((0,), (-1,))}


@pytest.mark.parametrize("cls, f", _bounded_fields(),
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in _bounded_fields()])
def test_sign_rule_from_field_metadata(cls, f):
    sign = f.metadata["sign"]
    kept, refused = (_INT_EDGES if f.type == "int" else _EDGES)[sign]
    base = RECORDS[cls]
    for value in kept:
        assert getattr(dataclasses.replace(base, **{f.name: value}), f.name) == value
    for value in refused:
        with pytest.raises(ValueError, match=re.escape(
                f"{f.name} must be {sign}, got {value!r}") + "$"):
            dataclasses.replace(base, **{f.name: value})


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_numpy_numbers_are_stored_as_python_numbers(cls):
    base = RECORDS[cls]
    number_fields = [f for f in dataclasses.fields(cls)
                     if f.type in ("int", "float", "float | None")
                     and getattr(base, f.name) is not None]
    numpy_kind = {"int": np.int64}
    record = dataclasses.replace(base, **{
        f.name: numpy_kind.get(f.type, np.float64)(getattr(base, f.name))
        for f in number_fields})
    for f in number_fields:
        value, expected = getattr(record, f.name), getattr(base, f.name)
        assert (type(value), value) == (type(expected), expected), f.name


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_bool_in_a_number_field_is_refused(cls):
    for f in dataclasses.fields(cls):
        if f.type in ("int", "float", "float | None"):
            with pytest.raises(ValueError, match=f"^{f.name} must be an? "):
                dataclasses.replace(RECORDS[cls], **{f.name: True})


# ---------------------------------------------------------------------------
# 4. The number rule on public function arguments
# ---------------------------------------------------------------------------

_TRACE = make_trace([1.0, 2.0, 3.0])
_TRACE_TEXT = "timestamp_s,power_w\n0.0,1.0\n0.01,2.0\n0.02,3.0\n"
_SUPERCAP = ps.builtin_device_spec("supercap")
_FULL = ps.init_state(_SUPERCAP)

# (the function, class or "Class.method" that takes the argument, the
# argument, the name its refusal leads with, whether -1.0 is refused, a call
# that puts a value in the argument and keeps every other argument valid).
# A list argument takes the value as one entry.
ARGUMENTS = [
    ("gpus_saved", "threshold_frac", "threshold_fracs values", True,
     lambda v: ps.gpus_saved(_TRACE, v, 0.0)),
    ("gpus_saved", "min_burst_s", "burst_lengths_s values", True,
     lambda v: ps.gpus_saved(_TRACE, 0.5, v)),
    ("gpus_saved", "gpu_unit_w", "gpu_unit_w", True,
     lambda v: ps.gpus_saved(_TRACE, 0.5, 0.0, v)),
    ("sweep_gpus_saved", "threshold_fracs", "threshold_fracs values", True,
     lambda v: ps.sweep_gpus_saved(_TRACE, (v,), (0.0,))),
    ("sweep_gpus_saved", "burst_lengths_s", "burst_lengths_s values", True,
     lambda v: ps.sweep_gpus_saved(_TRACE, (0.5,), (v,))),
    ("sweep_gpus_saved", "gpu_unit_w", "gpu_unit_w", True,
     lambda v: ps.sweep_gpus_saved(_TRACE, (0.5,), (0.0,), v)),
    ("SweepGrid", "threshold_fracs", "threshold_fracs values", True,
     lambda v: ps.SweepGrid((v,), (0.0,), values=[[0]])),
    ("SweepGrid", "burst_lengths_s", "burst_lengths_s values", True,
     lambda v: ps.SweepGrid((0.5,), (v,), values=[[0]])),
    ("spike_statistics", "energy_bin_edges", "energy_bin_edges values", False,
     lambda v: ps.spike_statistics([], (v, 1e6))),
    ("thermal_step", "temp_c", "temp_c", False,
     lambda v: ps.thermal_step(v, 1e3, SimConfig(), 1.0)),
    ("thermal_step", "heat_input_w", "heat_input_w", True,
     lambda v: ps.thermal_step(25.0, v, SimConfig(), 1.0)),
    ("thermal_step", "dt_s", "dt_s", True,
     lambda v: ps.thermal_step(25.0, 1e3, SimConfig(), v)),
    ("device_step", "requested_discharge_w", "requested_discharge_w", True,
     lambda v: ps.device_step(_SUPERCAP, _FULL, v, 0.0, 0.01)),
    ("device_step", "available_charge_w", "available_charge_w", True,
     lambda v: ps.device_step(_SUPERCAP, _FULL, 0.0, v, 0.01)),
    ("device_step", "dt_s", "dt_s", True,
     lambda v: ps.device_step(_SUPERCAP, _FULL, 5e3, 0.0, v)),
    ("capacitor_energy", "capacitance_f", "capacitance_f", True,
     lambda v: ps.capacitor_energy(v, 10.0)),
    # -1.0 lies below the default v_min of 0.0.
    ("capacitor_energy", "v_max", "v_max", True,
     lambda v: ps.capacitor_energy(1.0, v)),
    ("capacitor_energy", "v_min", "v_min", True,
     lambda v: ps.capacitor_energy(1.0, 10.0, v)),
    ("resample", "dt_new_s", "dt_new_s", True,
     lambda v: ps.resample(_TRACE, v)),
    ("ThresholdSpec.resolve", "rack_max_w", "rack_max_w", True,
     lambda v: ThresholdSpec(absolute_w=1.0).resolve(v)),
    # The override fills PowerTrace's rack_max_w; None takes the file's.
    ("load_trace", "rack_max_w", "rack_max_w", True,
     lambda v: ps.load_trace(io.StringIO(_TRACE_TEXT), v)),
]

# Each value the rule refuses, with its refusal after the name.
_NOT_NUMBERS = [(True, "must be a number, got True"), ("1", "must be a number, got '1'"),
                (None, "must be a number, got None")]
_NOT_FINITE = [(value, f"must be finite, got {value!r}")
               for value in (math.nan, math.inf, -math.inf, 10 ** 400)]


def _public(name):
    """The object powershave exports as name, "function" or "Class.method"."""
    return functools.reduce(getattr, name.split("."), ps)


def _optional(function, argument) -> bool:
    return str(inspect.signature(_public(function)).parameters[argument]
               .annotation).endswith("| None")


def _id(value) -> str:
    return "10**400" if value == 10 ** 400 else repr(value)


def _refusal_cases():
    cases = []
    for function, argument, name, signed, call in ARGUMENTS:
        for value, rest in _NOT_NUMBERS + _NOT_FINITE:
            if value is None and _optional(function, argument):
                continue
            cases.append(pytest.param(call, value, name, rest,
                                      id=f"{function}.{argument}-{_id(value)}"))
        if signed:
            # Refused by the argument's sign or range, in its own words.
            cases.append(pytest.param(call, -1.0, name, None,
                                      id=f"{function}.{argument}--1.0"))
    return cases


@pytest.mark.parametrize("call, value, name, rest", _refusal_cases())
def test_number_argument_refusal(call, value, name, rest):
    # Only ValueError: a TypeError or OverflowError fails the test.
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{name} "), err.value
    if rest is not None:
        assert str(err.value) == f"{name} {rest}"


# ---------------------------------------------------------------------------
# 5. Guard: no public number argument without a row
# ---------------------------------------------------------------------------

def test_every_public_float_parameter_has_a_refusal_row():
    rows = {(function, argument) for function, argument, *_ in ARGUMENTS}
    for function, argument in rows:
        assert argument in inspect.signature(_public(function)).parameters
    # Every exported function and every public method of an exported class.
    callables = [name for name in ps.__all__ if inspect.isfunction(getattr(ps, name))]
    callables += [f"{name}.{method}" for name in ps.__all__
                  if inspect.isclass(cls := getattr(ps, name))
                  for method, obj in vars(cls).items()
                  if not method.startswith("_") and inspect.isfunction(obj)]
    declared = {(name, param.name) for name in callables
                for param in inspect.signature(_public(name)).parameters.values()
                if param.annotation in ("float", "float | None")}
    assert declared - rows == set()
