"""The one field rule (_textio.check_fields) on every record dataclass.

Covers:
 1. The set of number fields that declare a sign, pinned
 2. Each of them, from dataclasses.fields: a positive field refuses 0, a
    non-negative one accepts 0 and refuses the nearest value below, each
    refusal with the rule's exact message
 3. Numpy numbers stored as Python numbers, bools refused
"""

import dataclasses
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
