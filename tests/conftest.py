"""Shared fixtures and invariant helpers for the test suite.

Every simulation a test runs should go through run_sim(), which re-checks
the per-step power balance, the grid cap, and the whole-run device energy
bookkeeping before handing the result back.  That way the conservation
invariants are exercised by every suite run, not just by one dedicated
test.

Every command-line test should start the program through run_cli(), which
runs ``python -m powershave`` on the same package this suite imported, with
every warning an error, as pytest makes one in this process.
"""

import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import powershave as ps
from powershave.devices import DeviceSpec

# Directory holding the imported package.  It goes first on a child's
# PYTHONPATH, so the child runs this code whatever its cwd and whether the
# package is installed or taken from a relative PYTHONPATH entry.
PACKAGE_ROOT = str(Path(ps.__file__).resolve().parent.parent)

# Per-step balance residual allowance, as a fraction of rack_max_w.
BALANCE_TOL_FRAC = 1e-6
# Whole-run stored-energy closure, relative to the device capacity.
BOOKKEEPING_REL = 1e-9


def check_result_invariants(result, spec=None):
    """Assert the conservation and sanity invariants on one ShavingResult."""
    cfg = result.config
    n = result.n_steps

    series = (result.p_comp_demand, result.p_comp_served, result.p_grid,
              result.p_ext_discharge, result.p_ext_charge, result.p_dummy,
              result.curtailed_w, result.stored_j, result.temperature_c)
    for arr in series:
        assert arr.shape == (n,)
    for arr in series[:-1]:        # temperature may sit below zero only if ambient does
        assert float(arr.min()) >= 0.0

    # Power balance: grid + discharge == infra + served + dummy + charge.
    residual = np.abs((result.p_grid + result.p_ext_discharge)
                      - (cfg.p_infra_w + result.p_comp_served
                         + result.p_dummy + result.p_ext_charge))
    worst = float(residual.max()) if n else 0.0
    assert worst <= BALANCE_TOL_FRAC * result.rack_max_w, (
        f"balance residual {worst} exceeds {BALANCE_TOL_FRAC * result.rack_max_w}")

    # Grid cap: compute-serving draw never exceeds threshold + infra.
    cap = result.threshold_w + cfg.p_infra_w
    assert float(result.p_grid.max()) <= cap + 1e-9 * max(1.0, cap)

    # Served never exceeds demand; curtailment is the exact gap.
    assert np.all(result.p_comp_served <= result.p_comp_demand + 1e-9)
    gap = result.p_comp_demand - result.p_comp_served
    assert np.allclose(result.curtailed_w, gap, rtol=0.0, atol=1e-9)

    # At or below the threshold only shed accelerators are curtailed, never
    # a live shortfall: curtailed_w is the whole demand (every unit down)
    # or a whole number of gpu_unit_w.
    low = result.p_comp_demand <= result.threshold_w
    cut = result.curtailed_w[low]
    units = np.round(cut / cfg.gpu_unit_w) * cfg.gpu_unit_w
    assert np.all((cut == result.p_comp_demand[low])
                  | (np.abs(cut - units) <= 1e-9 * result.rack_max_w))

    # The direct feed (battery, ideal) stops at the need, so it never has
    # surplus to offer a device or to burn as dummy load.
    if result.strategy in ("battery", "ideal"):
        assert not result.p_ext_charge.any()
        assert not result.p_dummy.any()

    # Whole-run device bookkeeping, exact up to float accumulation.
    if isinstance(spec, DeviceSpec):
        start = spec.soc_max_frac * spec.energy_capacity_j
        flow = float(np.sum(result.p_ext_charge * spec.round_trip_efficiency
                            - result.p_ext_discharge) * result.dt_s)
        closure = abs((result.final_stored_j - start) - flow)
        assert closure <= BOOKKEEPING_REL * max(1.0, spec.energy_capacity_j), (
            f"stored-energy closure off by {closure} J")
        lo = spec.soc_min_frac * spec.energy_capacity_j
        hi = spec.soc_max_frac * spec.energy_capacity_j
        slack = 1e-9 * max(1.0, spec.energy_capacity_j)
        assert float(result.stored_j.min()) >= lo - slack
        assert float(result.stored_j.max()) <= hi + slack

    return worst


def run_sim(trace, spec, config):
    """simulate_shaving plus the invariant checks; use this in tests."""
    result = ps.simulate_shaving(trace, spec, config)
    check_result_invariants(result, spec if isinstance(spec, DeviceSpec) else None)
    return result


def run_cli(args, cwd, env_extra=None):
    """Run ``python -m powershave *args`` in cwd; return the CompletedProcess.

    The child gets this process's environment without POWERSHAVE_OUT, plus
    env_extra, with PACKAGE_ROOT ahead of any inherited PYTHONPATH entries.
    It runs with -W error, so a warning fails the command, and with
    -X warn_default_encoding, so text I/O that takes the locale's encoding
    warns.
    """
    env = os.environ.copy()
    env.pop("POWERSHAVE_OUT", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (PACKAGE_ROOT + os.pathsep + inherited if inherited
                         else PACKAGE_ROOT)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error",
                           "-m", "powershave", *args],
                          cwd=str(cwd), env=env, capture_output=True, text=True,
                          encoding="utf-8")


def written(write, obj) -> str:
    """The text write(obj, stream) writes."""
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _numpy_number(value):
    if isinstance(value, tuple):
        return tuple(map(_numpy_number, value))
    if dataclasses.is_dataclass(value):
        return with_numpy_numbers(value)
    if type(value) is int:
        return np.int64(value)
    if type(value) is float:
        return np.float32(value) if float(np.float32(value)) == value else np.float64(value)
    return value


def with_numpy_numbers(config):
    """config rebuilt with every int as np.int64 and every float as
    np.float32 where that holds it exactly, else as np.float64."""
    return dataclasses.replace(config, **{
        f.name: _numpy_number(getattr(config, f.name)) for f in dataclasses.fields(config)})


# Criterion 8's synth config: 45 s at 5 ms, seed 99.  Its trace is the
# golden-digest input and the source of short whole-strategy runs.
SHORT_SYNTH_CONFIG = ps.SynthConfig(
    n_accelerators=200, iteration_period_s=1.0, burst_duration_s=(0.24, 0.44),
    burst_power_w=700.0, comm_power_w=295.0, idle_power_w=80.0,
    jitter_frac=0.99, inference_rate_hz=3.0, seed=99, duration_s=45.0,
    dt_s=0.005,
)

STRATEGIES = ("none", "capacitor", "supercap", "battery", "ideal")


def strategy_spec(name):
    """"none", "ideal" or the builtin DeviceSpec of that name."""
    return name if name in ("none", "ideal") else ps.builtin_device_spec(name)


def loose_config(**overrides):
    """SimConfig with the ramp constraint effectively off, for hand examples."""
    base = dict(grid_ramp_limit_w_per_s=1e12)
    base.update(overrides)
    return ps.SimConfig(**base)


def make_trace(samples, dt=0.01, rack_max=None, label="test"):
    samples = np.asarray(samples, dtype=float)
    if rack_max is None:
        rack_max = max(1.0, float(samples.max()) * 1.25)
    return ps.PowerTrace(dt_s=dt, samples=samples, rack_max_w=rack_max,
                         source_label=label)


@pytest.fixture(scope="session")
def default_trace():
    """The shipped calibrated synthetic trace (600 s at 5 ms, 200 accelerators)."""
    return ps.synthesize_trace(ps.DEFAULT_SYNTH_CONFIG)


@pytest.fixture(scope="session")
def default_config():
    return ps.SimConfig()


@pytest.fixture(scope="session")
def short_trace_text():
    """trace.csv text of SHORT_SYNTH_CONFIG, as ``powershave synth`` writes it."""
    buf = io.StringIO()
    ps.write_trace(ps.synthesize_trace(SHORT_SYNTH_CONFIG), buf)
    return buf.getvalue()


@pytest.fixture(scope="session")
def short_trace(short_trace_text):
    """The short trace read back from its CSV, as ``powershave simulate``
    sees it."""
    return ps.load_trace(io.StringIO(short_trace_text))


@pytest.fixture(scope="session")
def short_results(short_trace):
    """Default-config runs of all five strategies on the short trace."""
    return {name: run_sim(short_trace, strategy_spec(name), ps.SimConfig())
            for name in STRATEGIES}


@pytest.fixture(scope="session")
def preset_results(default_trace, default_config):
    """Default-config runs of all five strategies on the calibrated trace."""
    return {name: run_sim(default_trace, strategy_spec(name), default_config)
            for name in STRATEGIES}
