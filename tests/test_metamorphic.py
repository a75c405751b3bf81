"""Exact symmetries of the model, checked on traces nobody pinned.

1. Power-of-two scaling.  Multiply by s = 2**k, k from -3 to 3, every
   power and energy the model reads: the samples, rack_max_w, p_infra_w,
   grid_ramp_limit_w_per_s, gpu_unit_w, thermal_ref_power_w and each
   device's energy capacity and ratings.  A product by a power of two is
   exact, so for all five strategies every power and energy series and
   total is exactly s times the original wherever no value underflows
   (see below); temperature_c, the event count, the ramp-violation steps
   and the curtailed GPU-seconds are equal.
   gpus_saved over a grid is equal; each detected spike keeps its start,
   duration and peak fraction, and its peak excess and energy scale by s.
2. Idle prefix.  Prepend K copies of the first sample, which lies below
   the threshold.  Every series but temperature_c (the thermal node warms
   during the prefix) is equal on the original steps, the event count is
   equal and every ramp-violation step moves by exactly K.

No power constant of the model is absolute.  Its whiskers, the 1e-9 in
the accelerator-unit ceiling (which also decides whether a live shortfall
is served: it is when it sheds no unit), the 1e-9 of the ramp bound and the
1e-12 s on times, compare scale-free quotients and times.  So both
relations hold for every input: the random cases include 50 ms steps, 25
times the capacitor's 2 ms lag, where a lagged discharge leaves a residue
of a few nW unserved.  The one limit is the float format's: a product by a
power of two is exact only between normal numbers.  A passive device's
lagged output decays by about e**-25 a step at 50 ms steps and can reach
subnormal watts (1e-312 W), which round differently at each scale.  So a
series value that is not s times the original must be below TINY at both
scales.
"""

from dataclasses import replace

import numpy as np
import pytest

import powershave as ps

from conftest import STRATEGIES, run_sim, strategy_spec

SCALES = [2.0 ** k for k in range(-3, 4)]
POWER_SERIES = ("p_comp_demand", "p_comp_served", "p_grid", "p_ext_discharge",
                "p_ext_charge", "p_dummy", "curtailed_w", "stored_j")
POWER_TOTALS = ("total_dummy_energy_j", "total_unserved_energy_j",
                "device_energy_throughput_j")
# Below this a value is subnormal at some scale of SCALES.
TINY = 2.0 ** -1022 * max(SCALES)


def random_trace(rng, n=2000):
    """Piecewise-constant load on a 1 kW-200 kW rack, starting idle."""
    rack = rng.uniform(1e3, 2e5)
    levels = rng.uniform(0.2, 1.0, size=n) * rack
    samples = np.repeat(levels, rng.integers(1, 60, size=n))[:n]
    samples[0] = rng.uniform(0.1, 0.5) * rack
    return ps.PowerTrace(dt_s=float(rng.choice([0.001, 0.002, 0.005, 0.01])),
                         samples=samples, rack_max_w=rack, source_label="random")


def random_config(rng, rack):
    return ps.SimConfig(
        threshold=ps.ThresholdSpec(fraction_of_max=rng.uniform(0.5, 0.9)),
        p_infra_w=rng.uniform(0.0, 0.3) * rack,
        grid_ramp_limit_w_per_s=rng.uniform(0.01, 10.0) * rack,
        restart_penalty_s=rng.uniform(0.0, 3.0), gpu_unit_w=rack / rng.uniform(20.0, 300.0),
        thermal_ref_power_w=rng.uniform(0.5, 2.0) * rack)


def random_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        trace = random_trace(rng)
        yield trace, random_config(rng, trace.rack_max_w)


def with_samples(trace, samples, scale=1.0):
    return ps.PowerTrace(dt_s=trace.dt_s, samples=samples, rack_max_w=trace.rack_max_w * scale,
                         source_label=trace.source_label, origin_time_s=trace.origin_time_s)


def scaled(trace, config, spec, s):
    config = replace(config, p_infra_w=config.p_infra_w * s,
                     grid_ramp_limit_w_per_s=config.grid_ramp_limit_w_per_s * s,
                     gpu_unit_w=config.gpu_unit_w * s,
                     thermal_ref_power_w=config.thermal_ref_power_w * s)
    if isinstance(spec, ps.DeviceSpec):
        spec = replace(spec, energy_capacity_j=spec.energy_capacity_j * s,
                       max_discharge_w=spec.max_discharge_w * s,
                       max_charge_w=spec.max_charge_w * s)
    return with_samples(trace, trace.samples * s, s), spec, config


def check_scaling(trace, config, names=STRATEGIES):
    for name in names:
        spec = strategy_spec(name)
        base = run_sim(trace, spec, config)
        for s in SCALES:
            got = run_sim(*scaled(trace, config, spec, s))
            for series in POWER_SERIES:
                a, b = getattr(got, series), getattr(base, series) * s
                underflow = (np.abs(a) < TINY) & (np.abs(b) < TINY)
                assert ((a == b) | underflow).all(), (name, s, series)
            for total in POWER_TOTALS:
                assert getattr(got, total) == getattr(base, total) * s, (name, s, total)
            assert np.array_equal(got.temperature_c, base.temperature_c), (name, s)
            assert np.array_equal(got.ramp_violation_steps, base.ramp_violation_steps)
            assert got.unserved_spike_count == base.unserved_spike_count
            assert got.curtailed_gpu_seconds == base.curtailed_gpu_seconds


def check_spike_scaling(trace, frac):
    threshold = ps.ThresholdSpec(fraction_of_max=frac)
    base = ps.detect_spikes(trace, threshold)
    fracs, bursts = (0.5, 0.6, 0.7, 0.8, 0.9), (0.0, 0.02, 0.1)
    grid = ps.sweep_gpus_saved(trace, fracs, bursts, 700.0)
    for s in SCALES:
        big = with_samples(trace, trace.samples * s, s)
        got = ps.detect_spikes(big, threshold)
        assert [(sp.start_s, sp.duration_s, sp.peak_frac) for sp in got] == \
            [(sp.start_s, sp.duration_s, sp.peak_frac) for sp in base]
        assert [(sp.peak_excess_w, sp.energy_above_j) for sp in got] == \
            [(sp.peak_excess_w * s, sp.energy_above_j * s) for sp in base]
        assert np.array_equal(ps.sweep_gpus_saved(big, fracs, bursts, 700.0 * s).values,
                              grid.values)
    return len(base)


def check_idle_prefix(trace, config, k):
    assert trace.samples[0] < config.threshold.resolve(trace.rack_max_w)
    longer = with_samples(trace, np.concatenate((np.full(k, trace.samples[0]), trace.samples)))
    for name in STRATEGIES:
        spec = strategy_spec(name)
        base = run_sim(trace, spec, config)
        got = run_sim(longer, spec, config)
        for series in POWER_SERIES:
            assert np.array_equal(getattr(got, series)[k:], getattr(base, series)), \
                (name, k, series)
        assert got.unserved_spike_count == base.unserved_spike_count
        assert np.array_equal(got.ramp_violation_steps, base.ramp_violation_steps + k)


def test_scaling_on_the_short_trace(short_trace):
    check_scaling(short_trace, ps.SimConfig())
    assert check_spike_scaling(short_trace, 0.7) > 0


def test_scaling_on_random_traces():
    for trace, config in random_cases(1701, 20):
        check_scaling(trace, config)
        check_spike_scaling(trace, config.threshold.fraction_of_max)


def test_scaling_of_passive_lag_residues_at_50_ms_steps():
    # The passive devices' lags (2 ms and 4 ms) at 50 ms steps: some of
    # these cases leave a lag residue of a few nW, which sheds no unit.
    for trace, config in random_cases(1705, 60):
        coarse = ps.PowerTrace(dt_s=0.05, samples=trace.samples,
                               rack_max_w=trace.rack_max_w)
        check_scaling(coarse, config, ("capacitor", "supercap"))


@pytest.mark.parametrize("k", [1, 7, 1000])
def test_idle_prefix_on_the_short_trace(short_trace, k):
    check_idle_prefix(short_trace, ps.SimConfig(), k)


def test_idle_prefix_on_random_traces():
    rng = np.random.default_rng(1702)
    for trace, config in random_cases(1703, 20):
        check_idle_prefix(trace, config, int(rng.integers(1, 3000)))


def test_idle_prefix_on_a_cut_at_coarse_steps(short_trace):
    # The short trace's first 6,000 samples read at steps of 10-700 ms,
    # with restart penalties of 0.2-2.1 s, so a hold spans few steps.
    rng = np.random.default_rng(1704)
    for _ in range(20):
        cut = ps.PowerTrace(dt_s=rng.uniform(0.01, 0.7), samples=short_trace.samples[:6000],
                            rack_max_w=short_trace.rack_max_w)
        config = ps.SimConfig(restart_penalty_s=rng.uniform(0.2, 2.1))
        check_idle_prefix(cut, config, int(rng.integers(1, 2000)))
