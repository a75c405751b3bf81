"""The three answers agree where the model says they must.

Where the spikes are (detect_spikes), what a device buys (simulate_shaving)
and how many accelerators are saved (gpus_saved) are each tested on their
own elsewhere.  With no device and restart_penalty_s = 0 the model makes
them one answer: the feed escalates to the cap on every step above the
threshold theta, so each such step's live shortfall is demand - theta, and
nothing else is shed.  Then

1. every detected spike is one shortfall event;
2. the largest per-step shed count is gpus_saved at burst length 0;
3. p_comp_served is minimum(demand, theta), bit for bit on every step
   where p_infra_w + demand and p_infra_w + theta are exact float sums;
4. the unserved energy is the spikes' summed energy_above_j, to a relative
   1e-12 (the two sums add in different orders).

One exception is part of the model: a step whose shortfall is below
shaving._W_EPS (1e-9 W) is served in full.  So a spike whose peak excess is
below _W_EPS is detected but opens no event, and its steps keep their
demand.  The expectations below leave such spikes out; the hand traces
hold one, so the exception is exercised rather than avoided.

Equality 3 does not hold bit for bit on every step, and the test says so
rather than choosing data that hides it.  The live shortfall is worked out
as (load - c) - (cap - c) with load = p_infra_w + demand and cap =
p_infra_w + theta.  Where either sum rounds, served misses theta by up to
one spacing of the load: on the random traces below, about half the steps
above theta.  Those steps are held to that bound instead.

The ideal device covers every deficit: no events and p_comp_served equal
to p_comp_demand, whatever the restart penalty.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import powershave as ps
from powershave.shaving import _W_EPS

from conftest import SHORT_SYNTH_CONFIG, make_trace, run_sim


def check_answers_agree(trace, frac, gpu_unit_w):
    threshold = ps.ThresholdSpec(fraction_of_max=frac)
    theta = threshold.resolve(trace.rack_max_w)
    config = ps.SimConfig(threshold=threshold, restart_penalty_s=0.0,
                          gpu_unit_w=gpu_unit_w)
    result = run_sim(trace, "none", config)
    spikes = ps.detect_spikes(trace, threshold)

    demand = result.p_comp_demand
    # The _W_EPS exception: these spikes are detected but never shed.
    served_in_full = [sp for sp in spikes if not sp.peak_excess_w >= _W_EPS]
    want_served = np.minimum(demand, theta)
    for sp in served_in_full:
        i0 = round((sp.start_s - trace.origin_time_s) / trace.dt_s)
        i1 = i0 + round(sp.duration_s / trace.dt_s)
        want_served[i0:i1] = demand[i0:i1]
    shed = [sp for sp in spikes if sp not in served_in_full]

    assert result.unserved_spike_count == len(shed)
    per_step = np.ceil(result.curtailed_w / gpu_unit_w - 1e-9)
    assert int(per_step.max()) == ps.gpus_saved(trace, frac, 0.0, gpu_unit_w)
    p_infra = config.p_infra_w
    exact = (((p_infra + demand) - p_infra == demand)
             & ((p_infra + theta) - p_infra == theta))
    assert result.p_comp_served[exact].tobytes() == want_served[exact].tobytes()
    assert (np.abs(result.p_comp_served - want_served)
            <= np.spacing(p_infra + demand)).all()
    want_j = math.fsum(sp.energy_above_j for sp in shed)
    assert result.total_unserved_energy_j == pytest.approx(want_j, rel=1e-12, abs=0.0)

    for penalty in (0.0, 60.0):
        ideal = run_sim(trace, "ideal", replace(config, restart_penalty_s=penalty))
        assert ideal.unserved_spike_count == 0
        assert ideal.p_comp_served.tobytes() == ideal.p_comp_demand.tobytes()
    return len(spikes), len(served_in_full)


# (samples, threshold fraction) on a 1,000 W rack, so theta is 1000 * frac.
HAND_CASES = {
    "spike at the start": ([900.0, 800.0, 100.0, 100.0, 650.0, 100.0], 0.5),
    "spike at the end": ([100.0, 200.0, 100.0, 600.0, 650.0], 0.5),
    "one-sample spikes": ([100.0, 510.0, 100.0, 990.0, 100.0, 700.0], 0.5),
    "all above": ([700.0, 800.0, 900.0, 750.0], 0.6),
    "below _W_EPS": ([100.0, 500.000000000001, 100.0, 800.0, 100.0], 0.5),
    "only below _W_EPS": ([100.0, 500.000000000001, 500.0000000000005, 100.0], 0.5),
}


@pytest.mark.parametrize("name", HAND_CASES)
@pytest.mark.parametrize("gpu_unit_w", [100.0, 350.0])
def test_answers_agree_on_hand_traces(name, gpu_unit_w):
    samples, frac = HAND_CASES[name]
    trace = make_trace(samples, dt=0.005, rack_max=1000.0)
    found, served_in_full = check_answers_agree(trace, frac, gpu_unit_w)
    assert found >= 1
    assert (served_in_full > 0) == name.endswith("_W_EPS")


@pytest.mark.parametrize("seed", [20260816, 1, 4242])
@pytest.mark.parametrize("frac", [0.6, 0.7, 0.72])
def test_answers_agree_on_the_short_trace(seed, frac):
    trace = ps.synthesize_trace(replace(SHORT_SYNTH_CONFIG, seed=seed,
                                        duration_s=30.0))
    found, _ = check_answers_agree(trace, frac, 700.0)
    assert found > 0


def test_answers_agree_on_random_traces():
    rng = np.random.default_rng(12)
    for _ in range(20):
        config = replace(SHORT_SYNTH_CONFIG, seed=int(rng.integers(0, 2**31)),
                         n_accelerators=int(rng.integers(8, 60)),
                         jitter_frac=float(rng.uniform(0.0, 0.99)),
                         inference_rate_hz=float(rng.uniform(0.0, 6.0)),
                         duration_s=12.0)
        check_answers_agree(ps.synthesize_trace(config),
                            float(rng.uniform(0.55, 0.8)),
                            float(rng.choice([350.0, 700.0, 1000.0])))
