"""Spike detection and statistics.

Covers:
 1. ThresholdSpec construction and resolution rules
 2. detect_spikes hand examples (strict-above, boundary runs)
 3. Oracle equivalence against an independent naive scan on random traces
 4. Energy identity: sum of spike energies == integral of (p - theta)+
 5. Nested-threshold monotonicity of total duration and energy
 6. spike_statistics: nearest-rank percentiles, histogram clamping, empty
 7. threshold_sweep consistency and ordering
 8. CSV / JSON export formats
"""

import io
import json

import numpy as np
import pytest

import powershave as ps
from powershave import ThresholdSpec

from conftest import make_trace


def naive_scan(samples, dt, theta, rack_max, origin=0.0):
    """Reference detector: a plain left-to-right scan over the samples.

    Independent of the vectorized run detection in the library; numpy is
    used only as the arithmetic primitive on each found segment so float
    results are comparable bit for bit.
    """
    spikes = []
    i, n = 0, len(samples)
    while i < n:
        if samples[i] > theta:
            j = i
            while j < n and samples[j] > theta:
                j += 1
            seg = np.asarray(samples[i:j], dtype=float)
            excess = seg - theta
            spikes.append((origin + i * dt, (j - i) * dt,
                           float(excess.max()), float(excess.sum() * dt),
                           float(seg.max() / rack_max)))
            i = j
        else:
            i += 1
    return spikes


def as_tuples(spikes):
    return [(s.start_s, s.duration_s, s.peak_excess_w, s.energy_above_j, s.peak_frac)
            for s in spikes]


# ---------------------------------------------------------------------------
# 1. ThresholdSpec
# ---------------------------------------------------------------------------

def test_threshold_exactly_one_mode():
    with pytest.raises(ValueError):
        ThresholdSpec()
    with pytest.raises(ValueError):
        ThresholdSpec(absolute_w=500.0, fraction_of_max=0.5)
    assert ThresholdSpec(absolute_w=500.0).resolve(1000.0) == 500.0
    assert ThresholdSpec(fraction_of_max=0.5).resolve(1000.0) == 500.0


def test_threshold_bounds():
    with pytest.raises(ValueError):
        ThresholdSpec(fraction_of_max=0.0)
    with pytest.raises(ValueError):
        ThresholdSpec(fraction_of_max=1.5)
    with pytest.raises(ValueError):
        ThresholdSpec(absolute_w=-5.0)
    # Resolved value must stay inside (0, rack_max].
    with pytest.raises(ValueError):
        ThresholdSpec(absolute_w=2000.0).resolve(1000.0)
    assert ThresholdSpec(fraction_of_max=1.0).resolve(1000.0) == 1000.0


# ---------------------------------------------------------------------------
# 2. detect_spikes hand examples
# ---------------------------------------------------------------------------

def test_detect_hand_example():
    # [300,300,900,1200,900,300] at dt 0.01, threshold 600: one run of three
    # samples; energy (300+600+300)*0.01 = 12 J.
    tr = make_trace([300.0, 300.0, 900.0, 1200.0, 900.0, 300.0],
                    dt=0.01, rack_max=1500.0)
    spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=600.0))
    assert len(spikes) == 1
    sp = spikes[0]
    assert sp.start_s == pytest.approx(0.02)
    assert sp.duration_s == pytest.approx(0.03)
    assert sp.peak_excess_w == pytest.approx(600.0)
    assert sp.energy_above_j == pytest.approx(12.0)
    assert sp.peak_frac == pytest.approx(1200.0 / 1500.0)


def test_detect_nothing_above():
    tr = make_trace([500.0] * 20, dt=0.01, rack_max=1000.0)
    assert ps.detect_spikes(tr, ThresholdSpec(absolute_w=600.0)) == []


def test_detect_whole_trace_spike():
    # Threshold just below the minimum sample: one spike spans everything.
    tr = make_trace([700.0, 650.0, 720.0], dt=0.01, rack_max=1000.0)
    spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=649.0))
    assert len(spikes) == 1
    assert spikes[0].start_s == 0.0
    assert spikes[0].duration_s == pytest.approx(0.03)


def test_detect_equal_sample_is_not_above():
    # Strict comparison: a sample exactly at the threshold splits the burst.
    tr = make_trace([700.0, 600.0, 700.0], dt=0.01, rack_max=1000.0)
    spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=600.0))
    assert len(spikes) == 2
    assert [s.duration_s for s in spikes] == [pytest.approx(0.01)] * 2


def test_detect_boundary_runs_counted():
    tr = make_trace([900.0, 300.0, 900.0], dt=0.01, rack_max=1000.0)
    spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=600.0))
    assert [s.start_s for s in spikes] == [pytest.approx(0.0), pytest.approx(0.02)]


# ---------------------------------------------------------------------------
# 3. Oracle equivalence on random traces
# ---------------------------------------------------------------------------

def test_oracle_equivalence_random_traces():
    # A quicker cousin of the full oracle-equivalence run in the acceptance
    # suite; plateau-heavy traces exercise samples exactly at the threshold.
    rng = np.random.default_rng(101)
    n_traces = 200
    total_spikes = 0
    for _ in range(n_traces):
        n = int(rng.integers(1, 2000))
        style = rng.integers(0, 3)
        if style == 0:
            samples = rng.uniform(0.0, 1000.0, size=n)
        elif style == 1:
            # Random walk, clipped non-negative.
            samples = np.abs(np.cumsum(rng.normal(0.0, 40.0, size=n)) + 400.0)
        else:
            # Plateaus: repeated levels from a small value set.
            levels = rng.choice([200.0, 400.0, 600.0, 800.0], size=max(1, n // 8))
            samples = np.repeat(levels, 8)[:n]
            if samples.size < n:
                samples = np.concatenate([samples, np.full(n - samples.size, 200.0)])
        rack = float(max(samples.max(), 1.0)) * 1.1
        dt = float(rng.choice([0.001, 0.005, 0.01]))
        tr = make_trace(samples, dt=dt, rack_max=rack)
        # Sometimes place the threshold exactly on a sample value.
        if rng.random() < 0.4:
            theta = float(rng.choice(samples))
            if not (0.0 < theta <= rack):
                theta = rack * 0.5
        else:
            theta = float(rng.uniform(0.01, 1.0)) * rack
        got = as_tuples(ps.detect_spikes(tr, ThresholdSpec(absolute_w=theta)))
        want = naive_scan(samples, dt, theta, rack)
        assert got == want
        total_spikes += len(want)
    print(f"oracle equivalence: {n_traces} traces, {total_spikes} spikes, exact match")


# ---------------------------------------------------------------------------
# 4/5. Energy identity and nested monotonicity
# ---------------------------------------------------------------------------

def test_energy_identity():
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = int(rng.integers(10, 3000))
        samples = rng.uniform(0.0, 900.0, size=n)
        tr = make_trace(samples, dt=0.005, rack_max=1000.0)
        theta = float(rng.uniform(50.0, 950.0))
        spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=theta))
        total = sum(s.energy_above_j for s in spikes)
        direct = float(np.sum(np.maximum(0.0, samples - theta)) * tr.dt_s)
        assert total == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_monotone_in_threshold():
    rng = np.random.default_rng(303)
    samples = rng.uniform(0.0, 900.0, size=4000)
    tr = make_trace(samples, dt=0.005, rack_max=1000.0)
    thetas = np.linspace(50.0, 950.0, 19)
    prev_dur, prev_en = None, None
    for theta in thetas:
        spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=float(theta)))
        dur = sum(s.duration_s for s in spikes)
        en = sum(s.energy_above_j for s in spikes)
        if prev_dur is not None:
            assert dur <= prev_dur + 1e-12
            assert en <= prev_en + 1e-12
        prev_dur, prev_en = dur, en


def test_peak_frac_bounded():
    rng = np.random.default_rng(404)
    samples = rng.uniform(0.0, 1000.0, size=2000)
    tr = make_trace(samples, dt=0.005, rack_max=1000.0)
    for s in ps.detect_spikes(tr, ThresholdSpec(fraction_of_max=0.3)):
        assert 0.0 < s.peak_frac <= 1.0
        assert s.duration_s >= tr.dt_s
        assert s.peak_excess_w > 0.0
        assert s.energy_above_j > 0.0


# ---------------------------------------------------------------------------
# 6. spike_statistics
# ---------------------------------------------------------------------------

def _spike(duration_s, energy_j=10.0, peak_frac=0.5):
    return ps.Spike(start_s=0.0, duration_s=duration_s, peak_excess_w=100.0,
                    energy_above_j=energy_j, peak_frac=peak_frac)


def test_nearest_rank_percentile_hand_example():
    # Durations 10..50 ms; nearest-rank p50 on 5 items is the 3rd: 30 ms.
    spikes = [_spike(d) for d in (0.010, 0.020, 0.030, 0.040, 0.050)]
    stats = ps.spike_statistics(spikes)
    assert stats.duration_percentiles["p50"] == pytest.approx(0.030)
    assert stats.count == 5
    assert not stats.empty


def test_percentiles_nondecreasing():
    rng = np.random.default_rng(505)
    spikes = [_spike(float(d)) for d in rng.uniform(0.005, 0.5, size=40)]
    stats = ps.spike_statistics(spikes)
    keys = sorted(stats.duration_percentiles, key=lambda k: int(k[1:]))
    vals = [stats.duration_percentiles[k] for k in keys]
    assert vals == sorted(vals)


def test_empty_stats_flagged():
    stats = ps.spike_statistics([])
    assert stats.count == 0
    assert stats.empty
    assert sum(stats.energy_counts) == 0


@pytest.mark.parametrize("edges", [ps.DEFAULT_ENERGY_BIN_EDGES, [0, 5, 10],
                                   np.array([0.0, 2.5, 40.0]), np.arange(3)],
                         ids=["default", "ints", "float64-array", "int64-array"])
def test_empty_and_non_empty_stats_hold_the_same_types(edges):
    # Python floats and ints in both branches, whatever the caller passed.
    for spikes in ([], [_spike(0.01, energy_j=3.0)]):
        stats = ps.spike_statistics(spikes, energy_bin_edges=edges)
        assert type(stats.energy_bin_edges) is tuple
        assert [type(e) for e in stats.energy_bin_edges] == [float] * len(edges)
        assert stats.energy_bin_edges == tuple(float(e) for e in edges)
        assert type(stats.energy_counts) is tuple
        assert [type(c) for c in stats.energy_counts] == [int] * (len(edges) - 1)
        assert sum(stats.energy_counts) == len(spikes)


def test_histogram_clamps_out_of_range():
    # 200 J exceeds the default 0-150 J bins; it lands in the last bin so
    # counts still sum to the spike count.
    spikes = [_spike(0.01, energy_j=200.0), _spike(0.01, energy_j=3.0)]
    stats = ps.spike_statistics(spikes)
    assert sum(stats.energy_counts) == 2
    assert stats.energy_counts[-1] == 1
    assert stats.energy_counts[0] == 1


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        ps.spike_statistics([_spike(0.01)], energy_bin_edges=[0.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        ps.spike_statistics([_spike(0.01)], energy_bin_edges=[10.0])
    # Not a list: a number, a numpy scalar, a 0-d array, a string.
    for edges in (5.0, np.float64(5.0), np.array(5.0), "05"):
        with pytest.raises(ValueError, match="^energy_bin_edges must be a list of numbers, got "):
            ps.spike_statistics([_spike(0.01)], energy_bin_edges=edges)
    # NaN passes the increasing check, and inf would land in the JSON.
    for edges in ([0.0, np.nan, 5.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            ps.spike_statistics([_spike(0.01)], energy_bin_edges=edges)


def test_frac_leq_100ms():
    spikes = [_spike(0.05), _spike(0.100), _spike(0.3), _spike(0.08)]
    stats = ps.spike_statistics(spikes)
    # 0.100 counts as <= 100 ms.
    assert stats.frac_leq_100ms == pytest.approx(0.75)


def test_default_bins_cover_calibrated_range():
    edges = np.asarray(ps.DEFAULT_ENERGY_BIN_EDGES)
    assert edges[0] == 0.0 and edges[-1] == 150.0
    np.testing.assert_allclose(np.diff(edges), 5.0)


# ---------------------------------------------------------------------------
# 7. threshold_sweep
# ---------------------------------------------------------------------------

def test_sweep_single_threshold_consistency():
    rng = np.random.default_rng(606)
    tr = make_trace(rng.uniform(0.0, 900.0, size=1000), dt=0.005, rack_max=1000.0)
    th = ThresholdSpec(absolute_w=500.0)
    [(th_out, stats)] = ps.threshold_sweep(tr, [th])
    direct = ps.spike_statistics(ps.detect_spikes(tr, th))
    assert th_out is th
    assert stats == direct


def test_sweep_energy_ordering():
    rng = np.random.default_rng(707)
    tr = make_trace(rng.uniform(0.0, 900.0, size=2000), dt=0.005, rack_max=1000.0)
    pairs = ps.threshold_sweep(tr, [ThresholdSpec(absolute_w=300.0),
                                    ThresholdSpec(absolute_w=600.0)])
    lo = pairs[0][1].count * pairs[0][1].energy_mean_j
    hi = pairs[1][1].count * pairs[1][1].energy_mean_j
    assert lo >= hi


def test_sweep_above_max_empty():
    tr = make_trace([100.0, 200.0], dt=0.01, rack_max=1000.0)
    [(_, stats)] = ps.threshold_sweep(tr, [ThresholdSpec(absolute_w=999.0)])
    assert stats.count == 0 and stats.empty


def test_sweep_rejects_empty_list():
    tr = make_trace([100.0, 200.0], dt=0.01, rack_max=1000.0)
    with pytest.raises(ValueError):
        ps.threshold_sweep(tr, [])


# ---------------------------------------------------------------------------
# 8. Export formats
# ---------------------------------------------------------------------------

def test_spikes_csv_layout():
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    spikes = ps.detect_spikes(tr, ThresholdSpec(absolute_w=600.0))
    buf = io.StringIO()
    ps.write_spikes_csv(spikes, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "start_s,duration_s,peak_excess_w,energy_above_j,peak_frac"
    assert len(lines) == 1 + len(spikes)
    row = lines[1].split(",")
    assert float(row[0]) == spikes[0].start_s
    assert float(row[3]) == spikes[0].energy_above_j


def test_stats_json_fields():
    tr = make_trace([300.0, 900.0, 300.0], dt=0.01, rack_max=1000.0)
    stats = ps.spike_statistics(ps.detect_spikes(tr, ThresholdSpec(absolute_w=600.0)))
    buf = io.StringIO()
    ps.write_stats_json(stats, buf)
    doc = json.loads(buf.getvalue())
    for key in ("count", "duration_percentiles", "frac_leq_100ms",
                "energy_bin_edges", "energy_counts", "energy_mean_j",
                "peak_frac_quantiles", "empty"):
        assert key in doc
    assert doc["count"] == 1


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
