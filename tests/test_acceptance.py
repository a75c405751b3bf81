"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

 1. Spike detector equals an independent naive scan on >= 1000 random traces (< 1 min)
 2. Default synthetic workload sits inside the calibrated statistics bands (< 1 min)
 3. Per-step power balance and whole-run device bookkeeping tolerances
 4. Ideal device dominates every preset on >= 100 random traces
 5. Default sweep grid is monotone with every cell <= 200 (< 2 min)
 6. Preset comparison ordering: dummy energies and gain gaps
 7. Passive lag step response matches the first-order analytic curve within 2%
 8. synth + simulate reruns are byte-identical
 9. gpus_saved hand arithmetic and zero cases

Run with ``pytest -s`` to see the verdict lines.
"""

import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import powershave as ps
from powershave import DeviceSpec, SimConfig, ThresholdSpec

from conftest import (BALANCE_TOL_FRAC, BOOKKEEPING_REL, make_trace, run_cli,
                      run_sim)
from test_spikes import as_tuples, naive_scan


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. Detector oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_detector_oracle():
    rng = np.random.default_rng(11001)
    t0 = time.perf_counter()
    n_traces = 1000
    mismatches = 0
    for k in range(n_traces):
        if k % 20 == 0:
            n = int(rng.integers(2000, 10001))
        else:
            n = int(rng.integers(2, 600))
        style = k % 3
        if style == 0:
            samples = rng.uniform(0.0, 1000.0, size=n)
        elif style == 1:
            samples = np.abs(np.cumsum(rng.normal(0.0, 40.0, size=n))) + 1.0
        else:
            levels = rng.uniform(100.0, 900.0, size=max(1, n // 8))
            samples = np.repeat(levels, 8)[:n]
            if len(samples) < n:
                samples = np.pad(samples, (0, n - len(samples)), mode="edge")
        rack = float(samples.max()) * float(rng.uniform(1.0, 1.5)) + 1.0
        if style == 2 and n >= 4:
            theta = float(samples[n // 2])   # exact sample hit: strict > boundary
        else:
            theta = float(rng.uniform(0.0, rack))
        if not (0.0 < theta <= rack):
            theta = rack / 2.0
        dt = float(rng.choice([0.001, 0.005, 0.01, 0.02]))
        trace = make_trace(samples, dt=dt, rack_max=rack)
        got = as_tuples(ps.detect_spikes(trace, ThresholdSpec(absolute_w=theta)))
        want = naive_scan(samples, dt, theta, rack)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, mismatches == 0 and elapsed < 60.0,
           f"{n_traces} random traces, {mismatches} mismatches, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Calibration bands
# ---------------------------------------------------------------------------

def test_criterion_2_calibration_bands(default_trace):
    t0 = time.perf_counter()
    spikes = ps.detect_spikes(default_trace, ThresholdSpec(fraction_of_max=0.7))
    stats = ps.spike_statistics(spikes)
    energies = np.array([s.energy_above_j for s in spikes])
    peak_margin = np.array([s.peak_frac - 0.7 for s in spikes])
    frac_energy_band = float(((energies >= 5.0) & (energies <= 100.0)).mean())
    frac_peak_band = float(((peak_margin >= 0.01) & (peak_margin <= 0.05)).mean())
    elapsed = time.perf_counter() - t0
    ok = (0.85 <= stats.frac_leq_100ms <= 0.95
          and 40.0 <= stats.energy_mean_j <= 60.0
          and frac_energy_band >= 0.90
          and frac_peak_band >= 0.85
          and elapsed < 60.0)
    report(2, ok,
           f"frac<=100ms {stats.frac_leq_100ms:.3f} in [0.85,0.95]; "
           f"mean energy {stats.energy_mean_j:.1f} J in [40,60]; "
           f"energies in [5,100] J: {frac_energy_band:.1%} >= 90%; "
           f"peak margin in [0.01,0.05]: {frac_peak_band:.1%} >= 85%; "
           f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. Power balance and bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_3_power_balance(preset_results, default_trace):
    # Every simulate run in this suite goes through run_sim, which asserts the
    # per-step residual and bookkeeping closure; here the preset runs are
    # re-measured explicitly for the verdict line.
    worst_resid = 0.0
    worst_book = 0.0
    for name, result in preset_results.items():
        lhs = result.p_grid + result.p_ext_discharge
        rhs = (20000.0 + result.p_comp_served + result.p_dummy
               + result.p_ext_charge)
        worst_resid = max(worst_resid, float(np.abs(lhs - rhs).max()))
        if name in ("capacitor", "supercap", "battery"):
            spec = ps.builtin_device_spec(name)
            start = spec.soc_max_frac * spec.energy_capacity_j
            flow = float(np.sum(result.p_ext_charge * spec.round_trip_efficiency
                                - result.p_ext_discharge) * result.dt_s)
            gap = abs((result.final_stored_j - start) - flow)
            worst_book = max(worst_book, gap / max(1.0, spec.energy_capacity_j))
    resid_tol = BALANCE_TOL_FRAC * default_trace.rack_max_w
    ok = worst_resid <= resid_tol and worst_book <= BOOKKEEPING_REL
    report(3, ok,
           f"max per-step residual {worst_resid:.3e} W <= {resid_tol:.3e}; "
           f"max bookkeeping gap {worst_book:.3e} rel <= {BOOKKEEPING_REL:.0e} "
           f"(suite-wide: every run_sim call re-asserts both)")


# ---------------------------------------------------------------------------
# 4. Ideal dominance on random traces
# ---------------------------------------------------------------------------

def test_criterion_4_ideal_dominance():
    rng = np.random.default_rng(44004)
    presets = {name: ps.builtin_device_spec(name)
               for name in ("capacitor", "supercap", "battery")}
    n_traces = 100
    failures = []
    for k in range(n_traces):
        n = int(rng.integers(200, 700))
        base = rng.uniform(1000.0, 3000.0, size=n)
        for _ in range(int(rng.integers(1, 6))):
            start = int(rng.integers(0, n - 5))
            width = int(rng.integers(1, 40))
            base[start:start + width] += rng.uniform(2000.0, 7000.0)
        rack = float(base.max()) * float(rng.uniform(1.0, 1.3))
        trace = make_trace(base, dt=float(rng.choice([0.005, 0.01])), rack_max=rack)
        config = SimConfig(
            threshold=ThresholdSpec(fraction_of_max=float(rng.uniform(0.45, 0.85))),
            p_infra_w=float(rng.uniform(0.0, 2000.0)),
            grid_ramp_limit_w_per_s=float(rng.choice([2000.0, 20000.0, 1e9])),
            restart_penalty_s=float(rng.choice([0.0, 0.5, 5.0])))
        baseline = run_sim(trace, "none", config)
        ideal = run_sim(trace, "ideal", config)
        if ideal.total_unserved_energy_j != 0.0:
            failures.append((k, "ideal unserved nonzero"))
            continue
        gain_ideal = ps.computational_gain(ideal, baseline)
        for name, spec in presets.items():
            gain = ps.computational_gain(run_sim(trace, spec, config), baseline)
            if gain_ideal + 1e-9 < gain:
                failures.append((k, f"{name} gain {gain:.4f} > ideal {gain_ideal:.4f}"))
    report(4, not failures,
           f"{n_traces} random traces x 3 presets: ideal unserved always 0, "
           f"gain dominant; failures: {failures[:3] if failures else 'none'}")


# ---------------------------------------------------------------------------
# 5. Sweep grid structure
# ---------------------------------------------------------------------------

def test_criterion_5_grid_structure(default_trace):
    t0 = time.perf_counter()
    grid = ps.sweep_gpus_saved(default_trace)
    elapsed = time.perf_counter() - t0
    vals = grid.values
    monotone = bool((np.diff(vals, axis=0) <= 0).all()
                    and (np.diff(vals, axis=1) <= 0).all())
    ok = (vals.shape == (10, 11) and monotone and vals.max() <= 200
          and elapsed < 120.0)
    report(5, ok,
           f"10x11 grid, nonincreasing both axes: {monotone}, "
           f"max cell {int(vals.max())} <= 200, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. Preset ordering
# ---------------------------------------------------------------------------

def test_criterion_6_preset_ordering(preset_results):
    res = preset_results
    gains = {name: ps.computational_gain(res[name], res["none"])
             for name in ("capacitor", "supercap", "battery", "ideal")}
    dummy_cap = res["capacitor"].total_dummy_energy_j
    dummy_sup = res["supercap"].total_dummy_energy_j
    dummy_bat = res["battery"].total_dummy_energy_j
    ok = (dummy_cap > 0.0
          and dummy_sup <= 0.01 * dummy_cap
          and dummy_bat == 0.0
          and gains["battery"] > gains["supercap"]
          and abs(gains["battery"] - gains["ideal"]) <= 5.0)
    report(6, ok,
           f"dummy J cap {dummy_cap:.1f} > 0, sup {dummy_sup:.1f} "
           f"(= {dummy_sup / dummy_cap:.2%} of cap) <= 1%, bat {dummy_bat:.1f} = 0; "
           f"gain% bat {gains['battery']:.2f} > sup {gains['supercap']:.2f}; "
           f"|bat - ideal| = {abs(gains['battery'] - gains['ideal']):.2f} <= 5")


# ---------------------------------------------------------------------------
# 7. Passive lag analytic oracle
# ---------------------------------------------------------------------------

def test_criterion_7_lag_step_response():
    tau = 0.05
    request = 800.0
    spec = DeviceSpec(kind="capacitor", energy_capacity_j=1e9,
                      max_discharge_w=1e6, max_charge_w=1e6,
                      response_tau_s=tau, switch_latency_s=0.0,
                      round_trip_efficiency=1.0,
                      soc_min_frac=0.0, soc_max_frac=1.0)
    worst = 0.0
    for dt in (tau / 10.0, tau / 25.0, tau / 100.0):
        state = ps.init_state(spec)
        n_steps = int(round(5.0 * tau / dt))
        for k in range(1, n_steps + 1):
            delivered, _, state = ps.device_step(spec, state, request, 0.0, dt)
            expect = request * (1.0 - math.exp(-k * dt / tau))
            worst = max(worst, abs(delivered - expect) / request)
    report(7, worst <= 0.02,
           f"worst |delivered - R(1-e^(-t/tau))| = {worst:.2%} of R <= 2% "
           f"across dt in {{tau/10, tau/25, tau/100}}")


# ---------------------------------------------------------------------------
# 8. Reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(tmp_path):
    synth_cfg = {
        "n_accelerators": 200, "iteration_period_s": 1.0,
        "burst_duration_s": [0.24, 0.44], "burst_power_w": 700.0,
        "comm_power_w": 295.0, "idle_power_w": 80.0, "jitter_frac": 0.99,
        "inference_rate_hz": 3.0, "seed": 99, "duration_s": 45.0, "dt_s": 0.005,
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(synth_cfg), encoding="utf-8")

    def run(*args):
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode in (0, 3), proc.stderr
        return proc

    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        run("synth", "--config", str(cfg_path), "--out", str(d))
        run("simulate", "--trace", str(d / "trace.csv"), "--device", "supercap",
            "--out", str(d))
        outputs[tag] = {name: (d / name).read_bytes()
                        for name in ("trace.csv", "shaving.csv",
                                     "shaving_summary.json")}
    same = outputs["a"] == outputs["b"]
    report(8, same,
           "synth + simulate reruns byte-identical across trace.csv, "
           "shaving.csv, shaving_summary.json")


# ---------------------------------------------------------------------------
# 9. gpus_saved hand-check
# ---------------------------------------------------------------------------

def test_criterion_9_gpus_saved_hand_check():
    spike = make_trace([1000.0] * 10 + [7950.0] * 4 + [1000.0] * 10,
                       dt=0.01, rack_max=10000.0)
    worked = ps.gpus_saved(spike, 0.5, 0.02, 700.0)          # excess 2950 W
    quiet = make_trace(np.full(50, 4000.0), dt=0.01, rack_max=10000.0)
    zero_no_spikes = ps.gpus_saved(quiet, 0.5, 0.0, 700.0)
    zero_burst_filter = ps.gpus_saved(spike, 0.5, 1.0, 700.0)
    ok = worked == 5 and zero_no_spikes == 0 and zero_burst_filter == 0
    report(9, ok,
           f"peak excess 2950/700 -> {worked} (want 5); "
           f"no spikes -> {zero_no_spikes}; "
           f"burst filter empties set -> {zero_burst_filter}")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
