"""End-to-end command-line checks, run through ``python -m powershave``.

Covers:
 1. synth: output files, manifest, missing-seed error, determinism, --seed
 2. analyze: calibrated-band stats, empty result above max power, flag exclusivity
 3. simulate: ideal/none summaries, custom device file, ramp exit code 3
 4. sweep and compare: default grid shape, preset dummy pattern
 5. Cross-cutting: exit codes, manifest digests, POWERSHAVE_OUT, input immutability,
    refused inputs and failed writes that leave --out as it was
"""

import argparse
import hashlib
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import powershave as ps
from conftest import PACKAGE_ROOT, run_cli
from powershave import cli

PACKAGE_DIR = Path(PACKAGE_ROOT) / "powershave"


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


SHORT_SYNTH = {
    "n_accelerators": 200, "iteration_period_s": 1.0,
    "burst_duration_s": [0.24, 0.44], "burst_power_w": 700.0,
    "comm_power_w": 295.0, "idle_power_w": 80.0, "jitter_frac": 0.99,
    "inference_rate_hz": 3.0, "seed": 4242, "duration_s": 60.0, "dt_s": 0.005,
}

LOOSE_SIM = {
    "derate_slope_per_c": 0.01, "gpu_unit_w": 700.0,
    "grid_ramp_limit_w_per_s": 1e12, "heat_factor": 1.3, "p_infra_w": 20000.0,
    "restart_penalty_s": 60.0, "t_ambient_c": 25.0, "t_derate_c": 70.0,
    "t_max_c": 75.0, "thermal_ref_power_w": 140000.0, "thermal_tau_s": 120.0,
    "threshold": {"fraction_of_max": 0.7},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared inputs: a short trace for simulations, config files."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "short_synth.json"
    cfg.write_text(json.dumps(SHORT_SYNTH))
    loose = root / "loose_sim.json"
    loose.write_text(json.dumps(LOOSE_SIM))
    gen = root / "gen"
    proc = run_cli(["synth", "--config", str(cfg), "--out", str(gen)], cwd=root)
    assert proc.returncode == 0, proc.stderr
    return {"root": root, "cfg": cfg, "loose": loose,
            "trace": gen / "trace.csv"}


@pytest.fixture(scope="module")
def default_trace_dir(tmp_path_factory):
    """The shipped workload rendered once for calibrated-band checks."""
    out = tmp_path_factory.mktemp("default_trace")
    proc = run_cli(["synth", "--out", str(out)], cwd=out)
    assert proc.returncode == 0, proc.stderr
    return out


# ---------------------------------------------------------------------------
# 1. synth
# ---------------------------------------------------------------------------

def test_synth_writes_trace_and_manifest(work):
    text = work["trace"].read_text()
    assert text.startswith("# rack_max_w=")
    assert "# dt_s=" in text
    assert "timestamp_s,power_w" in text
    manifest = read_json(work["root"] / "gen" / "synth_manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 4242
    assert manifest["outputs"]["trace.csv"] == sha256_file(work["trace"])


def test_synth_missing_seed_exit2(work, tmp_path):
    cfg = dict(SHORT_SYNTH)
    del cfg["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["synth", "--config", str(path), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "seed" in proc.stderr


@pytest.mark.parametrize("field, value", [("burst_power_w", "700"), ("seed", -1)])
def test_synth_bad_config_value_exit2(tmp_path, field, value):
    cfg = dict(SHORT_SYNTH, **{field: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["synth", "--config", str(path), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_synth_default_is_the_packaged_file(tmp_path):
    # 'default' and the packaged file it names are one workload: the same
    # trace bytes and the same recorded config digest.
    data = PACKAGE_DIR / "data" / "default_synth.json"
    outs = (tmp_path / "default", tmp_path / "file")
    for out, config in zip(outs, ("default", str(data))):
        proc = run_cli(["synth", "--config", config, "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    manifests = [read_json(out / "synth_manifest.json") for out in outs]
    assert manifests[0]["config_digests"] == manifests[1]["config_digests"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


def test_synth_int_and_float_values_are_one_workload(tmp_path):
    # A JSON 700 and 700.0 in a float field describe the same workload: the
    # same trace bytes and the same recorded config digest.
    outs = (tmp_path / "int", tmp_path / "float")
    for out, power in zip(outs, (700, 700.0)):
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps(dict(SHORT_SYNTH, burst_power_w=power)))
        proc = run_cli(["synth", "--config", str(path), "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    manifests = [read_json(out / "synth_manifest.json") for out in outs]
    assert manifests[0]["config_digests"] == manifests[1]["config_digests"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


def test_synth_power_levels_out_of_order_names_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SHORT_SYNTH, comm_power_w=900.0)))
    proc = run_cli(["synth", "--config", str(path), "--out", str(tmp_path / "new")],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    for field in ("idle_power_w", "comm_power_w", "burst_power_w"):
        assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "new").exists()


def test_synth_reruns_byte_identical(work, tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        proc = run_cli(["synth", "--config", str(work["cfg"]), "--out", str(d)],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (dirs[0] / "trace.csv").read_bytes() == (dirs[1] / "trace.csv").read_bytes()
    manifests = [read_json(d / "synth_manifest.json") for d in dirs]
    for m in manifests:
        m.pop("created_utc")
    assert manifests[0] == manifests[1]


def test_synth_seed_override(work, tmp_path):
    out = {}
    for seed in ("7", "7", "8"):
        d = tmp_path / f"s{seed}_{len(out)}"
        proc = run_cli(["synth", "--config", str(work["cfg"]), "--seed", seed,
                        "--out", str(d)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        out[len(out)] = (d / "trace.csv").read_bytes()
    assert out[0] == out[1]
    assert out[0] != out[2]
    manifest = read_json(tmp_path / "s7_0" / "synth_manifest.json")
    assert manifest["seed"] == 7


# ---------------------------------------------------------------------------
# 2. analyze
# ---------------------------------------------------------------------------

def test_analyze_calibrated_band(default_trace_dir, tmp_path):
    proc = run_cli(["analyze", "--trace", str(default_trace_dir / "trace.csv"),
                    "--threshold-frac", "0.7", "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    stats = read_json(tmp_path / "spike_stats.json")
    assert 0.85 <= stats["frac_leq_100ms"] <= 0.95
    assert stats["count"] > 0
    assert (tmp_path / "spikes.csv").exists()
    print(f"calibrated frac_leq_100ms = {stats['frac_leq_100ms']:.3f}")


def test_analyze_above_max_power_empty(work, tmp_path):
    proc = run_cli(["analyze", "--trace", str(work["trace"]),
                    "--threshold-frac", "0.999", "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    stats = read_json(tmp_path / "spike_stats.json")
    assert stats["count"] == 0


def test_analyze_threshold_flags_exclusive(work, tmp_path):
    proc = run_cli(["analyze", "--trace", str(work["trace"]),
                    "--threshold-w", "90000", "--threshold-frac", "0.7",
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize("bins", ["0,nan,5", "0,inf", "0,5,abc", "0,1_0,2_0"])
def test_analyze_bad_bins_exit2(work, tmp_path, bins):
    proc = run_cli(["analyze", "--trace", str(work["trace"]), "--bins", bins,
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--bins" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "spike_stats.json").exists()


# ---------------------------------------------------------------------------
# 3. simulate
# ---------------------------------------------------------------------------

def test_simulate_ideal_no_unserved(work, tmp_path):
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "ideal",
                    "--config", str(work["loose"]), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = read_json(tmp_path / "shaving_summary.json")
    assert summary["total_unserved_energy_j"] == 0.0


def test_simulate_none_curtails(work, tmp_path):
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                    "--config", str(work["loose"]), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = read_json(tmp_path / "shaving_summary.json")
    assert summary["curtailed_gpu_seconds"] > 0.0


def test_simulate_device_file(work, tmp_path):
    spec_path = tmp_path / "battery.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        ps.write_device_spec(ps.builtin_device_spec("battery"), fh)
    proc = run_cli(["simulate", "--trace", str(work["trace"]),
                    "--device", str(spec_path), "--config", str(work["loose"]),
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = read_json(tmp_path / "shaving_summary.json")
    assert "device_energy_throughput_j" in summary
    assert "final_stored_j" in summary
    manifest = read_json(tmp_path / "simulate_manifest.json")
    assert str(spec_path) in manifest["inputs"]


def test_simulate_default_ramp_reports_violation(work, tmp_path):
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 3
    assert "ramp" in proc.stderr
    # Outputs are still written: the run completed, only the constraint failed.
    assert (tmp_path / "shaving_summary.json").exists()


def test_simulate_unknown_device_exit2(work, tmp_path):
    proc = run_cli(["simulate", "--trace", str(work["trace"]),
                    "--device", "flywheel", "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2
    for name in ("none", "ideal", "capacitor", "supercap", "battery"):
        assert name in proc.stderr


@pytest.mark.parametrize("config, field", [
    ({"p_infra_w": "abc"}, "p_infra_w"),
    ({"threshold": {"frac": 0.7}}, "frac"),
    ({"threshold": {"absolute_w": "9e4"}}, "absolute_w"),
])
def test_simulate_bad_config_value_exit2(work, tmp_path, config, field):
    path = tmp_path / "bad_sim.json"
    path.write_text(json.dumps(config))
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                    "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_bad_device_spec_value_exit2(work, tmp_path):
    spec = {"kind": "battery", "energy_capacity_j": "lots", "max_discharge_w": 35000.0,
            "max_charge_w": 35000.0}
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", str(path),
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "energy_capacity_j" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind, field, value", [
    ("capacitor", "switch_latency_s", 0.05),    # passive kinds do not switch
    ("supercapacitor", "switch_latency_s", 0.05),
    ("battery", "response_tau_s", 0.01),        # the battery does not lag
])
def test_simulate_device_spec_wrong_kind_field_exit2(work, tmp_path, kind, field, value):
    spec = {"kind": kind, "energy_capacity_j": 5e4, "max_discharge_w": 12000.0,
            "max_charge_w": 12000.0, field: value}
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", str(path),
                    "--out", str(tmp_path / "new")], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("flag, value, threshold, threshold_w", [
    ("--threshold-frac", "0.65", {"fraction_of_max": 0.65}, 0.65 * 140000.0),
    ("--threshold-w", "91000", {"absolute_w": 91000.0}, 91000.0),
])
def test_simulate_threshold_flag_replaces_config_threshold(work, tmp_path, flag, value,
                                                           threshold, threshold_w):
    # A run with the flag equals a run whose config file holds that
    # threshold: same summary, same recorded sim_config digest.
    held = tmp_path / "held.json"
    held.write_text(json.dumps(dict(LOOSE_SIM, threshold=threshold)))
    outs = (tmp_path / "flag", tmp_path / "file")
    for out, argv in zip(outs, (["--config", str(work["loose"]), flag, value],
                                ["--config", str(held)])):
        proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                        *argv, "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    summaries = [read_json(out / "shaving_summary.json") for out in outs]
    assert summaries[0]["threshold_w"] == threshold_w
    assert summaries[0] == summaries[1]
    digests = [read_json(out / "simulate_manifest.json")["config_digests"]["sim_config"]
               for out in outs]
    assert digests[0] == digests[1]
    loose = ps.load_sim_config(str(work["loose"]))
    assert digests[0] != cli._digest(ps.write_sim_config, loose)


# json reads NaN and Infinity; every loader must refuse them by field name.
NON_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("value", NON_FINITE)
def test_simulate_non_finite_config_exit2(work, tmp_path, value):
    path = tmp_path / "bad_sim.json"
    path.write_text(json.dumps({"p_infra_w": value}))
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                    "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "p_infra_w" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "shaving_summary.json").exists()


@pytest.mark.parametrize("value", NON_FINITE)
def test_simulate_non_finite_device_spec_exit2(work, tmp_path, value):
    spec = {"kind": "capacitor", "energy_capacity_j": value, "max_discharge_w": 12000.0,
            "max_charge_w": 12000.0}
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", str(path),
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "energy_capacity_j" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "shaving_summary.json").exists()


@pytest.mark.parametrize("value", NON_FINITE)
def test_synth_non_finite_config_exit2(tmp_path, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SHORT_SYNTH, burst_power_w=value)))
    proc = run_cli(["synth", "--config", str(path), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "burst_power_w" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("dt_s", [1000.0, 2000.0])
def test_synth_dt_leaving_one_sample_exit2(tmp_path, dt_s):
    # The shipped 600 s at 1000 s is one sample, which no other command
    # reads, and at 2000 s none.
    cfg = read_json(PACKAGE_DIR / "data" / "default_synth.json")
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(dict(cfg, dt_s=dt_s)))
    proc = run_cli(["synth", "--config", str(path), "--out", str(tmp_path / "new")],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "dt_s" in proc.stderr and "duration_s" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "new").exists()


def test_simulate_missing_trace_exit1(tmp_path):
    proc = run_cli(["simulate", "--trace", str(tmp_path / "absent.csv"),
                    "--device", "none", "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "absent.csv" in proc.stderr, proc.stderr


def test_simulate_reruns_byte_identical(work, tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        proc = run_cli(["simulate", "--trace", str(work["trace"]),
                        "--device", "supercap", "--config", str(work["loose"]),
                        "--out", str(d)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for name in ("shaving.csv", "shaving_summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    manifests = [read_json(d / "simulate_manifest.json") for d in dirs]
    for m in manifests:
        m.pop("created_utc")
    assert manifests[0] == manifests[1]


@pytest.fixture(scope="module")
def earlier_out(work):
    """An --out directory holding an earlier simulate run's files."""
    out = work["root"] / "earlier"
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                    "--config", str(work["loose"]), "--out", str(out)],
                   cwd=work["root"])
    assert proc.returncode == 0, proc.stderr
    return out


# Inputs the arithmetic cannot carry: each is refused by name before any
# work, and --out keeps the earlier run's files as they were.
@pytest.mark.parametrize("command, config, flags, field", [
    ("simulate", {"gpu_unit_w": 1e-310}, [], "gpu_unit_w"),
    ("compare", {"gpu_unit_w": 1e-310}, [], "gpu_unit_w"),
    ("simulate", {"thermal_tau_s": 0.001}, [], "thermal_tau_s"),
    ("simulate", {"heat_factor": 1e308}, [], "heat_factor"),
    ("sweep", None, ["--gpu-unit-w", "1e-320"], "--gpu-unit-w"),
    ("simulate", {"p_infra_w": 1e308}, [], "p_infra_w"),
    ("compare", {"p_infra_w": 1e308}, [], "p_infra_w"),
])
def test_unsupported_arithmetic_refused_exit2(work, earlier_out, tmp_path,
                                              command, config, flags, field):
    out = tmp_path / "out"
    shutil.copytree(earlier_out, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    argv = [command, "--trace", str(work["trace"]), *flags, "--out", str(out)]
    if command == "simulate":
        argv += ["--device", "supercap"]
    if config is not None:
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    proc = run_cli(argv, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(out.glob("*.tmp"))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# 4. sweep / compare
# ---------------------------------------------------------------------------

def test_sweep_default_grid_shape(default_trace_dir, tmp_path):
    proc = run_cli(["sweep", "--trace", str(default_trace_dir / "trace.csv"),
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert len(lines) == 11          # header + 10 threshold rows
    assert all(len(line.split(",")) == 12 for line in lines)
    grid = read_json(tmp_path / "grid.json")
    assert len(grid["threshold_fracs"]) == 10
    assert len(grid["burst_lengths_s"]) == 11


def test_sweep_custom_axes(work, tmp_path):
    proc = run_cli(["sweep", "--trace", str(work["trace"]),
                    "--axes-threshold", "0.6:0.8:0.1", "--axes-burst", "0:0.04:0.02",
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    grid = read_json(tmp_path / "grid.json")
    assert grid["threshold_fracs"] == [0.6, 0.7, 0.8]
    assert grid["burst_lengths_s"] == [0.0, 0.02, 0.04]


@pytest.mark.parametrize("flag, value", [
    ("--axes-burst", "0:0.2:inf"),          # one nan burst, written as NaN
    ("--axes-threshold", "0.5:inf:0.1"),    # int() of inf
    ("--axes-threshold", "0.5:0.9:nan"),
    ("--axes-burst", "0:1:1e-9"),           # 10^9 values
    ("--axes-burst", "0:0.1:0.0_5"),        # float() reads 0.05
    ("--axes-threshold", "0.5:0.9"),        # two parts
    ("--axes-threshold", "0.5:0.9:0"),      # zero step
    ("--axes-threshold", "0.9:0.5:0.1"),    # stop before start
])
def test_sweep_bad_axis_exit2(work, tmp_path, flag, value):
    proc = run_cli(["sweep", "--trace", str(work["trace"]), flag, value,
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "grid.json").exists()


@pytest.mark.parametrize("value", ["0", "-1", "inf"])
def test_sweep_bad_gpu_unit_w_exit2(work, tmp_path, value):
    proc = run_cli(["sweep", "--trace", str(work["trace"]), "--gpu-unit-w", value,
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--gpu-unit-w must be positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "grid.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--seed", "1_0"], "--seed"),
    (["sweep", "--trace", "{trace}", "--gpu-unit-w", "7_00"], "--gpu-unit-w"),
    (["analyze", "--trace", "{trace}", "--threshold-frac", "0.7_0"], "--threshold-frac"),
    (["simulate", "--trace", "{trace}", "--device", "none", "--threshold-w",
      "\u0669\u0660\u0660\u0660\u0660"], "--threshold-w"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_numeric_flag_outside_number_rule_exit2(work, tmp_path, argv, flag):
    # float() and int() read each of these values; the number rule does not.
    out = tmp_path / "new"
    proc = run_cli([arg.format(trace=work["trace"]) for arg in argv] + ["--out", str(out)],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_no_flag_converts_with_bare_float_or_int():
    # The bare converters read '1_0' as 10; every numeric flag takes the
    # number rule's plain_float or plain_int instead.
    parsers = [cli.build_parser()]
    bare = []
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.type in (float, int):
                bare.append((parser.prog, action.option_strings))
    assert len(parsers) == 6
    assert not bare


def test_compare_preset_dummy_pattern(default_trace_dir, tmp_path):
    proc = run_cli(["compare", "--trace", str(default_trace_dir / "trace.csv"),
                    "--device", "capacitor", "--device", "supercap",
                    "--device", "battery", "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in lines[1:]}
    dummy = {name: float(row["dummy_energy_j"]) for name, row in rows.items()}
    assert dummy["capacitor"] > 0.0
    assert dummy["supercap"] <= 0.01 * dummy["capacitor"]
    assert dummy["battery"] == 0.0
    print(f"dummy J: capacitor {dummy['capacitor']:.1f}, "
          f"supercap {dummy['supercap']:.1f}, battery {dummy['battery']:.1f}")


def test_compare_default_list(work, tmp_path):
    proc = run_cli(["compare", "--trace", str(work["trace"]),
                    "--config", str(work["loose"]), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["none", "capacitor", "supercap", "battery", "ideal"]


def test_help_names_the_defaults_the_code_runs(capsys):
    texts = {}
    for command in ("sweep", "compare"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        texts[command] = " ".join(capsys.readouterr().out.split())
    # Each axis default the help names reads back as the default axis.
    named = re.findall(r"\(default (\S+)\)", texts["sweep"])
    assert [cli._parse_axis(text, "axis") for text in named] == [
        ps.DEFAULT_THRESHOLD_FRACS, ps.DEFAULT_BURST_LENGTHS_S]
    assert ("defaults to " + ", ".join(cli._COMPARE_DEFAULT)) in texts["compare"]


# ---------------------------------------------------------------------------
# 5. Cross-cutting
# ---------------------------------------------------------------------------

def test_manifest_digests_recompute(work, tmp_path):
    proc = run_cli(["analyze", "--trace", str(work["trace"]),
                    "--threshold-frac", "0.7", "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = read_json(tmp_path / "analyze_manifest.json")
    for path, digest in manifest["inputs"].items():
        assert sha256_file(path) == digest
    for name, digest in manifest["outputs"].items():
        assert sha256_file(tmp_path / name) == digest


@pytest.mark.parametrize("argv", [
    ["simulate", "--device", "supercap"],
    ["compare"],
])
def test_streamed_output_digests_recompute(work, tmp_path, argv):
    # The 12000-row shaving.csv is written and hashed in two blocks.
    proc = run_cli([*argv, "--trace", str(work["trace"]),
                    "--config", str(work["loose"]), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = read_json(tmp_path / f"{argv[0]}_manifest.json")
    for name, digest in manifest["outputs"].items():
        assert sha256_file(tmp_path / name) == digest
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*manifest["outputs"], f"{argv[0]}_manifest.json"])


def test_failed_write_leaves_path_as_it_was(tmp_path):
    path = tmp_path / "shaving.csv"
    path.write_bytes(b"earlier\n")

    def writer(obj, dest):
        dest.write("first chunk\n")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._emit(argparse.Namespace(out=str(tmp_path)), "simulate", {}, {}, None,
                  {"shaving.csv": (writer, None)})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shaving.csv"]
    assert path.read_bytes() == b"earlier\n"


# shaving.csv renders fine; the summary after it fails, or the manifest
# after both.
@pytest.mark.parametrize("writer", ["write_result_summary_json", "write_json"])
def test_simulate_replaces_no_file_until_every_output_is_built(
        work, earlier_out, tmp_path, monkeypatch, capsys, writer):
    out = tmp_path / "out"
    shutil.copytree(earlier_out, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_writer(obj, dest):
        raise ValueError(f"{writer} failed")

    monkeypatch.setattr(cli, writer, failing_writer)
    code = cli.main(["simulate", "--trace", str(work["trace"]), "--device", "supercap",
                     "--config", str(work["loose"]), "--out", str(out)])
    assert code == 2
    assert f"{writer} failed" in capsys.readouterr().err
    assert not list(out.glob("*.tmp"))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "-1"],
    ["analyze", "--trace", "{trace}", "--bins", "5"],
    ["simulate", "--trace", "{trace}", "--device", "nosuch"],
    ["sweep", "--trace", "{trace}", "--axes-burst", "0:1:1e-9"],
    ["compare", "--trace", "{trace}", "--device", "nosuch"],
], ids=lambda argv: argv[0])
def test_refused_run_creates_no_directory(work, tmp_path, capsys, argv):
    out = tmp_path / "new"
    code = cli.main([arg.format(trace=work["trace"]) for arg in argv]
                    + ["--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_env_out_dir(work, tmp_path):
    dest = tmp_path / "via_env"
    proc = run_cli(["analyze", "--trace", str(work["trace"]),
                    "--threshold-frac", "0.7"],
                   cwd=tmp_path, env_extra={"POWERSHAVE_OUT": str(dest)})
    assert proc.returncode == 0, proc.stderr
    assert (dest / "spikes.csv").exists()
    assert (dest / "spike_stats.json").exists()


def test_inputs_not_mutated(work, tmp_path):
    before = {p: p.read_bytes() for p in (work["trace"], work["loose"])}
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "battery",
                    "--config", str(work["loose"]), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for path, data in before.items():
        assert path.read_bytes() == data


def test_version_flag(tmp_path):
    proc = run_cli(["--version"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
