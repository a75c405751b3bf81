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
import io
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import powershave as ps
from conftest import PACKAGE_ROOT, run_cli
from powershave import _textio, cli
from powershave._textio import write_text

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
    cfg.write_text(json.dumps(SHORT_SYNTH), encoding="utf-8")
    loose = root / "loose_sim.json"
    loose.write_text(json.dumps(LOOSE_SIM), encoding="utf-8")
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
    text = work["trace"].read_text(encoding="utf-8")
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
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_cli(["synth", "--config", str(path), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "seed" in proc.stderr


@pytest.mark.parametrize("field, value", [("burst_power_w", "700"), ("seed", -1)])
def test_synth_bad_config_value_exit2(tmp_path, field, value):
    cfg = dict(SHORT_SYNTH, **{field: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
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
        path.write_text(json.dumps(dict(SHORT_SYNTH, burst_power_w=power)), encoding="utf-8")
        proc = run_cli(["synth", "--config", str(path), "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    manifests = [read_json(out / "synth_manifest.json") for out in outs]
    assert manifests[0]["config_digests"] == manifests[1]["config_digests"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


def test_synth_power_levels_out_of_order_names_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SHORT_SYNTH, comm_power_w=900.0)), encoding="utf-8")
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


def test_analyze_trace_not_utf8_exit2(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"# rack_max_w=10.0\ntimestamp_s,power_w\n0.0,1.0\n0.5,\xff\n")
    proc = run_cli(["analyze", "--trace", str(trace), "--out", str(tmp_path)],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "error: line 4: not UTF-8 text (byte 0xff: invalid start byte)" in proc.stderr
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
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", "none",
                    "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_bad_device_spec_value_exit2(work, tmp_path):
    spec = {"kind": "battery", "energy_capacity_j": "lots", "max_discharge_w": 35000.0,
            "max_charge_w": 35000.0}
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", str(path),
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "energy_capacity_j" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags, document, message", [
    (["--device", "none", "--config"], dict(LOOSE_SIM, gpu_unit_w=0),
     "gpu_unit_w must be positive, got 0"),
    (["--device"], {"kind": "battery", "energy_capacity_j": 5e4, "max_discharge_w": -1,
                    "max_charge_w": 12000.0}, "max_discharge_w must be positive, got -1"),
], ids=["sim-config", "device-spec"])
def test_simulate_field_sign_exit2(work, tmp_path, flags, document, message):
    # The bad file is the value of the last flag.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_cli(["simulate", "--trace", str(work["trace"]), *flags, str(path),
                    "--out", str(tmp_path / "new")], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv, kind", [
    (["synth", "--config"], "synth config"),
    (["simulate", "--device", "none", "--config"], "sim config"),
    (["compare", "--config"], "sim config"),
    (["simulate", "--device"], "device spec"),
], ids=["synth-config", "simulate-config", "compare-config", "device-spec"])
def test_file_not_utf8_names_its_kind_and_line_exit2(work, tmp_path, argv, kind):
    # Each file loader refuses a byte that is not UTF-8 in load_trace's
    # wording, after the file's kind.  The bad file is the value of the
    # last flag.
    path = tmp_path / "bad.json"
    path.write_bytes(b'{\n  "seed": 1,\n  "label": "\xff"\n}\n')
    if argv[0] != "synth":
        argv = [argv[0], "--trace", str(work["trace"]), *argv[1:]]
    proc = run_cli([*argv, str(path), "--out", str(tmp_path / "new")], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert (f"error: {kind} line 3: not UTF-8 text (byte 0xff: invalid start byte)"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("kind, field, value", [
    ("capacitor", "switch_latency_s", 0.05),    # passive kinds do not switch
    ("supercapacitor", "switch_latency_s", 0.05),
    ("battery", "response_tau_s", 0.01),        # the battery does not lag
])
def test_simulate_device_spec_wrong_kind_field_exit2(work, tmp_path, kind, field, value):
    spec = {"kind": kind, "energy_capacity_j": 5e4, "max_discharge_w": 12000.0,
            "max_charge_w": 12000.0, field: value}
    path = tmp_path / "bad_device.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
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
    held.write_text(json.dumps(dict(LOOSE_SIM, threshold=threshold)), encoding="utf-8")
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
    assert digests[0] != cli._hash_into(io.BytesIO(), ps.write_sim_config, loose)


# json reads NaN and Infinity; every loader must refuse them by field name.
NON_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("value", NON_FINITE)
def test_simulate_non_finite_config_exit2(work, tmp_path, value):
    path = tmp_path / "bad_sim.json"
    path.write_text(json.dumps({"p_infra_w": value}), encoding="utf-8")
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
    path.write_text(json.dumps(spec), encoding="utf-8")
    proc = run_cli(["simulate", "--trace", str(work["trace"]), "--device", str(path),
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "energy_capacity_j" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "shaving_summary.json").exists()


@pytest.mark.parametrize("value", NON_FINITE)
def test_synth_non_finite_config_exit2(tmp_path, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SHORT_SYNTH, burst_power_w=value)), encoding="utf-8")
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
    path.write_text(json.dumps(dict(cfg, dt_s=dt_s)), encoding="utf-8")
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
        path.write_text(json.dumps(config), encoding="utf-8")
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
    lines = (tmp_path / "grid.csv").read_text(encoding="utf-8").strip().splitlines()
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
    ("--axes-threshold", "0:1:0.1"),        # a fraction of 0
    ("--axes-threshold", "0.5:1.5:0.1"),    # fractions above 1
])
def test_sweep_bad_axis_exit2(work, tmp_path, flag, value):
    proc = run_cli(["sweep", "--trace", str(work["trace"]), flag, value,
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "grid.json").exists()


@pytest.mark.parametrize("value, refused", [("0:1:0.1", "0.0"), ("0.5:1.5:0.1", "1.5")])
def test_sweep_range_refusal_names_the_flag_and_the_value(work, tmp_path, value, refused):
    # The library's one axis check, run under the flag's name.
    proc = run_cli(["sweep", "--trace", str(work["trace"]), "--axes-threshold", value,
                    "--out", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: --axes-threshold values must be in (0, 1], got {refused}\n"
    assert not (tmp_path / "out").exists()


# Each refused axis, as the 10-decimal rounding of the axis values would
# have changed it: an increasing axis read as 0.0 after 0.0, a fraction
# read as 0.0, and a start read as 0.0123456789.
@pytest.mark.parametrize("flag, value, part, text", [
    ("--axes-burst", "0:1e-11:1e-12", 2, "1e-11"),
    ("--axes-threshold", "1e-300:1e-300:1", 1, "1e-300"),
    ("--axes-burst", "0.012345678901:0.1:0.05", 1, "0.012345678901"),
])
def test_sweep_axis_part_beyond_10_decimals_is_refused(tmp_path, capsys, flag, value,
                                                       part, text):
    # The trace does not exist: a run that reached it would exit 1.
    out = tmp_path / "out"
    code, err = main_in_process(["sweep", "--trace", str(tmp_path / "missing.csv"),
                                 flag, value, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {flag} part {part} must have at most 10 decimals, got {text!r}\n"
    assert not out.exists()


def test_sweep_axis_parts_of_10_decimals_keep_their_values():
    assert cli._parse_axis("0.0123456789:0.1:0.05", "axis") == (0.0123456789, 0.0623456789)
    assert cli._parse_axis("1e-10:3e-10:1e-10", "axis") == (1e-10, 2e-10, 3e-10)


@pytest.mark.parametrize("value, refusal", [
    ("0", "must be positive, got 0.0"), ("-1", "must be positive, got -1.0"),
    ("inf", "must be finite, got inf")], ids=["0", "-1", "inf"])
def test_sweep_bad_gpu_unit_w_exit2(work, tmp_path, value, refusal):
    proc = run_cli(["sweep", "--trace", str(work["trace"]), "--gpu-unit-w", value,
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: --gpu-unit-w {refusal}\n"
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


@pytest.mark.parametrize("argv", [
    ["sweep", "--axes-burst", "-0.04:0.04:0.02"],
    ["sweep", "--axes-threshold", "-.5:0.5:0.1"],
    ["analyze", "--bins", "-5,0,5"],
], ids=lambda argv: argv[1])
def test_flag_value_led_by_a_minus_reads_as_in_the_equals_form(work, tmp_path, argv):
    # argparse takes '-0.04:...' for a flag of its own; both forms must reach
    # the same check, or the same run.
    command, flag, value = argv
    procs = {}
    for form, args in (("space", [flag, value]), ("equals", [f"{flag}={value}"])):
        procs[form] = run_cli([command, "--trace", str(work["trace"]), *args,
                               "--out", str(tmp_path / form)], cwd=tmp_path)
    space, equals = procs["space"], procs["equals"]
    assert (space.returncode, space.stderr) == (equals.returncode, equals.stderr)
    assert "Traceback" not in space.stderr
    if command == "sweep":
        assert space.returncode == 2 and flag in space.stderr
    else:
        assert space.returncode == 0, space.stderr
        for name in ("spikes.csv", "spike_stats.json"):
            assert ((tmp_path / "space" / name).read_bytes()
                    == (tmp_path / "equals" / name).read_bytes())


# Each command and number flag of the generated refusal table, with the
# flags the command needs besides it, and the values every one refuses.
FLAG_CASES = [
    ("synth", "--seed", []),
    ("analyze", "--threshold-w", ["--trace", "{trace}"]),
    ("analyze", "--threshold-frac", ["--trace", "{trace}"]),
    ("simulate", "--threshold-w", ["--trace", "{trace}", "--device", "none"]),
    ("simulate", "--threshold-frac", ["--trace", "{trace}", "--device", "none"]),
    ("analyze", "--bins", ["--trace", "{trace}"]),
    ("sweep", "--gpu-unit-w", ["--trace", "{trace}"]),
    ("sweep", "--axes-threshold", ["--trace", "{trace}"]),
    ("sweep", "--axes-burst", ["--trace", "{trace}"]),
]
REFUSED_VALUES = ["-1e3", "-1e-1", "nan", "inf", "", "x", "1_0"]


def main_in_process(argv, capsys) -> tuple:
    """cli.main's exit code and stderr; argparse refuses through SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", REFUSED_VALUES, ids=repr)
@pytest.mark.parametrize("command, flag, needed", FLAG_CASES,
                         ids=[f"{case[0]}{case[1]}" for case in FLAG_CASES])
def test_refused_flag_value_reads_alike_in_both_forms_and_names_its_flag(
        work, tmp_path, capsys, command, flag, needed, value):
    # A value led by '-' reaches the same refusal as in the '=' form, and
    # the refusal names the flag where it states what is wrong: argparse's
    # "argument FLAG:" or the run's "error: FLAG ...", never the usage line.
    out = tmp_path / "new"
    argv = [command] + [arg.format(trace=work["trace"]) for arg in needed]
    space = main_in_process(argv + [flag, value, "--out", str(out)], capsys)
    equals = main_in_process(argv + [f"{flag}={value}", "--out", str(out)], capsys)
    assert space == equals
    code, err = space
    assert code == 2, err
    assert re.match(rf"(powershave {command}: error: argument |error: ){flag}[ :]",
                    err.splitlines()[-1]), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["analyze", "--trace", "{trace}", "--threshold-w", "1e9"],
     "--threshold-w 1000000000.0 W outside (0, rack_max=140000.0]"),
    (["simulate", "--trace", "{trace}", "--device", "none", "--threshold-frac", "0"],
     "--threshold-frac must be in (0, 1], got 0.0"),
    (["analyze", "--trace", "{trace}", "--bins", "5,1"],
     "--bins must be strictly increasing, got 1.0 after 5.0"),
    (["sweep", "--trace", "{trace}", "--axes-burst", "-0.04:0.04:0.02"],
     "--axes-burst values must be non-negative, got -0.04"),
], ids=["seed", "threshold-w", "threshold-frac", "bins", "axes-burst"])
def test_refusal_puts_the_flag_in_the_field_place(work, tmp_path, capsys, argv, message):
    # The library's message, word for word, with the flag for the field.
    out = tmp_path / "new"
    argv = [arg.format(trace=work["trace"]) for arg in argv] + ["--out", str(out)]
    assert main_in_process(argv, capsys) == (2, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--trace", "{trace}", "--bins", "nan"],
     "--bins edge 1: expected a finite number, got 'nan'"),
    (["analyze", "--trace", "{trace}", "--bins", "0,5,inf"],
     "--bins edge 3: expected a finite number, got 'inf'"),
    (["sweep", "--trace", "{trace}", "--axes-burst", "0:0.2:inf"],
     "--axes-burst part 3: expected a finite number, got 'inf'"),
    (["sweep", "--trace", "{trace}", "--axes-threshold", "nan:0.9:0.1"],
     "--axes-threshold part 1: expected a finite number, got 'nan'"),
], ids=["bins-nan", "bins-inf", "axes-burst-inf", "axes-threshold-nan"])
def test_non_finite_number_in_a_flag_list_is_refused_by_its_position(
        work, tmp_path, capsys, argv, message):
    out = tmp_path / "new"
    argv = [arg.format(trace=work["trace"]) for arg in argv] + ["--out", str(out)]
    assert main_in_process(argv, capsys) == (2, f"error: {message}\n")
    assert not out.exists()


# A command that takes each flag of parser.value_flags, the flags it needs
# besides, and a value it runs with.
FLAG_USES = {
    "--config": ("synth", [], "{cfg}"),
    "--seed": ("synth", ["--config", "{cfg}"], "3"),
    "--out": ("synth", ["--config", "{cfg}"], "{out}"),
    "--trace": ("analyze", [], "{trace}"),
    "--threshold-w": ("analyze", ["--trace", "{trace}"], "1e5"),
    "--bins": ("analyze", ["--trace", "{trace}"], "0,5,10"),
    "--device": ("simulate", ["--trace", "{trace}", "--config", "{loose}"], "none"),
    "--threshold-frac": ("simulate", ["--trace", "{trace}", "--device", "none",
                                      "--config", "{loose}"], "0.9"),
    "--axes-threshold": ("sweep", ["--trace", "{trace}"], "0.5:0.7:0.1"),
    "--axes-burst": ("sweep", ["--trace", "{trace}"], "0:0.04:0.02"),
    "--gpu-unit-w": ("sweep", ["--trace", "{trace}"], "350"),
}


def test_flag_uses_cover_every_value_flag():
    assert set(FLAG_USES) == cli.build_parser().value_flags


@pytest.mark.parametrize("flag", sorted(FLAG_USES))
def test_flag_is_written_in_full(work, tmp_path, capsys, flag):
    # A prefix of a flag is no flag, in either form, so no value reaches a
    # run under a name that main's argv rule does not join: it is refused,
    # or the flag counts as missing where it is required.  One prefix is
    # ambiguous between two flags (--threshold-); argparse's abbreviation
    # rule took each other one for its flag.
    command, needed, value = FLAG_USES[flag]
    out = tmp_path / "new"
    fill = {"cfg": work["cfg"], "loose": work["loose"], "trace": work["trace"], "out": out}
    argv = [command] + [arg.format(**fill) for arg in needed]
    value = value.format(**fill)
    tail = [] if flag == "--out" else ["--out", str(out)]
    prefix = flag[:-1]
    for args in ([prefix, value], [f"{prefix}={value}"]):
        code, err = main_in_process(argv + args + tail, capsys)
        assert code == 2, err
        assert re.search(rf"error: (unrecognized arguments: {re.escape(args[0])}"
                         rf"|the following arguments are required: {flag}$)", err), err
        assert not out.exists()
    for args in ([flag, value], [f"{flag}={value}"]):
        code, err = main_in_process(argv + args + tail, capsys)
        assert code == 0, err
        assert out.exists()


def test_config_file_field_keeps_its_name(work, tmp_path, capsys):
    # Only a flag's value is refused under the flag: a --config file's
    # threshold is refused in the library's own words.
    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(LOOSE_SIM, threshold={"absolute_w": 1e9})),
                    encoding="utf-8")
    argv = ["simulate", "--trace", str(work["trace"]), "--device", "none",
            "--config", str(path), "--out", str(tmp_path / "new")]
    assert main_in_process(argv, capsys) == (
        2, "error: threshold 1000000000.0 W outside (0, rack_max=140000.0]\n")


@pytest.mark.parametrize("command, stage", [
    ("analyze", "detect_spikes"), ("sweep", "sweep_gpus_saved")])
def test_manifest_digests_the_trace_bytes_analysed(work, tmp_path, monkeypatch,
                                                   command, stage):
    # The trace is rewritten after it is loaded; the manifest must digest
    # the bytes the run read, not the file as it is when the run ends.
    trace = tmp_path / "trace.csv"
    shutil.copyfile(work["trace"], trace)
    read = sha256_file(trace)
    call_through = getattr(cli, stage)

    def rewrite_then_call(*args, **kwargs):
        trace.write_bytes(b"rewritten\n")
        return call_through(*args, **kwargs)

    monkeypatch.setattr(cli, stage, rewrite_then_call)
    assert cli.main([command, "--trace", str(trace), "--out", str(tmp_path / "out")]) == 0
    manifest = read_json(tmp_path / "out" / f"{command}_manifest.json")
    assert manifest["inputs"] == {str(trace): read}


def parser_actions(parser) -> list:
    """(prog, action) for every action of parser and of its subparsers."""
    parsers = [parser]
    actions = []
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            else:
                actions.append((parser.prog, action))
    assert len(parsers) == 6
    return actions


def test_no_flag_converts_with_bare_float_or_int():
    # The bare converters read '1_0' as 10; every numeric flag takes the
    # number rule's plain_float or plain_int instead.
    bare = [(prog, action.option_strings) for prog, action in parser_actions(cli.build_parser())
            if action.type in (float, int)]
    assert not bare


def test_every_flag_that_takes_a_value_is_recorded():
    # main's argv rule joins exactly these flags to a value led by '-'.
    parser = cli.build_parser()
    taking = {flag for _, action in parser_actions(parser) if action.nargs != 0
              for flag in action.option_strings}
    assert parser.value_flags == taking
    assert {"--help", "--version", "-h"}.isdisjoint(taking)


def test_compare_preset_dummy_pattern(default_trace_dir, tmp_path):
    proc = run_cli(["compare", "--trace", str(default_trace_dir / "trace.csv"),
                    "--device", "capacitor", "--device", "supercap",
                    "--device", "battery", "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "comparison.csv").read_text(encoding="utf-8").strip().splitlines()
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
    lines = (tmp_path / "comparison.csv").read_text(encoding="utf-8").strip().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["none", "capacitor", "supercap", "battery", "ideal"]


@pytest.mark.parametrize("stem", ["cap,x", "cap\nline"], ids=["comma", "line-feed"])
def test_compare_refuses_a_strategy_name_the_csv_cannot_hold_exit2(work, tmp_path, stem):
    # A spec file's stem names its row; comparison.csv could not keep this
    # one as one field of one line.
    spec = tmp_path / f"{stem}.json"
    shutil.copyfile(PACKAGE_DIR / "data" / "capacitor.json", spec)
    out = tmp_path / "out"
    proc = run_cli(["compare", "--trace", str(work["trace"]), "--device", "none",
                    "--device", str(spec), "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: strategy name {stem!r} must not hold ',', "
                           f"'\"' or a line break\n")
    assert not out.exists()


def test_compare_names_a_spec_file_with_a_builtin_stem_as_typed(work, tmp_path, monkeypatch,
                                                                capsys):
    # A spec file named none.json or ideal.json is no built-in strategy:
    # its row is named by the token as typed and holds its device's figures.
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(PACKAGE_DIR / "data" / "supercap.json", "none.json")
    shutil.copyfile(PACKAGE_DIR / "data" / "capacitor.json", "ideal.json")
    tables = []
    for out, devices in (("a", ["none.json", "ideal.json", "capacitor"]),
                         ("b", ["none", "none.json", "supercap"])):
        argv = ["compare", "--trace", str(work["trace"]), "--config", str(work["loose"]),
                "--out", out]
        for device in devices:
            argv += ["--device", device]
        assert cli.main(argv) == 0, capsys.readouterr().err
        lines = (tmp_path / out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",", 1) for line in lines[1:]]
        assert [name for name, _ in rows] == devices
        tables.append([figures for _, figures in rows])
    assert tables[0][1] == tables[0][2]
    assert tables[1][1] == tables[1][2]


def test_help_names_the_defaults_the_code_runs(capsys):
    texts = {}
    for command in ("synth", "analyze", "simulate", "sweep", "compare"):
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--help"])
        assert stop.value.code == 0
        texts[command] = " ".join(capsys.readouterr().out.split())
        assert texts[command].startswith(f"usage: powershave {command} [-h]")
    # Every flag that takes a value is shown under some command.
    shown = set(re.findall(r"--[a-z-]+", " ".join(texts.values())))
    assert cli.build_parser().value_flags <= shown
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


# Each file reader of the CLI: the argv of a run, and the files it reads,
# every one of which its manifest's inputs must digest.
@pytest.mark.parametrize("argv, read", [
    (["synth", "--config", "{cfg}"], ["{cfg}"]),
    (["analyze", "--trace", "{trace}"], ["{trace}"]),
    (["sweep", "--trace", "{trace}", "--axes-threshold", "0.6:0.7:0.1"], ["{trace}"]),
    (["simulate", "--trace", "{trace}", "--config", "{loose}", "--device", "{spec}"],
     ["{trace}", "{loose}", "{spec}"]),
    (["compare", "--trace", "{trace}", "--config", "{loose}", "--device", "none",
      "--device", "{spec}"], ["{trace}", "{loose}", "{spec}"]),
], ids=["synth", "analyze", "sweep", "simulate", "compare"])
def test_every_input_file_is_in_the_manifest(work, tmp_path, capsys, argv, read):
    spec = tmp_path / "cap.json"
    shutil.copyfile(PACKAGE_DIR / "data" / "capacitor.json", spec)
    paths = {"cfg": work["cfg"], "trace": work["trace"], "loose": work["loose"],
             "spec": spec}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    code, err = main_in_process(argv, capsys)
    assert code == 0, err
    manifest = read_json(tmp_path / "out" / f"{argv[0]}_manifest.json")
    assert manifest["inputs"] == {path.format(**paths): sha256_file(path.format(**paths))
                                  for path in read}


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
        write_text(dest, ["first chunk\n"])
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._emit(argparse.Namespace(out=str(tmp_path)), "simulate", {}, {}, None,
                  {"shaving.csv": (writer, None)})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shaving.csv"]
    assert path.read_bytes() == b"earlier\n"


# A chunk that is not ASCII, and an empty one.
SINK_CHUNKS = ["name,energy_j\n", "caf\u00e9 \u2264 \u03b8,1.5\n", "", "\U0001f50b,2\n"]


def test_hashing_sink_writes_and_hashes_the_bytes_write_text_encodes(tmp_path):
    encoded = io.BytesIO()
    write_text(encoded, SINK_CHUNKS)
    expected = encoded.getvalue()
    assert not expected.isascii()
    with open(tmp_path / "out.csv", "wb") as fh:
        sink = cli._HashingSink(fh)
        write_text(sink, SINK_CHUNKS)
        assert sink.tell() == len(expected)
    assert (tmp_path / "out.csv").read_bytes() == expected
    assert sink.sha.hexdigest() == hashlib.sha256(expected).hexdigest()


def test_hashing_sink_refuses_text_before_writing_a_byte():
    fh = io.BytesIO()
    sink = cli._HashingSink(fh)
    with pytest.raises(TypeError):
        sink.write("x")
    assert fh.getvalue() == b""
    assert sink.tell() == 0
    assert sink.sha.hexdigest() == hashlib.sha256().hexdigest()


def test_input_digests_every_read_block(tmp_path, monkeypatch, capsys):
    # _input hashes each file _textio.READ_SIZE bytes at a time, read when
    # it runs: at 16 bytes, each file spans many blocks.
    trace = tmp_path / "trace.csv"
    synth = ps.SynthConfig(**dict(SHORT_SYNTH, duration_s=10.0, dt_s=0.05))
    ps.write_trace(ps.synthesize_trace(synth), str(trace))
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(LOOSE_SIM), encoding="utf-8")
    monkeypatch.setattr(_textio, "READ_SIZE", 16)
    code, err = main_in_process(["simulate", "--trace", str(trace), "--device", "none",
                                 "--config", str(config), "--out", str(tmp_path / "out")],
                                capsys)
    assert code == 0, err
    inputs = read_json(tmp_path / "out" / "simulate_manifest.json")["inputs"]
    assert inputs == {str(path): sha256_file(path) for path in (trace, config)}
    assert min(trace.stat().st_size, config.stat().st_size) > 10 * 16


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
