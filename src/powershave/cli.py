"""Command-line surface: reproducible synth / analyze / simulate / sweep /
compare runs.

Every command writes its primary outputs plus a run manifest into the
output directory (--out, or the POWERSHAVE_OUT environment variable,
defaulting to the working directory).  Outputs are byte-identical for
identical inputs; the manifest's created_utc field is the only thing
that changes between reruns.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error,
3 run completed but the grid ramp constraint was violated.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .trace import (DEFAULT_SYNTH_CONFIG, load_synth_config, load_trace,
                    synthesize_trace, write_synth_config, write_trace)
from .spikes import (DEFAULT_ENERGY_BIN_EDGES, ThresholdSpec, detect_spikes,
                     spike_statistics, write_spikes_csv, write_stats_json)
from .devices import BUILTIN_DEVICE_NAMES, builtin_device_spec, load_device_spec
from .shaving import (SimConfig, load_sim_config, simulate_shaving,
                      write_result_csv, write_result_summary_json,
                      write_sim_config)
from .sweep import (DEFAULT_BURST_LENGTHS_S, DEFAULT_THRESHOLD_FRACS,
                    compare_strategies, export_grid, sweep_gpus_saved,
                    write_comparison_csv)

_DEVICE_CHOICES = ("none", "ideal") + BUILTIN_DEVICE_NAMES


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _sha256_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_via(writer, *args) -> str:
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


class _HashingSink:
    """Text stream that writes UTF-8 to a binary file and hashes the bytes."""

    def __init__(self, fh):
        self.fh = fh
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.fh.write(data)
        return len(text)

    def writelines(self, lines) -> None:
        for text in lines:
            self.write(text)

    def tell(self) -> int:
        # Bytes written so far; bench/tracer.py reads it after
        # write_result_csv to count shaving.csv_bytes.
        return self.fh.tell()


def _write_output(path: str, writer, *args) -> str:
    """Atomically write writer's text to path, chunk by chunk as the writer
    yields it, so the whole file is never held in memory; returns its
    sha256 digest."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        sink = _HashingSink(fh)
        writer(*args, sink)
    os.replace(tmp, path)
    return "sha256:" + sink.sha.hexdigest()


def _out_dir(args) -> str:
    out = args.out or os.environ.get("POWERSHAVE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out: str, command: str, inputs: dict, config_digests: dict,
                    seed, outputs: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "inputs": inputs,
        "config_digests": config_digests,
        "outputs": outputs,
    }
    path = os.path.join(out, f"{command}_manifest.json")
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _threshold_from_args(args) -> ThresholdSpec:
    if args.threshold_w is not None:
        return ThresholdSpec(absolute_w=args.threshold_w)
    if args.threshold_frac is not None:
        return ThresholdSpec(fraction_of_max=args.threshold_frac)
    return ThresholdSpec(fraction_of_max=0.7)


# Most values one sweep axis may hold.
_MAX_AXIS_VALUES = 1000


def _parse_axis(text: str, name: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{name} parts must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{name} parts must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError(f"{name} step must be positive")
    if stop < start:
        raise ValueError(f"{name} stop must not precede start")
    # Checked before int(): the quotient of finite parts may still be inf.
    steps = (stop - start) / step + 1e-9
    if not (steps < _MAX_AXIS_VALUES):
        raise ValueError(f"{name} must hold at most {_MAX_AXIS_VALUES} values")
    return tuple(round(start + k * step, 10) for k in range(int(steps) + 1))


def _resolve_device(token: str):
    if token in ("none", "ideal"):
        return token
    if token in BUILTIN_DEVICE_NAMES:
        return builtin_device_spec(token)
    if os.path.exists(token):
        return load_device_spec(token)
    raise ValueError(f"unknown device {token!r}; use one of "
                     f"{', '.join(_DEVICE_CHOICES)} or a spec file path")


def _device_row_name(token: str) -> str:
    if token in _DEVICE_CHOICES:
        return token
    stem = os.path.splitext(os.path.basename(token))[0]
    return stem or token


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    out = _out_dir(args)
    if args.config == "default":
        config = DEFAULT_SYNTH_CONFIG
        inputs = {}
    else:
        config = load_synth_config(args.config)
        inputs = {args.config: _sha256_file(args.config)}
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    trace = synthesize_trace(config)
    trace_path = os.path.join(out, "trace.csv")
    trace_digest = _write_output(trace_path, write_trace, trace)
    _write_manifest(
        out, "synth", inputs,
        {"synth_config": _sha256_text(_write_via(write_synth_config, config))},
        config.seed, {"trace.csv": trace_digest})
    print(f"wrote {trace_path} ({trace.n_samples} samples, "
          f"{trace.duration_s:.1f} s at {trace.dt_s * 1e3:.1f} ms)")
    return 0


def _cmd_analyze(args) -> int:
    out = _out_dir(args)
    trace = load_trace(args.trace)
    threshold = _threshold_from_args(args)
    edges = DEFAULT_ENERGY_BIN_EDGES
    if args.bins is not None:
        edges = tuple(float(tok) for tok in args.bins.split(","))
    spikes = detect_spikes(trace, threshold)
    stats = spike_statistics(spikes, energy_bin_edges=edges)

    spikes_path = os.path.join(out, "spikes.csv")
    stats_path = os.path.join(out, "spike_stats.json")
    spikes_digest = _write_output(spikes_path, write_spikes_csv, spikes)
    stats_digest = _write_output(stats_path, write_stats_json, stats)
    _write_manifest(
        out, "analyze", {args.trace: _sha256_file(args.trace)},
        {"threshold": _sha256_text(json.dumps(
            {"absolute_w": threshold.absolute_w,
             "fraction_of_max": threshold.fraction_of_max}, sort_keys=True))},
        None,
        {"spikes.csv": spikes_digest, "spike_stats.json": stats_digest})

    pct = stats.duration_percentiles
    print(f"spikes above {threshold.resolve(trace.rack_max_w):.0f} W: {stats.count}")
    if not stats.empty:
        print(f"  duration p50/p85/p95/p99 (ms): "
              f"{pct['p50'] * 1e3:.1f} / {pct['p85'] * 1e3:.1f} / "
              f"{pct['p95'] * 1e3:.1f} / {pct['p99'] * 1e3:.1f}")
        print(f"  fraction <= 100 ms: {stats.frac_leq_100ms:.3f}")
        print(f"  mean energy above threshold: {stats.energy_mean_j:.1f} J")
    print(f"wrote {spikes_path}, {stats_path}")
    return 0


def _cmd_simulate(args) -> int:
    out = _out_dir(args)
    trace = load_trace(args.trace)
    inputs = {args.trace: _sha256_file(args.trace)}
    if args.config is not None:
        config = load_sim_config(args.config)
        inputs[args.config] = _sha256_file(args.config)
    else:
        config = SimConfig()
    if args.threshold_w is not None or args.threshold_frac is not None:
        config = replace(config, threshold=_threshold_from_args(args))
    device = _resolve_device(args.device)
    if args.device not in _DEVICE_CHOICES and os.path.exists(args.device):
        inputs[args.device] = _sha256_file(args.device)

    result = simulate_shaving(trace, device, config)
    csv_path = os.path.join(out, "shaving.csv")
    summary_path = os.path.join(out, "shaving_summary.json")
    csv_digest = _write_output(csv_path, write_result_csv, result)
    summary_digest = _write_output(summary_path, write_result_summary_json, result)
    _write_manifest(
        out, "simulate", inputs,
        {"sim_config": _sha256_text(_write_via(write_sim_config, config))},
        None,
        {"shaving.csv": csv_digest, "shaving_summary.json": summary_digest})

    print(f"strategy {result.strategy}: unserved {result.total_unserved_energy_j:.1f} J, "
          f"dummy {result.total_dummy_energy_j:.1f} J, "
          f"curtailed {result.curtailed_gpu_seconds:.1f} GPU-s")
    print(f"wrote {csv_path}, {summary_path}")
    if result.ramp_violation_count > 0:
        print(f"grid ramp limit violated on {result.ramp_violation_count} steps",
              file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    fracs = DEFAULT_THRESHOLD_FRACS
    bursts = DEFAULT_BURST_LENGTHS_S
    if args.axes_threshold is not None:
        fracs = _parse_axis(args.axes_threshold, "--axes-threshold")
    if args.axes_burst is not None:
        bursts = _parse_axis(args.axes_burst, "--axes-burst")
    trace = load_trace(args.trace)
    grid = sweep_gpus_saved(trace, fracs, bursts, args.gpu_unit_w)

    csv_text = export_grid(grid, "csv")
    json_text = export_grid(grid, "json")
    csv_path = os.path.join(out, "grid.csv")
    json_path = os.path.join(out, "grid.json")
    _atomic_write(csv_path, csv_text)
    _atomic_write(json_path, json_text)
    _write_manifest(
        out, "sweep", {args.trace: _sha256_file(args.trace)},
        {"axes": _sha256_text(json.dumps(
            {"threshold_fracs": list(fracs), "burst_lengths_s": list(bursts),
             "gpu_unit_w": args.gpu_unit_w}, sort_keys=True))},
        None,
        {"grid.csv": _sha256_text(csv_text), "grid.json": _sha256_text(json_text)})
    print(f"swept {len(fracs)}x{len(bursts)} grid; "
          f"max gpus_saved = {int(grid.values.max())}")
    print(f"wrote {csv_path}, {json_path}")
    return 0


def _cmd_compare(args) -> int:
    out = _out_dir(args)
    trace = load_trace(args.trace)
    inputs = {args.trace: _sha256_file(args.trace)}
    if args.config is not None:
        config = load_sim_config(args.config)
        inputs[args.config] = _sha256_file(args.config)
    else:
        config = SimConfig()
    tokens = args.device or ["none", "capacitor", "supercap", "battery", "ideal"]
    strategies = []
    for token in tokens:
        strategies.append((_device_row_name(token), _resolve_device(token)))
        if token not in _DEVICE_CHOICES and os.path.exists(token):
            inputs[token] = _sha256_file(token)
    rows = compare_strategies(trace, strategies, config)

    csv_path = os.path.join(out, "comparison.csv")
    csv_digest = _write_output(csv_path, write_comparison_csv, rows)
    _write_manifest(
        out, "compare", inputs,
        {"sim_config": _sha256_text(_write_via(write_sim_config, config))},
        None, {"comparison.csv": csv_digest})

    for row in rows:
        print(f"  {row.strategy_name:<12} gain {row.computational_gain_pct:+7.2f}%  "
              f"dummy {row.dummy_energy_j:12.1f} J  "
              f"unserved {row.total_unserved_energy_j:12.1f} J")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--threshold-w", type=float, default=None,
                       help="threshold in watts")
    group.add_argument("--threshold-frac", type=float, default=None,
                       help="threshold as a fraction of rack max power")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powershave",
        description="Rack power trace analysis and peak-shaving simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic rack trace")
    p.add_argument("--config", default="default",
                   help="synth config JSON path, or 'default' for the shipped workload")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", help="detect spikes and export statistics")
    p.add_argument("--trace", required=True, help="trace CSV path")
    _add_threshold_flags(p)
    p.add_argument("--bins", default=None,
                   help="energy histogram bin edges, comma separated joules")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run the shaving simulation")
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.add_argument("--device", required=True,
                   help="device spec path, builtin name, 'none', or 'ideal'")
    p.add_argument("--config", default=None, help="sim config JSON path")
    _add_threshold_flags(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate gpus_saved over a grid")
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.add_argument("--axes-threshold", default=None, metavar="START:STOP:STEP",
                   help="threshold fraction axis (default 0.50:0.95:0.05)")
    p.add_argument("--axes-burst", default=None, metavar="START:STOP:STEP",
                   help="burst length axis in seconds (default 0:0.2:0.02)")
    p.add_argument("--gpu-unit-w", type=float, default=700.0,
                   help="per-accelerator power for shutdown accounting")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="compare shaving strategies on one trace")
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.add_argument("--device", action="append", default=None,
                   help="strategy to include (repeatable); defaults to "
                        "none, capacitor, supercap, battery, ideal")
    p.add_argument("--config", default=None, help="sim config JSON path")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
