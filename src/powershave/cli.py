"""Command-line surface: reproducible synth / analyze / simulate / sweep /
compare runs.

Every command writes its primary outputs plus a run manifest into the
output directory (--out, or the POWERSHAVE_OUT environment variable,
defaulting to the working directory).  Outputs are byte-identical for
identical inputs; the manifest's created_utc field is the only thing
that changes between reruns.  Every command ends in one _emit call, which
builds all of its outputs and the manifest before it replaces any of
them, and every config digest goes through _digest, which hashes the
same bytes.  A run refused before _emit creates no directory.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error,
3 run completed but the grid ramp constraint was violated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from ._textio import plain_float, plain_int, plain_numbers, write_json
from .trace import (DEFAULT_SYNTH_CONFIG, load_synth_config, load_trace,
                    synthesize_trace, write_synth_config, write_trace)
from .spikes import (DEFAULT_ENERGY_BIN_EDGES, ThresholdSpec, _check_bin_edges,
                     detect_spikes, spike_statistics, write_spikes_csv,
                     write_stats_json)
from .devices import BUILTIN_DEVICE_NAMES, builtin_device_spec, load_device_spec
from .shaving import (SimConfig, _check_gpu_unit_w, load_sim_config,
                      simulate_shaving, write_result_csv,
                      write_result_summary_json, write_sim_config)
from .sweep import (DEFAULT_BURST_LENGTHS_S, DEFAULT_THRESHOLD_FRACS,
                    compare_strategies, sweep_gpus_saved, write_comparison_csv,
                    write_grid_csv, write_grid_json)

_DEVICE_CHOICES = ("none", "ideal") + BUILTIN_DEVICE_NAMES
# What compare runs when no --device is given.
_COMPARE_DEFAULT = ("none", *BUILTIN_DEVICE_NAMES, "ideal")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


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


def _hash_into(fh, writer, *args) -> str:
    sink = _HashingSink(fh)
    writer(*args, sink)
    return "sha256:" + sink.sha.hexdigest()


def _digest(writer, *args) -> str:
    """The digest _emit would record for writer's text, with the text kept
    in memory instead of a file.  For the small config texts the manifests
    digest."""
    return _hash_into(io.BytesIO(), writer, *args)


def _write_compact_json(obj, dest) -> None:
    # The threshold and axes digests hash this form of their values.
    dest.write(json.dumps(obj, sort_keys=True))


def _emit(args, command: str, inputs: dict, config_digests: dict, seed,
          outputs: dict) -> list:
    """Write a command's outputs and its manifest into the output directory
    (--out, else POWERSHAVE_OUT, else the working directory); returns the
    output paths in order.

    outputs maps each file name to (writer, obj), in write order.  Each
    text goes to its .tmp file through writer(obj, sink), hashed as it is
    written, so no whole file is held in memory or read back.  The
    manifest is built from those digests and written to its .tmp file
    too.  Only then is every path replaced, the manifest last.  When
    anything fails, every .tmp file left is removed; a failure before the
    first replace leaves every path as it was."""
    out = args.out or os.environ.get("POWERSHAVE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    staged = []

    def stage(path, writer, obj) -> str:
        fh = open(path + ".tmp", "wb")
        staged.append(path)
        with fh:
            return _hash_into(fh, writer, obj)

    try:
        digests = {name: stage(os.path.join(out, name), writer, obj)
                   for name, (writer, obj) in outputs.items()}
        stage(os.path.join(out, f"{command}_manifest.json"), write_json, {
            "command": command,
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "seed": seed,
            "inputs": inputs,
            "config_digests": config_digests,
            "outputs": digests,
        })
        for path in staged:
            os.replace(path + ".tmp", path)
    except BaseException:
        for path in staged:
            with contextlib.suppress(OSError):
                os.remove(path + ".tmp")
        raise
    return [os.path.join(out, name) for name in outputs]


def _threshold_from_args(args) -> ThresholdSpec | None:
    """The threshold flag given, or None; the default is SimConfig's."""
    if args.threshold_w is not None:
        return ThresholdSpec(absolute_w=args.threshold_w)
    if args.threshold_frac is not None:
        return ThresholdSpec(fraction_of_max=args.threshold_frac)
    return None


# Most values one sweep axis may hold.
_MAX_AXIS_VALUES = 1000


def _parse_axis(text: str, name: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must look like start:stop:step")
    start, stop, step = plain_numbers(parts, f"{name} part")
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


def _axis_help(what: str, values: tuple) -> str:
    """what, then the evenly spaced default axis values as the
    START:STOP:STEP that _parse_axis reads back into them."""
    step = round(values[1] - values[0], 10)
    return f"{what} (default {values[0]!r}:{values[-1]!r}:{step!r})"


def _parse_bins(text: str):
    return _check_bin_edges(plain_numbers(text.split(","), "--bins edge"), "--bins")


def _resolve_device(token: str, inputs: dict):
    """The device a --device token names; a spec file's digest goes into
    inputs."""
    if token in ("none", "ideal"):
        return token
    if token in BUILTIN_DEVICE_NAMES:
        return builtin_device_spec(token)
    if os.path.exists(token):
        inputs[token] = _sha256_file(token)
        return load_device_spec(token)
    raise ValueError(f"unknown device {token!r}; use one of "
                     f"{', '.join(_DEVICE_CHOICES)} or a spec file path")


def _sim_config(args, inputs: dict) -> SimConfig:
    """--config's SimConfig, or the default one; the file's digest goes
    into inputs."""
    if args.config is None:
        return SimConfig()
    inputs[args.config] = _sha256_file(args.config)
    return load_sim_config(args.config)


def _device_row_name(token: str) -> str:
    if token in _DEVICE_CHOICES:
        return token
    stem = os.path.splitext(os.path.basename(token))[0]
    return stem or token


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.config == "default":
        config = DEFAULT_SYNTH_CONFIG
        inputs = {}
    else:
        config = load_synth_config(args.config)
        inputs = {args.config: _sha256_file(args.config)}
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    trace = synthesize_trace(config)
    trace_path, = _emit(args, "synth", inputs,
                        {"synth_config": _digest(write_synth_config, config)},
                        config.seed, {"trace.csv": (write_trace, trace)})
    print(f"wrote {trace_path} ({trace.n_samples} samples, "
          f"{trace.duration_s:.1f} s at {trace.dt_s * 1e3:.1f} ms)")
    return 0


def _cmd_analyze(args) -> int:
    trace = load_trace(args.trace)
    threshold = _threshold_from_args(args) or SimConfig.threshold
    edges = DEFAULT_ENERGY_BIN_EDGES
    if args.bins is not None:
        edges = _parse_bins(args.bins)
    spikes = detect_spikes(trace, threshold)
    stats = spike_statistics(spikes, energy_bin_edges=edges)
    spikes_path, stats_path = _emit(
        args, "analyze", {args.trace: _sha256_file(args.trace)},
        {"threshold": _digest(_write_compact_json,
                              {"absolute_w": threshold.absolute_w,
                               "fraction_of_max": threshold.fraction_of_max})},
        None,
        {"spikes.csv": (write_spikes_csv, spikes),
         "spike_stats.json": (write_stats_json, stats)})

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
    trace = load_trace(args.trace)
    inputs = {args.trace: _sha256_file(args.trace)}
    config = _sim_config(args, inputs)
    threshold = _threshold_from_args(args)
    if threshold is not None:
        config = replace(config, threshold=threshold)
    device = _resolve_device(args.device, inputs)

    result = simulate_shaving(trace, device, config)
    csv_path, summary_path = _emit(
        args, "simulate", inputs, {"sim_config": _digest(write_sim_config, config)},
        None,
        {"shaving.csv": (write_result_csv, result),
         "shaving_summary.json": (write_result_summary_json, result)})

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
    fracs = DEFAULT_THRESHOLD_FRACS
    bursts = DEFAULT_BURST_LENGTHS_S
    if args.axes_threshold is not None:
        fracs = _parse_axis(args.axes_threshold, "--axes-threshold")
    if args.axes_burst is not None:
        bursts = _parse_axis(args.axes_burst, "--axes-burst")
    if not (0.0 < args.gpu_unit_w < math.inf):
        raise ValueError(f"--gpu-unit-w must be positive and finite, got {args.gpu_unit_w!r}")
    trace = load_trace(args.trace)
    _check_gpu_unit_w(trace.rack_max_w, args.gpu_unit_w, "--gpu-unit-w")
    grid = sweep_gpus_saved(trace, fracs, bursts, args.gpu_unit_w)
    csv_path, json_path = _emit(
        args, "sweep", {args.trace: _sha256_file(args.trace)},
        {"axes": _digest(_write_compact_json,
                         {"threshold_fracs": list(fracs), "burst_lengths_s": list(bursts),
                          "gpu_unit_w": args.gpu_unit_w})},
        None, {"grid.csv": (write_grid_csv, grid), "grid.json": (write_grid_json, grid)})
    print(f"swept {len(fracs)}x{len(bursts)} grid; "
          f"max gpus_saved = {int(grid.values.max())}")
    print(f"wrote {csv_path}, {json_path}")
    return 0


def _cmd_compare(args) -> int:
    trace = load_trace(args.trace)
    inputs = {args.trace: _sha256_file(args.trace)}
    config = _sim_config(args, inputs)
    tokens = args.device or _COMPARE_DEFAULT
    strategies = [(_device_row_name(token), _resolve_device(token, inputs))
                  for token in tokens]
    rows = compare_strategies(trace, strategies, config)
    csv_path, = _emit(args, "compare", inputs,
                      {"sim_config": _digest(write_sim_config, config)},
                      None, {"comparison.csv": (write_comparison_csv, rows)})

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
    group.add_argument("--threshold-w", type=plain_float, default=None,
                       help="threshold in watts")
    group.add_argument("--threshold-frac", type=plain_float, default=None,
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
    p.add_argument("--seed", type=plain_int, default=None, help="override the config seed")
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
                   help=_axis_help("threshold fraction axis", DEFAULT_THRESHOLD_FRACS))
    p.add_argument("--axes-burst", default=None, metavar="START:STOP:STEP",
                   help=_axis_help("burst length axis in seconds", DEFAULT_BURST_LENGTHS_S))
    p.add_argument("--gpu-unit-w", type=plain_float, default=SimConfig.gpu_unit_w,
                   help="per-accelerator power for shutdown accounting")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="compare shaving strategies on one trace")
    p.add_argument("--trace", required=True, help="trace CSV path")
    # default=None: with action="append", argparse would append to a list.
    p.add_argument("--device", action="append", default=None,
                   help="strategy to include (repeatable); defaults to "
                        + ", ".join(_COMPARE_DEFAULT))
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
