"""Command-line surface: reproducible synth / analyze / simulate / sweep /
compare runs.

Every command writes its primary outputs plus a run manifest into the
output directory (--out, or the POWERSHAVE_OUT environment variable,
defaulting to the working directory).  Outputs are byte-identical for
identical inputs; the manifest's created_utc field is the only thing
that changes between reruns.  Every command ends in one _emit call, which
builds all of its outputs and the manifest before it replaces any of
them, and every config digest is taken by _emit, from the same bytes its
writer would write to a file.  A run refused before _emit creates no
directory.  Every file a command reads, the trace, a config or a device
spec, goes through _input, which loads it and records its digest among
the manifest's inputs.

The module holds flag names and file I/O only.  A flag's value is
checked once, by the library call that applies it, run inside _as_flags
so that its refusal names the flag; the sweep axes alone are checked
(_check_axes) before the trace loads.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error,
3 run completed but the grid ramp constraint was violated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__, _textio
from ._textio import plain_float, plain_int, plain_numbers, write_json, write_text
from .trace import (DEFAULT_SYNTH_CONFIG, load_synth_config, load_trace,
                    synthesize_trace, write_synth_config, write_trace)
from .spikes import (DEFAULT_ENERGY_BIN_EDGES, ThresholdSpec, detect_spikes,
                     spike_statistics, write_spikes_csv, write_stats_json)
from .devices import BUILTIN_DEVICE_NAMES, builtin_device_spec, load_device_spec
from .shaving import (SimConfig, load_sim_config, simulate_shaving,
                      write_result_csv, write_result_summary_json, write_sim_config)
from .sweep import (DEFAULT_BURST_LENGTHS_S, DEFAULT_THRESHOLD_FRACS, _check_axes,
                    compare_strategies, sweep_gpus_saved, write_comparison_csv,
                    write_grid_csv, write_grid_json)

_DEVICE_CHOICES = ("none", "ideal") + BUILTIN_DEVICE_NAMES
# What compare runs when no --device is given.
_COMPARE_DEFAULT = ("none", *BUILTIN_DEVICE_NAMES, "ideal")


def _input(path: str, load, inputs: dict):
    """load(path), then the file's digest recorded in inputs under path:
    the one reader of every file a command reads.  Each caller passes the
    loader it looks up at call time (bench/tracer.py wraps cli's library
    functions when a traced pass starts), and load_trace takes the path
    first, as that tracer's byte count reads it.  The file is hashed
    _textio.READ_SIZE bytes at a time, the read size of every reader."""
    value = load(path)
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_textio.READ_SIZE):
            h.update(block)
    inputs[path] = "sha256:" + h.hexdigest()
    return value


class _HashingSink:
    """Binary stream that hashes each block of bytes, then writes it to the
    binary file fh.  A str raises TypeError from the hash before any byte
    reaches fh, so _textio.write_text encodes every writer's text for it."""

    def __init__(self, fh):
        self.fh = fh
        self.sha = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.sha.update(data)
        return self.fh.write(data)

    def tell(self) -> int:
        # Bytes written so far; bench/tracer.py reads it after
        # write_result_csv to count shaving.csv_bytes.
        return self.fh.tell()


def _hash_into(fh, writer, obj) -> str:
    """writer(obj, sink) into the binary file fh; the sha256: digest of the
    bytes written."""
    sink = _HashingSink(fh)
    writer(obj, sink)
    return "sha256:" + sink.sha.hexdigest()


def _write_compact_json(obj, dest) -> None:
    # The threshold and axes digests hash this form of their values.
    write_text(dest, [json.dumps(obj, sort_keys=True)])


def _emit(args, command: str, inputs: dict, configs: dict, seed,
          outputs: dict) -> list:
    """Write a command's outputs and its manifest into the output directory
    (--out, else POWERSHAVE_OUT, else the working directory); returns the
    output paths in order.

    configs maps each config digest's name to (writer, obj), as outputs
    maps a file; each text is hashed in memory, before the output directory
    is made.
    outputs maps each file name to (writer, obj), in write order.  Each
    text goes to its .tmp file through writer(obj, sink), hashed as it is
    written, so no whole file is held in memory or read back.  The
    manifest is built from those digests and written to its .tmp file
    too.  Only then is every path replaced, the manifest last.  When
    anything fails, every .tmp file left is removed; a failure before the
    first replace leaves every path as it was."""
    config_digests = {name: _hash_into(io.BytesIO(), writer, obj)
                      for name, (writer, obj) in configs.items()}
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


@contextlib.contextmanager
def _as_flags(flags: dict):
    """Re-raise a ValueError whose message starts with a field that flags
    maps, then a space, with the field's flag in its place; the rest of the
    message stays.  Each command wraps only the code that applies a flag's
    value, so a field read from a --config file keeps its own name."""
    try:
        yield
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        if field not in flags:
            raise
        raise ValueError(f"{flags[field]} {rest}") from None


def _threshold_from_args(args, rack_max_w: float) -> ThresholdSpec | None:
    """The threshold flag given, or None; the default is SimConfig's.  A
    value ThresholdSpec refuses, or one outside (0, rack_max_w], is refused
    under the flag's name."""
    if args.threshold_w is None and args.threshold_frac is None:
        return None
    # argparse lets at most one of the two through.
    flag = "--threshold-w" if args.threshold_w is not None else "--threshold-frac"
    with _as_flags(dict.fromkeys(("absolute_w", "fraction_of_max", "threshold"), flag)):
        threshold = ThresholdSpec(absolute_w=args.threshold_w, fraction_of_max=args.threshold_frac)
        threshold.resolve(rack_max_w)
    return threshold


# Most values one sweep axis may hold.
_MAX_AXIS_VALUES = 1000


def _parse_axis(text: str, name: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must look like start:stop:step")
    start, stop, step = values = plain_numbers(parts, f"{name} part")
    # The values are rounded to 10 decimals below; no part may change so.
    for pos, (part, value) in enumerate(zip(parts, values), 1):
        if round(value, 10) != value:
            raise ValueError(f"{name} part {pos} must have at most 10 decimals, got {part!r}")
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


def _resolve_device(token: str, inputs: dict):
    """The device a --device token names; a spec file is read through
    _input."""
    if token in ("none", "ideal"):
        return token
    if token in BUILTIN_DEVICE_NAMES:
        return builtin_device_spec(token)
    if os.path.exists(token):
        return _input(token, load_device_spec, inputs)
    raise ValueError(f"unknown device {token!r}; use one of "
                     f"{', '.join(_DEVICE_CHOICES)} or a spec file path")


def _sim_config(args, inputs: dict) -> SimConfig:
    """--config's SimConfig, read through _input, or the default one."""
    if args.config is None:
        return SimConfig()
    return _input(args.config, load_sim_config, inputs)


def _device_row_name(token: str) -> str:
    """A spec file's stem, unless it is empty or a built-in strategy's
    name: then, as for a built-in strategy, the token as typed."""
    stem = os.path.splitext(os.path.basename(token))[0]
    return stem if stem and stem not in _DEVICE_CHOICES else token


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    inputs = {}
    config = (DEFAULT_SYNTH_CONFIG if args.config == "default"
              else _input(args.config, load_synth_config, inputs))
    if args.seed is not None:
        with _as_flags({"seed": "--seed"}):
            config = replace(config, seed=args.seed)
    trace = synthesize_trace(config)
    trace_path, = _emit(args, "synth", inputs,
                        {"synth_config": (write_synth_config, config)},
                        config.seed, {"trace.csv": (write_trace, trace)})
    print(f"wrote {trace_path} ({trace.n_samples} samples, "
          f"{trace.duration_s:.1f} s at {trace.dt_s * 1e3:.1f} ms)")
    return 0


def _cmd_analyze(args) -> int:
    inputs = {}
    trace = _input(args.trace, load_trace, inputs)
    threshold = _threshold_from_args(args, trace.rack_max_w) or SimConfig.threshold
    edges = (DEFAULT_ENERGY_BIN_EDGES if args.bins is None
             else plain_numbers(args.bins.split(","), "--bins edge"))
    spikes = detect_spikes(trace, threshold)
    with _as_flags({"energy_bin_edges": "--bins"}):
        stats = spike_statistics(spikes, energy_bin_edges=edges)
    spikes_path, stats_path = _emit(
        args, "analyze", inputs,
        {"threshold": (_write_compact_json,
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
    inputs = {}
    trace = _input(args.trace, load_trace, inputs)
    config = _sim_config(args, inputs)
    threshold = _threshold_from_args(args, trace.rack_max_w)
    if threshold is not None:
        config = replace(config, threshold=threshold)
    device = _resolve_device(args.device, inputs)

    result = simulate_shaving(trace, device, config)
    csv_path, summary_path = _emit(
        args, "simulate", inputs, {"sim_config": (write_sim_config, config)},
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
    fracs = (DEFAULT_THRESHOLD_FRACS if args.axes_threshold is None
             else _parse_axis(args.axes_threshold, "--axes-threshold"))
    bursts = (DEFAULT_BURST_LENGTHS_S if args.axes_burst is None
              else _parse_axis(args.axes_burst, "--axes-burst"))
    with _as_flags({"threshold_fracs": "--axes-threshold", "burst_lengths_s": "--axes-burst"}):
        fracs, bursts = _check_axes(fracs, bursts)
    inputs = {}
    trace = _input(args.trace, load_trace, inputs)
    with _as_flags({"gpu_unit_w": "--gpu-unit-w"}):
        grid = sweep_gpus_saved(trace, fracs, bursts, args.gpu_unit_w)
    csv_path, json_path = _emit(
        args, "sweep", inputs,
        {"axes": (_write_compact_json,
                  {"threshold_fracs": list(fracs), "burst_lengths_s": list(bursts),
                   "gpu_unit_w": args.gpu_unit_w})},
        None, {"grid.csv": (write_grid_csv, grid), "grid.json": (write_grid_json, grid)})
    print(f"swept {len(fracs)}x{len(bursts)} grid; "
          f"max gpus_saved = {int(grid.values.max())}")
    print(f"wrote {csv_path}, {json_path}")
    return 0


def _cmd_compare(args) -> int:
    inputs = {}
    trace = _input(args.trace, load_trace, inputs)
    config = _sim_config(args, inputs)
    tokens = args.device or _COMPARE_DEFAULT
    strategies = [(_device_row_name(token), _resolve_device(token, inputs))
                  for token in tokens]
    rows = compare_strategies(trace, strategies, config)
    csv_path, = _emit(args, "compare", inputs,
                      {"sim_config": (write_sim_config, config)},
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

def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  Its value_flags set holds each flag
    that takes a value, recorded as add adds it, for main's argv rule."""
    # allow_abbrev=False: a flag is written in full, so argparse reads no
    # prefix of one that main's argv rule would not join.
    parser = argparse.ArgumentParser(
        prog="powershave", allow_abbrev=False,
        description="Rack power trace analysis and peak-shaving simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.value_flags = set()
    sub = parser.add_subparsers(dest="command", required=True)

    def add(container, flag, **kwargs) -> None:
        if container.add_argument(flag, **kwargs).nargs != 0:
            parser.value_flags.add(flag)

    def add_threshold_flags(p) -> None:
        group = p.add_mutually_exclusive_group()
        add(group, "--threshold-w", type=plain_float, default=None,
            help="threshold in watts")
        add(group, "--threshold-frac", type=plain_float, default=None,
            help="threshold as a fraction of rack max power")

    p = sub.add_parser("synth", allow_abbrev=False, help="generate a synthetic rack trace")
    add(p, "--config", default="default",
        help="synth config JSON path, or 'default' for the shipped workload")
    add(p, "--seed", type=plain_int, default=None, help="override the config seed")
    add(p, "--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", allow_abbrev=False, help="detect spikes and export statistics")
    add(p, "--trace", required=True, help="trace CSV path")
    add_threshold_flags(p)
    add(p, "--bins", default=None,
        help="energy histogram bin edges, comma separated joules")
    add(p, "--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", allow_abbrev=False, help="run the shaving simulation")
    add(p, "--trace", required=True, help="trace CSV path")
    add(p, "--device", required=True,
        help="device spec path, builtin name, 'none', or 'ideal'")
    add(p, "--config", default=None, help="sim config JSON path")
    add_threshold_flags(p)
    add(p, "--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", allow_abbrev=False, help="tabulate gpus_saved over a grid")
    add(p, "--trace", required=True, help="trace CSV path")
    add(p, "--axes-threshold", default=None, metavar="START:STOP:STEP",
        help=_axis_help("threshold fraction axis", DEFAULT_THRESHOLD_FRACS))
    add(p, "--axes-burst", default=None, metavar="START:STOP:STEP",
        help=_axis_help("burst length axis in seconds", DEFAULT_BURST_LENGTHS_S))
    add(p, "--gpu-unit-w", type=plain_float, default=SimConfig.gpu_unit_w,
        help="per-accelerator power for shutdown accounting")
    add(p, "--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", allow_abbrev=False,
                       help="compare shaving strategies on one trace")
    add(p, "--trace", required=True, help="trace CSV path")
    # default=None: with action="append", argparse would append to a list.
    add(p, "--device", action="append", default=None,
        help="strategy to include (repeatable); defaults to " + ", ".join(_COMPARE_DEFAULT))
    add(p, "--config", default=None, help="sim config JSON path")
    add(p, "--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes a value that starts with '-' for a flag of its own unless
    # it is a plain negative number, so every flag that takes a value is
    # joined to such a value, '-' then a digit or '.', as flag=value: both
    # forms read alike.
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] in parser.value_flags and re.match(r"-[0-9.]", argv[k]):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
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
