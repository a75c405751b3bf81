"""In-process benchmark of the powershave CLI.

    python3 bench/run.py --workload shave-default --seed 20260816 --seconds 45 --trace 0

One run of one workload, from the root of a checkout.  The run and the
interpreters it starts are kept on one CPU (pin_to_one_cpu).

1. Inputs.  The workload's synth config is the shipped one
   (src/powershave/data/default_synth.json) with the workload's overrides
   and seed = --seed.  It is written to a scratch directory inside the
   checkout (.bench_work/), and the program only ever sees that file and
   the files its own commands write.
2. Set-up, untimed by the passes.  SETUP_REPEATS fresh interpreters,
   one after another, each import powershave and run `synth` on the
   config, writing the input trace.  Each one's wall time (interpreter
   start, imports and synthesis) is scaled to the reference host speed
   (below) by host_probe() timed just before and after it; setup_s is the
   median of these.
3. This process imports powershave.cli and runs one warm-up pass.
4. Passes run back to back in this process, on one thread, in a closed
   loop with one client, for as long as the next pass, if it takes as
   long as the last, still ends within --seconds.  A pass is the
   workload's command sequence, each command a call of
   powershave.cli.main(argv).  Every pass, the warm-up too, goes through
   the output gate (gate.py); a pass that fails it counts in `failed`.

With --trace 0 the result holds the end-to-end metrics: wall_norm_s,
setup_s and peak_rss_mb.  wall_norm_s is the median over passes of each
pass's wall time scaled to a reference host speed (PassProbe): times
PROBE_REF_S over the host probe's speed sampled during that pass.  The
host this benchmark was tuned on changes speed by up to 45% for tens of
seconds at a time, so the unscaled medians, wall_s and the raw set-up
time, are printed but not part of the result.

With --trace 1 untraced and traced passes alternate; the traced ones wrap
each layer boundary (tracer.py) and the result holds the per-layer
metrics, medians over traced passes.  The spans are written to
.bench_work/ at the end.

Above the result, a table prints each metric with its unit and sample
count, failed_frac (failed over attempted passes), and host.probe_s at
the start and end of the run and around the passes.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
failed_frac is not among its metrics, because a metric that is 0 on a
correct run has no median to bound; `failed` and `attempted` carry it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SHIPPED_SYNTH = os.path.join(SRC, "powershave", "data", "default_synth.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PINNED = os.path.join(BENCH_DIR, "expected.json")

sys.path.insert(0, BENCH_DIR)
from gate import Reference, physics_problems  # noqa: E402
from tracer import Tracer, instrumented  # noqa: E402

# The shipped config's seed; at this seed and the full size every output
# is pinned in expected.json.
DEFAULT_SEED = 20260816
SETUP_REPEATS = 5
# host_probe()'s typical value on the 2-vCPU host the bounds were set on.
# wall_norm_s and setup_s are scaled to this host speed.
PROBE_REF_S = 0.007
PROBE_LOOPS = 100_000
# During an untraced pass, a SIGALRM handler times a loop of SAMPLE_LOOPS
# iterations every SAMPLE_PERIOD_S seconds: about 1.5% of the pass, which
# is taken off its wall time.
SAMPLE_LOOPS = 20_000
SAMPLE_PERIOD_S = 0.1
# Passes beyond a tail percentile needed before it is printed.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    synth: dict        # overrides of the shipped synth config
    commands: tuple    # argv of each CLI call in one pass, run from the work dir


# Paths are relative to the work directory, so that manifests, which
# record input paths, are the same in every checkout.
WORKLOADS = {
    # Trace and spike layers: synthesis, CSV write and load, and 111
    # spike detections per pass (1 in analyze, 110 in the sweep grid).
    # The shaving and device layers do no work here.
    "spike-study": Workload({}, (
        ("synth", "--config", "inputs/synth.json", "--out", "out"),
        ("analyze", "--trace", "out/trace.csv", "--out", "out"),
        ("sweep", "--trace", "out/trace.csv", "--out", "out"),
    )),
    # Shaving and device layers: the per-step loop for six simulations,
    # the 9-column shaving.csv export, and the restart-penalty rescans of
    # the `none` strategy.  Spike detection never runs.
    "shave-default": Workload({}, (
        ("simulate", "--trace", "inputs/trace.csv", "--device", "supercap", "--out", "out"),
        ("compare", "--trace", "inputs/trace.csv", "--out", "out"),
    )),
}

END_TO_END = (("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# A name ending in .self_s or .calls reads the span before it; other
# names are counts taken at the layer boundaries, or derived below.
PER_LAYER = (
    ("trace.synthesize_trace.self_s", "s"),
    ("trace.write_trace.self_s", "s"),
    ("trace.load_trace.calls", "count"),
    ("trace.load_trace.self_s", "s"),
    ("trace.csv_bytes", "B"),
    ("spikes.detect_spikes.calls", "count"),
    ("spikes.detect_spikes.self_s", "s"),
    ("spikes.found", "count"),
    ("spikes.spike_statistics.self_s", "s"),
    ("spikes.write_spikes_csv.self_s", "s"),
    ("sweep.sweep_gpus_saved.self_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.compare_strategies.self_s", "s"),
    ("sweep.simulations", "count"),
    ("shaving.simulate_shaving.calls", "count"),
    ("shaving.simulate_shaving.self_s", "s"),
    ("shaving.steps", "count"),
    ("shaving.ns_per_step", "ns"),
    ("shaving.thermal_step.calls", "count"),
    ("shaving.thermal_step.self_s", "s"),
    ("shaving.write_result_csv.self_s", "s"),
    ("shaving.csv_bytes", "B"),
    ("shaving.events", "count"),
    ("shaving.ramp_violations", "count"),
    ("devices.device_step.calls", "count"),
    ("devices.device_step.self_s", "s"),
    ("devices.ns_per_step", "ns"),
    ("devices.shortfall_steps", "count"),
    ("cli.synth.self_s", "s"),
    ("cli.analyze.self_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.sweep.self_s", "s"),
    ("cli.compare.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("tracer.overhead_s", "s"),
)


def probe_loop(loops: int) -> float:
    """Seconds of a fixed pure-Python loop: the host's speed, independent
    of the program."""
    t0 = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i
    return time.perf_counter() - t0


def host_probe() -> float:
    """Median seconds of five probe loops of PROBE_LOOPS iterations."""
    return statistics.median(probe_loop(PROBE_LOOPS) for _ in range(5))


class PassProbe:
    """Samples the host's speed around a pass and, unless `sample_in_pass`
    is false, during it.  The host this benchmark was tuned on switches
    between a fast and a slow state that last seconds, so probes taken only
    before and after a pass often miss the state it ran in."""

    def __init__(self, sample_in_pass: bool):
        self.sample_in_pass = sample_in_pass
        self.samples: list[float] = []
        self.in_pass_s = 0.0
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        seconds = probe_loop(SAMPLE_LOOPS)
        self.samples.append(seconds)
        self.in_pass_s += seconds

    def __enter__(self) -> "PassProbe":
        self.samples.append(probe_loop(SAMPLE_LOOPS))
        if self.sample_in_pass:
            self._old_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_in_pass:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self.samples.append(probe_loop(SAMPLE_LOOPS))

    def probe_s(self) -> float:
        """The median sample, in seconds of a host_probe() loop."""
        return statistics.median(self.samples) * PROBE_LOOPS / SAMPLE_LOOPS


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up interpreters it starts, on one
    CPU, so that the host probe times the CPU the measured work runs on.
    The CPUs of the host the bounds were set on differ in speed from
    moment to moment, and a probe on one says little about another."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_scaled(seconds: float, probe_s: float) -> float:
    """`seconds` at the reference host speed, from the host probe's
    seconds while they were measured."""
    return seconds * PROBE_REF_S / probe_s


def write_inputs(work: str, workload: Workload, seed: int, duration_s) -> dict:
    with open(SHIPPED_SYNTH, encoding="utf-8") as fh:
        config = json.load(fh)
    config.update(workload.synth, seed=seed)
    if duration_s is not None:
        config["duration_s"] = duration_s
    os.makedirs(os.path.join(work, "inputs"))
    with open(os.path.join(work, "inputs", "synth.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config


_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from powershave.cli import main; sys.exit(main(sys.argv[2:]))")


def timed_setup(work: str) -> float:
    """Wall seconds of one fresh interpreter that imports powershave and
    synthesizes the input trace."""
    argv = [sys.executable, "-c", _SETUP_CODE, SRC,
            "synth", "--config", "inputs/synth.json", "--out", "inputs"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up synth exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def run_pass(cli_main, commands, tracer=None):
    """Run one pass from the work dir; returns (seconds, exit codes, log)."""
    log = io.StringIO()
    codes = []
    t0 = time.perf_counter()
    try:
        with redirect_stdout(log), redirect_stderr(log):
            for argv in commands:
                call = cli_main if tracer is None else tracer.wrap(f"cli.{argv[0]}", cli_main)
                codes.append(call(list(argv)))
    except SystemExit as exc:
        codes.append(exc.code)
    except Exception:  # a crash fails this pass; the run goes on
        codes.append("exception")
        log.write(traceback.format_exc())
    return time.perf_counter() - t0, codes, log.getvalue()


def corrupt_one_output(out_dir: str) -> None:
    """Change one byte in the middle of the largest output file."""
    path = max((os.path.join(out_dir, n) for n in os.listdir(out_dir)), key=os.path.getsize)
    with open(path, "r+b") as fh:
        data = fh.read()
        mid = len(data) // 2
        fh.seek(mid)
        fh.write(b"0" if data[mid:mid + 1] != b"0" else b"1")


def out_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def layer_values(tracer: Tracer, first_span: int, out_size: int) -> dict:
    totals = tracer.span_totals(first_span, len(tracer.start))
    counts = {**tracer.counts, "cli.out_bytes": out_size}
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = totals.get(span, (0, 0.0))[1]
        elif field == "calls":
            values[name] = totals.get(span, (0, 0.0))[0]
        else:
            values[name] = counts.get(name, 0)
    steps = values["shaving.steps"]
    calls = values["devices.device_step.calls"]
    values["shaving.ns_per_step"] = (
        1e9 * values["shaving.simulate_shaving.self_s"] / steps if steps else 0.0)
    values["devices.ns_per_step"] = (
        1e9 * values["devices.device_step.self_s"] / calls if calls else 0.0)
    return values


def tail_text(walls: list) -> str:
    """The highest listed percentile with at least TAIL_MIN_BEYOND passes
    beyond it, by nearest rank."""
    n = len(walls)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= TAIL_MIN_BEYOND:
            rank = -(-pct * n // 100)
            return f"p{pct} {sorted(walls)[rank - 1]:.4f} s"
    return f"tail percentile omitted: fewer than {TAIL_MIN_BEYOND} passes beyond p75"


class Run:
    """The measured part of one run: warm-up, then passes for `seconds`."""

    def __init__(self, args, workload: Workload, cli_main, work: str):
        self.args = args
        self.commands = workload.commands
        self.cli_main = cli_main
        self.out_dir = os.path.join(work, "out")
        self.tracer = Tracer() if args.trace else None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.walls = {False: [], True: []}
        self.norm_walls = []
        self.probes = []
        self.layer_rows = []

    def _reference(self, codes) -> Reference:
        pinned = None
        if self.args.seed == DEFAULT_SEED and self.args.duration_s is None:
            with open(PINNED, encoding="utf-8") as fh:
                pinned = json.load(fh)[self.args.workload]
        if pinned is None:
            return Reference.from_pass(self.out_dir, self.commands, codes)
        return Reference(pinned["files"], pinned["codes"], pinned["counts"],
                         physics_problems(self.out_dir, self.commands, codes))

    def one_pass(self, traced: bool, timed: bool) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        first_span = len(self.tracer.start) if traced else 0
        if traced:
            self.tracer.counts.clear()
        # Traced passes are not sampled: the handler's time would land in
        # whichever span is open.
        with PassProbe(sample_in_pass=not traced) as probe:
            with instrumented(self.tracer) if traced else nullcontext():
                wall, codes, log = run_pass(self.cli_main, self.commands,
                                            self.tracer if traced else None)
        wall -= probe.in_pass_s
        self.attempted += 1
        if self.attempted == self.args.corrupt_pass:
            corrupt_one_output(self.out_dir)
        if self.reference is None:
            self.reference = self._reference(codes)
        problems = self.reference.problems_of(self.out_dir, codes)
        if traced:
            row = layer_values(self.tracer, first_span, out_bytes(self.out_dir))
            if self.layer_rows:
                problems += [f"{name} = {row[name]}, first traced pass had "
                             f"{self.layer_rows[0][name]}"
                             for name, unit in PER_LAYER
                             if unit == "count" and row[name] != self.layer_rows[0][name]]
            self.layer_rows.append(row)
        if problems:
            self.failed += 1
            print(f"pass {self.attempted} failed:\n  " + "\n  ".join(problems)
                  + ("\n" + log if log.strip() else ""), file=sys.stderr)
        if timed:
            self.walls[traced].append(wall)
            self.probes.append(probe.probe_s())
            if not traced:
                self.norm_walls.append(host_scaled(wall, probe.probe_s()))

    def measure(self) -> None:
        """Warm up, then run timed passes (see the module docstring).  A
        traced run alternates untraced and traced passes and has at least
        one of each."""
        self.one_pass(traced=False, timed=False)
        start = time.perf_counter()
        traced = True
        last = 0.0
        while (time.perf_counter() - start + last <= self.args.seconds
               or not self.walls[False]
               or (self.tracer is not None and not self.walls[True])):
            traced = self.tracer is not None and not traced
            self.one_pass(traced=traced, timed=True)
            last = self.walls[traced][-1]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="how long the passes run, after set-up and warm-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--duration-s", type=float, default=None,
                   help="override the trace duration (the smoke check uses 45 s); "
                        "outputs are then not compared with the pins")
    p.add_argument("--corrupt-pass", type=int, default=None,
                   help="change one output byte after this pass (1 is the warm-up), "
                        "to show that the gate counts it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    probe_start = host_probe()
    sys.path.insert(0, SRC)
    from powershave.cli import main as cli_main

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    try:
        config = write_inputs(work, workload, args.seed, args.duration_s)
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            probe_before = host_probe()
            raw_setups.append(timed_setup(work))
            setups.append(host_scaled(raw_setups[-1], (probe_before + host_probe()) / 2))
        os.chdir(work)
        run = Run(args, workload, cli_main, work)
        run.measure()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    probe_end = host_probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = round(config["duration_s"] / config["dt_s"])
    untraced = run.walls[False]
    print(f"workload {args.workload}, seed {args.seed}, {samples} samples per pass, "
          f"trace {args.trace}")
    print(f"  wall_s        {statistics.median(untraced):.4f} s   median of "
          f"{len(untraced)} untraced passes; {tail_text(untraced)}")
    print("                passes: " + " ".join(f"{w:.4f}" for w in untraced))
    print(f"  wall_norm_s   {statistics.median(run.norm_walls):.4f} s   median of "
          f"{len(run.norm_walls)} untraced passes, each scaled by {PROBE_REF_S} s over "
          "the host probe during it")
    print(f"  setup_s       {statistics.median(setups):.4f} s   median of "
          f"{len(setups)} set-ups, each scaled by the host probe around it; unscaled median "
          f"{statistics.median(raw_setups):.4f} s")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB   this process, 1 sample")
    print(f"  failed_frac   {run.failed / run.attempted:.4f}   {run.failed} failed of "
          f"{run.attempted} passes, warm-up included")
    print(f"  host.probe_s  {probe_start:.5f} s at start, {probe_end:.5f} s at end, "
          f"{statistics.median(run.probes):.5f} s median during {len(run.probes)} passes")

    if args.trace:
        traced = run.walls[True]
        values = {name: statistics.median(row[name] for row in run.layer_rows)
                  for name, _ in PER_LAYER if name != "tracer.overhead_s"}
        values["tracer.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = dict(PER_LAYER)
        print(f"  per layer, median of {len(traced)} traced passes:")
        for name, _ in PER_LAYER:
            print(f"    {name:34s} {values[name]:.6g} {units[name]}")
        os.makedirs(WORK_ROOT, exist_ok=True)
        run.tracer.save(os.path.join(WORK_ROOT, f"spans-{args.workload}.npz"))
    else:
        units = dict(END_TO_END)
        values = {"wall_norm_s": statistics.median(run.norm_walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
