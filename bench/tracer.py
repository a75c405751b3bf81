"""Span tracer for the benchmark.

The tracer wraps, from outside the package, the module attributes through
which one powershave layer calls another, and records one span per call:
name, start, end and the span that was open when the call began.  Spans
live in flat arrays in memory and are written out once, by save(), when
the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.

Only attributes looked up at call time can be wrapped this way: names the
CLI imported into its namespace, and the globals that shaving, sweep and
spikes resolve on every call.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records spans of wrapped calls and counts taken at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span called name.  count(result, args), if
        given, runs inside the span after fn returns."""
        nid = self._name_id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(result, args)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span_totals(self, first: int, stop: int) -> dict[str, tuple[int, float]]:
        """{name: (calls, self seconds)} over spans first..stop-1, which
        must hold whole trees (every parent of a span in the range is in
        the range too)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:stop]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:stop]
        dur = (np.frombuffer(self.end, dtype=np.float64)[first:stop]
               - np.frombuffer(self.start, dtype=np.float64)[first:stop])
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child] - first, dur[child])
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: (int(calls[k]), float(self_s[k]))
                for k, name in enumerate(self.names) if calls[k]}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer boundary of powershave for the duration of the
    block, restoring the original attributes afterwards."""
    from powershave import cli, shaving, spikes, sweep

    counts = tracer.counts

    def count_load(trace, args):
        counts["trace.csv_bytes"] += os.path.getsize(args[0])

    def count_spikes(found, args):
        counts["spikes.found"] += len(found)

    def count_simulation(result, args):
        counts["shaving.steps"] += result.n_steps
        counts["shaving.events"] += result.unserved_spike_count
        counts["shaving.ramp_violations"] += result.ramp_violation_count

    def count_compared_simulation(result, args):
        counts["sweep.simulations"] += 1
        count_simulation(result, args)

    def count_result_csv(result, args):
        # The CLI renders into a StringIO; its position is the text length.
        counts["shaving.csv_bytes"] += args[1].tell()

    def count_device_step(result, args):
        # args: spec, state, requested_discharge_w, ...; result[0] is delivered.
        if result[0] < args[2]:
            counts["devices.shortfall_steps"] += 1

    gpus_saved = sweep.gpus_saved

    def count_cell(*args, **kwargs):
        counts["sweep.cells"] += 1
        return gpus_saved(*args, **kwargs)

    cli_counters = {"load_trace": count_load, "detect_spikes": count_spikes,
                    "simulate_shaving": count_simulation,
                    "write_result_csv": count_result_csv}
    try:
        for attr, fn in list(vars(cli).items()):
            if (inspect.isfunction(fn) and fn.__module__.startswith("powershave.")
                    and fn.__module__ != cli.__name__):
                tracer.patch(cli, attr, tracer.wrap(_layer_name(fn), fn,
                                                    cli_counters.get(attr)))
        tracer.patch(shaving, "device_step",
                     tracer.wrap("devices.device_step", shaving.device_step,
                                 count_device_step))
        tracer.patch(shaving, "thermal_step",
                     tracer.wrap("shaving.thermal_step", shaving.thermal_step))
        tracer.patch(sweep, "simulate_shaving",
                     tracer.wrap("shaving.simulate_shaving", sweep.simulate_shaving,
                                 count_compared_simulation))
        # A cell is counted, not spanned: its scan over the detected spikes
        # is the sweep's own work and stays in sweep_gpus_saved's self time.
        tracer.patch(sweep, "gpus_saved", count_cell)
        tracer.patch(spikes, "detect_spikes",
                     tracer.wrap("spikes.detect_spikes", spikes.detect_spikes,
                                 count_spikes))
        yield tracer
    finally:
        tracer.unpatch()
