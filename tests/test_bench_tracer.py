"""bench/tracer.py's contract with the CLI: the benchmark's span tracer
wraps the library functions in cli's namespace when a traced pass starts,
and counts bytes from their arguments.  The CLI must look each loader up at
call time and pass load_trace the path first, and compare_strategies must
run through sweep.simulate_shaving, or the traced figures go wrong while
every output stays right.  The tracer is loaded by path and
run as the benchmark runs it."""

import importlib.util
import json
import os
from pathlib import Path

from powershave import cli

_ROOT = Path(__file__).resolve().parent.parent
_TRACER = _ROOT / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)

SHIPPED_SYNTH = _ROOT / "src" / "powershave" / "data" / "default_synth.json"


def test_traced_commands_count_every_load_and_export(tmp_path, capsys):
    config = json.loads(SHIPPED_SYNTH.read_text(encoding="utf-8"))
    config["duration_s"] = 45.0
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    trace = str(out / "trace.csv")
    commands = [
        ["synth", "--config", str(synth), "--out", str(out)],
        ["analyze", "--trace", trace, "--out", str(out)],
        ["sweep", "--trace", trace, "--out", str(out)],
        ["simulate", "--trace", trace, "--device", "supercap", "--out", str(out)],
        ["compare", "--trace", trace, "--out", str(out)],
    ]
    tracer = tracer_module.Tracer()
    with tracer_module.instrumented(tracer):
        codes = [cli.main(argv) for argv in commands]
    capsys.readouterr()
    assert codes == [0, 0, 0, 3, 0]
    totals = tracer.span_totals(0, len(tracer.start))
    assert totals["trace.load_trace"][0] == 4
    assert tracer.counts["trace.csv_bytes"] == 4 * os.path.getsize(trace)
    assert tracer.counts["shaving.csv_bytes"] == os.path.getsize(out / "shaving.csv")
    # compare's five runs go through sweep.simulate_shaving, so the tracer
    # spans them beside simulate's own run.
    assert tracer.counts["sweep.simulations"] == 5
    assert totals["shaving.simulate_shaving"][0] == 6
