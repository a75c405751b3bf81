"""Golden digests of the exported files.

Pins the SHA-256 of every file a refactor must keep bit-identical, rendered
in process through the same writers the CLI uses, on the short trace (the
45 s seed-99 synth config of acceptance criterion 8) and the default
SimConfig:

* trace.csv;
* shaving.csv and shaving_summary.json for each of the five strategies;
* comparison.csv for the CLI's default strategy list;
* grid.csv for the default sweep axes.

A change that moves any digest on purpose says why in CHANGES.md and
updates the value here.
"""

import hashlib
import io

import pytest

import powershave as ps

from conftest import STRATEGIES, strategy_spec

TRACE_CSV = "eb6500b37fb0f5b584f25575afd6675c794ad4dbc12beecb3f9e6a6fabea5548"
GRID_CSV = "53dddf34d5b92dc2fad0abb2657635f07bc5a02bb16d6e05a67580fb88fd453a"
COMPARISON_CSV = "f9e179d90cb972fc83abce546f1c534374c9b64aa22bc2d12eb79b263f48360b"

# strategy: (shaving.csv, shaving_summary.json)
SHAVING = {
    "none": ("3f0c6aa32671779a0ecaa55cad4bee86a86a635a29cccb9e09fa744b4cd63878",
             "2693dfcf202296038c31e70e7ac5ca6c4c232d99639312b7b415479b6b376674"),
    "capacitor": ("4fb922d133ef8b40e548df2a4892600505431592f4558f81874a1eecb0d5d3d3",
                  "605020e11b6a33ef160cb5e69d1a0807f9f7e7a84d4d603ec780d7ae6787c57d"),
    "supercap": ("a017dfbf1a91c0d0664ee9a743d8dc40611fe03f30a205e6b4474ac361c3087d",
                 "0de841f4395e46967861878022efba97bd080c508a24c010b22d17f0cbc6ad1c"),
    "battery": ("6003e066c5d9c9d751969cf3603af97d186ba4311b7f1f1403d715068339a8bb",
                "30e5754429eac40ad0ef99dd31e65165e1988338b0180e4e08de31e65fa4dc86"),
    "ideal": ("9602caf5ead191d4067b9f37142afb4837c8902d13d1ce248402881be6b0d237",
              "cc2fccfb17380143bc465f7a4f589a73c1f1b152f583ff6b92742fa5305634c7"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render(writer, *args) -> str:
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


def test_trace_csv_digest(short_trace_text):
    assert _sha256(short_trace_text) == TRACE_CSV


@pytest.mark.parametrize("name", STRATEGIES)
def test_shaving_digests(short_results, name):
    result = short_results[name]
    got = (_sha256(_render(ps.write_result_csv, result)),
           _sha256(_render(ps.write_result_summary_json, result)))
    assert got == SHAVING[name]


def test_comparison_csv_digest(short_trace):
    rows = ps.compare_strategies(
        short_trace, [(name, strategy_spec(name)) for name in STRATEGIES],
        ps.SimConfig())
    assert _sha256(_render(ps.write_comparison_csv, rows)) == COMPARISON_CSV


def test_grid_csv_digest(short_trace):
    grid = ps.sweep_gpus_saved(short_trace)
    assert _sha256(ps.export_grid(grid, "csv")) == GRID_CSV
