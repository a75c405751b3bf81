"""The package's public names: each module lists its own, once.  The data
files the package reads ship with it."""

import fnmatch
import importlib
from pathlib import Path

import pytest

import powershave as ps

from conftest import PACKAGE_ROOT

MODULES = ("trace", "spikes", "devices", "shaving", "sweep")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_all_is_the_union_of_the_module_lists():
    assert len(ps.__all__) == len(set(ps.__all__))
    modules = [importlib.import_module(f"powershave.{name}") for name in MODULES]
    assert set(ps.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(ps, name) is getattr(module, name), name


def test_package_data_globs_cover_every_file_the_package_reads():
    # import powershave reads data/default_synth.json, and each builtin
    # device name reads data/<name>.json; an install leaves out any file
    # that no package-data glob matches.
    tomllib = pytest.importorskip("tomllib")      # Python 3.11 on
    with open(PYPROJECT, "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["powershave"]
    read = ["data/default_synth.json"] + [f"data/{name}.json"
                                          for name in ps.BUILTIN_DEVICE_NAMES]
    for name in read:
        assert (Path(PACKAGE_ROOT) / "powershave" / name).is_file(), name
        assert any(fnmatch.fnmatch(name, glob) for glob in globs), name
