"""The package's public names: each module lists its own, once, and the
README's package table names them.  The data files the package reads ship
with it.  Only _textio names the UTF-8 codec, and the private names one
module takes from another are pinned."""

import ast
import fnmatch
import importlib
from pathlib import Path

import pytest

import powershave as ps

from conftest import PACKAGE_ROOT

MODULES = ("trace", "spikes", "devices", "shaving", "sweep")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_only_textio_names_the_utf8_codec():
    # write_text and read_blocks are the one UTF-8 encoder and decoder: no
    # other module of the package holds the codec's name as a string.
    def names_utf8(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value.lower().replace("_", "-") in ("utf-8", "utf8")
                   for node in ast.walk(tree))

    modules = sorted((Path(PACKAGE_ROOT) / "powershave").glob("*.py"))
    assert len(modules) > 5
    assert [path.name for path in modules if names_utf8(path)] == ["_textio.py"]


def test_json_codec_lives_in_textio_and_the_cli_digest():
    # read_config and write_json are the one JSON reader and writer; the
    # only other use is the CLI's compact dump (_write_compact_json).  A
    # second reader or writer is an edit here.
    uses = set()
    for path in sorted((Path(PACKAGE_ROOT) / "powershave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                uses.update((path.stem, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "json"):
                uses.add((path.stem, node.attr))
    assert uses == {("_textio", "dumps"), ("_textio", "loads"),
                    ("_textio", "JSONDecodeError"), ("cli", "dumps")}


def test_readme_package_table_names_each_modules_public_names():
    rows = {line.split("|")[1].strip(): line for line in
            README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `powershave.")}
    for name in MODULES:
        row = rows[f"`powershave.{name}`"]
        missing = [entry for entry in importlib.import_module(f"powershave.{name}").__all__
                   if f"`{entry}`" not in row]
        assert missing == [], name


# (module, sibling.name) of every private name that a package module
# imports from a sibling: a new coupling is an edit here.
PRIVATE_IMPORTS = {
    ("shaving", "spikes._runs_above"),
    ("sweep", "spikes._runs_above"),
    ("sweep", "shaving._check_gpu_unit_w"),
    ("sweep", "shaving._gain_pct"),
    ("sweep", "shaving._units"),
    ("cli", "sweep._check_axes"),
}


def test_private_names_taken_from_sibling_modules_are_pinned():
    taken = set()
    for path in sorted((Path(PACKAGE_ROOT) / "powershave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                taken.update((path.stem, f"{node.module}.{alias.name}")
                             for alias in node.names if alias.name.startswith("_"))
    assert taken == PRIVATE_IMPORTS
