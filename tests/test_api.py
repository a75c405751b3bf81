"""The package's public names: each module lists its own, once."""

import importlib

import powershave as ps

MODULES = ("trace", "spikes", "devices", "shaving", "sweep")


def test_all_is_the_union_of_the_module_lists():
    assert len(ps.__all__) == len(set(ps.__all__))
    modules = [importlib.import_module(f"powershave.{name}") for name in MODULES]
    assert set(ps.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(ps, name) is getattr(module, name), name
