"""The package's public surface: `__all__` names exactly what it exports, and
every function the benchmark tracer wraps by name still exists."""

import importlib
from pathlib import Path

import deepmatch


def test_all_names_resolve_once_and_star_import_works():
    names = deepmatch.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(deepmatch, n)] == []
    namespace = {}
    exec("from deepmatch import *", namespace)
    assert set(names) <= namespace.keys()


def test_every_traced_target_resolves(monkeypatch):
    # The benchmark tracer swaps functions by module and attribute name; a
    # renamed or deleted target would silently leave its layer reading 0.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for module_name, path, *_ in tracing.TRACED:
        owner, attr = tracing._resolve(module_name, path)
        if attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
