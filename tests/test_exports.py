"""The package's public surface: `__all__` names exactly what it exports, and
every function the benchmark tracer wraps by name still exists and is called."""

import importlib
from pathlib import Path

import deepmatch
from deepmatch.experiments import EXPERIMENTS, run_propensity


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


def test_propensity_run_calls_the_traced_fitters(monkeypatch, tmp_path):
    # A wrapper on a name the pipeline does not look up records no span,
    # and its layer reads 0 however long the work takes.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    cfg = EXPERIMENTS["propensity"].parse(
        {"dataset": {"n_pairs": 200}, "methods": ["logistic", "propensity_net"]}
    )
    tracer.install()
    try:
        run_propensity(cfg, tmp_path / "out")
    finally:
        tracer.restore()
    fits = [end - start for name, start, end, *_ in tracer.spans
            if name == "propensity.fit_logistic"]
    assert len(fits) == 1 and fits[0] > 0
    assert any(name == "network.optimizer" for name, *_ in tracer.spans)
