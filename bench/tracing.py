"""Pass-through timing wrappers around deepmatch's public functions.

A `Tracer` replaces a function on the module or class attribute its caller
looks it up through (`deepmatch.embedding.symmetric_eigh` for `fit_lle`,
`deepmatch.experiments.fit_lle` for the swissroll pipeline, and so on) with
a wrapper that records one span per call: name, start, end, and the index
of the enclosing span. Wrappers return whatever the original returns and
re-raise whatever it raises; `restore` puts every original back.

`layer_metrics` turns one sample's spans into the per-layer metrics. A
`<layer>_s` metric is the summed duration of that layer's calls, children
included; `experiments.self_s` is the run span minus its direct children
(file writing and glue). A layer the workload never calls reads 0.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time

import numpy as np


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _eigh_order(args, kwargs):
    return {"n": int(np.asarray(args[0]).shape[0])}


def _effects_work(args, kwargs):
    # estimate_effects(z, w, y, ...): every unit queries the opposite arm of
    # the same set. estimate_effects_pooled(zq, wq, yq, zp, wp, yp, ...):
    # each query scans the opposite arm of the pool.
    if len(args) >= 6:
        wq, wp = np.asarray(args[1]), np.asarray(args[4])
    else:
        wq = wp = np.asarray(args[1])
    q1, p1 = int(np.sum(wq == 1)), int(np.sum(wp == 1))
    q0, p0 = wq.shape[0] - q1, wp.shape[0] - p1
    return {"queries": wq.shape[0], "distances": q1 * p0 + q0 * p1}


def _score_queries(args, kwargs):
    arm = kwargs.get("query_arm", args[2] if len(args) > 2 else 1)
    return {"queries": int(np.sum(np.asarray(args[1]) == arm))}


def _transform_name(args):
    return "embedding.transform." + args[0].kind


# (module, attribute path, span name, info hook, record max-RSS growth)
TRACED = (
    ("deepmatch.experiments", "run_swissroll", "experiments.run", None, False),
    ("deepmatch.experiments", "run_propensity", "experiments.run", None, False),
    ("deepmatch.experiments", "gen_swiss_roll", "data.generate", None, False),
    ("deepmatch.experiments", "duplicate_twins", "data.generate", None, False),
    ("deepmatch.experiments", "gen_propensity_pairs", "data.generate", None, False),
    ("deepmatch.experiments", "train_test_split", "data.split", None, False),
    ("deepmatch.propensity", "train_test_split", "data.split", None, False),
    ("deepmatch.experiments", "fit_pca", "embedding.fit_pca", None, False),
    ("deepmatch.experiments", "fit_lle", "embedding.fit_lle", None, True),
    ("deepmatch.experiments", "fit_autoencoder", "embedding.fit_autoencoder", None, False),
    ("deepmatch.embedding", "lle_weight_matrix", "embedding.lle_weights", None, False),
    ("deepmatch.embedding", "symmetric_eigh", "linalg.eigh", _eigh_order, False),
    ("deepmatch.embedding", "Embedder.transform", _transform_name, None, False),
    ("deepmatch.embedding", "train", "network.train", None, False),
    ("deepmatch.propensity", "train", "network.train", None, False),
    ("deepmatch.network", "Network.forward", "network.forward", None, False),
    ("deepmatch.network", "Network.backward", "network.backward", None, False),
    ("deepmatch.network", "Network.loss", "network.loss", None, False),
    ("deepmatch.network", "adadelta_step", "network.optimizer", None, False),
    ("deepmatch.network", "sgd_step", "network.optimizer", None, False),
    ("deepmatch.experiments", "estimate_effects", "matching.effects", _effects_work, False),
    ("deepmatch.experiments", "estimate_effects_pooled", "matching.effects", _effects_work, False),
    ("deepmatch.experiments", "propensity_match", "matching.score_match", _score_queries, True),
    ("deepmatch.propensity", "fit_logistic", "propensity.fit_logistic", None, False),
    ("deepmatch.propensity", "LogisticModel.predict", "propensity.predict", None, False),
    ("deepmatch.experiments", "ite_error", "metrics.report", None, False),
    ("deepmatch.experiments", "misassignment_report", "metrics.report", None, False),
)

EMBEDDER_KINDS = ("identity", "pca", "lle", "autoencoder")

# Per-layer metric names and units, in the order BENCHMARK.json declares them.
# The quality metrics at the end come from reports.json, not from spans.
LAYER_UNITS = {
    "network.train_s": "s",
    "network.train_steps": "count",
    "network.step_us": "us",
    "network.forward_s": "s",
    "network.backward_s": "s",
    "network.loss_s": "s",
    "network.optimizer_s": "s",
    "embedding.fit_autoencoder_s": "s",
    "embedding.fit_lle_s": "s",
    "embedding.lle_weights_s": "s",
    "embedding.fit_lle_rss_growth_mb": "MiB",
    "linalg.eigh_s": "s",
    "linalg.eigh_n": "count",
    **{f"embedding.transform_s.{kind}": "s" for kind in EMBEDDER_KINDS},
    "embedding.fit_pca_s": "s",
    "matching.effects_s": "s",
    "matching.effect_queries": "count",
    "matching.distance_evals": "count",
    "matching.ns_per_distance": "ns",
    "matching.score_match_s": "s",
    "matching.score_queries": "count",
    "matching.score_match_rss_growth_mb": "MiB",
    "propensity.fit_logistic_s": "s",
    "propensity.predict_s": "s",
    "data.generate_s": "s",
    "data.split_s": "s",
    "metrics.report_s": "s",
    "experiments.self_s": "s",
    "experiments.bytes_written": "B",
    "trace.overhead_s": "s",
}

QUALITY_UNITS = {
    **{f"metrics.ite_mae.{m}": "abs_ite" for m in ("raw_knn", "pca", "lle", "autoencoder")},
    "metrics.misassign_pct.logistic": "%",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans from pass-through wrappers; `restore` removes them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, info dict]
        self._open: list = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, path, name, info, rss in TRACED:
            try:
                owner, attr = _resolve(module_name, path)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                print(f"trace: {module_name}.{path} not found; its layer reads 0",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self._wrapper(original, name, info, rss))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, info, rss):
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = info(args, kwargs) if info is not None else {}
            if rss:
                before = _maxrss_mib()
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if rss:
                    extra["rss_growth_mb"] = _maxrss_mib() - before

        return traced


def layer_metrics(spans: list, bytes_written: int) -> dict:
    """Per-layer values of one traced sample (trace.overhead_s excluded)."""
    total: dict = {}
    calls: dict = {}
    info: dict = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
        for key, value in extra.items():
            info[(name, key)] = info.get((name, key), 0) + value

    def t(name):
        return total.get(name, 0.0)

    run_self = sum(
        (end - start) - child_time[i]
        for i, (name, start, end, _, _) in enumerate(spans)
        if name == "experiments.run"
    )
    steps = calls.get("network.optimizer", 0)
    distances = info.get(("matching.effects", "distances"), 0)
    eigh_orders = [extra["n"] for name, _, _, _, extra in spans if name == "linalg.eigh"]
    return {
        "network.train_s": t("network.train"),
        "network.train_steps": steps,
        "network.step_us": 1e6 * t("network.train") / steps if steps else 0.0,
        "network.forward_s": t("network.forward"),
        "network.backward_s": t("network.backward"),
        "network.loss_s": t("network.loss"),
        "network.optimizer_s": t("network.optimizer"),
        "embedding.fit_autoencoder_s": t("embedding.fit_autoencoder"),
        "embedding.fit_lle_s": t("embedding.fit_lle"),
        "embedding.lle_weights_s": t("embedding.lle_weights"),
        "embedding.fit_lle_rss_growth_mb": info.get(("embedding.fit_lle", "rss_growth_mb"), 0.0),
        "linalg.eigh_s": t("linalg.eigh"),
        "linalg.eigh_n": max(eigh_orders, default=0),
        **{f"embedding.transform_s.{k}": t(f"embedding.transform.{k}") for k in EMBEDDER_KINDS},
        "embedding.fit_pca_s": t("embedding.fit_pca"),
        "matching.effects_s": t("matching.effects"),
        "matching.effect_queries": info.get(("matching.effects", "queries"), 0),
        "matching.distance_evals": distances,
        "matching.ns_per_distance": 1e9 * t("matching.effects") / distances if distances else 0.0,
        "matching.score_match_s": t("matching.score_match"),
        "matching.score_queries": info.get(("matching.score_match", "queries"), 0),
        "matching.score_match_rss_growth_mb": info.get(
            ("matching.score_match", "rss_growth_mb"), 0.0
        ),
        "propensity.fit_logistic_s": t("propensity.fit_logistic"),
        "propensity.predict_s": t("propensity.predict"),
        "data.generate_s": t("data.generate"),
        "data.split_s": t("data.split"),
        "metrics.report_s": t("metrics.report"),
        "experiments.self_s": run_self,
        "experiments.bytes_written": bytes_written,
    }
