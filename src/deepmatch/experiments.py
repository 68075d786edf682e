"""Reproducible experiment pipelines: config parsing, runs, and report files.

Each run_* function takes a run record and an output directory, executes
the pipeline stage by stage, and only then, in one last `write` stage,
writes reports.json, comparison.csv, the plot-data CSVs, and a fully
resolved copy of its config; a failed stage writes nothing. Configs are
strict JSON, read through one field table per experiment: unknown keys,
wrong types, non-finite numbers and out-of-bound values are rejected with
the path of the offending value, so a typo cannot silently fall back to a
default, and the resolved file parses back to the identical config. A run
record built in Python is held to the same kinds and bounds when it is built.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import (
    SwissRollConfig,
    count,
    duplicate_twins,
    gen_propensity_pairs,
    gen_swiss_roll,
    real,
    train_test_split,
)
from .embedding import fit_autoencoder, fit_identity, fit_lle, fit_pca
from .gradcheck import default_grid, run_case
# estimate_effects has no caller here: only the benchmark tracer resolves this name,
# until it stops wrapping it.
from .matching import estimate_effects, estimate_effects_pooled, propensity_match
from .metrics import (
    REFERENCE_MISASSIGNMENT,
    EffectReport,
    ite_error,
    misassignment_report,
    threshold_labels,
)
from .network import TrainConfig
from .propensity import MODEL_KINDS, PropensityFitConfig
from .propensity import fit as fit_propensity

CONFIG_VERSION = 1

# Derived seed substreams: the dataset draw, the train/test split and the
# network training must not share a generator, or changing one would silently
# reshuffle the others. Propensity still shares one: its run seed draws the
# dataset, and `propensity.fit` takes it for the split and the dense classifier.
SPLIT_SEED_OFFSET = 1000
TRAIN_SEED_OFFSET = 2000

SWISSROLL_METHODS = ("raw_knn", "pca", "lle", "autoencoder")
SWISSROLL_COVARIATES = 3  # the columns gen_swiss_roll draws: a point on the roll

# Column labels of the misassignment comparison table, kept verbatim.
PROPENSITY_TABLE_COLUMNS = (
    "Mean absolute misclassification error(%)",
    "Number of mis-assignments (%)",
    "Accuracy(%)",
)


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _value(kind, v, where: str):
    """Type-check a raw value: kind is int, float, bool, str, or [item] / [item, length]."""
    if isinstance(kind, list):
        item, *length = kind
        if not isinstance(v, list) or length not in ([], [len(v)]):
            raise ConfigError(f"{where} must be a list" + "".join(f" of {n} values" for n in length))
        return tuple(_value(item, e, f"{where}[{i}]") for i, e in enumerate(v))
    if kind is float:
        # abs(v) <= max is false for NaN, the infinities and ints too large for a float.
        ok = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
    else:
        ok = isinstance(v, kind)
    if not ok or (isinstance(v, bool) and kind is not bool):
        raise ConfigError(f"{where} must be {_KIND_NAMES[kind]}, got {v!r}")
    return float(v) if kind is float else v


def _rule(rule, **interval):
    """A bound that holds the value, or each entry of a list value, to `data`'s
    `count` or `real` with `interval`, named by its path, as a ConfigError."""

    def check(value, where):
        for v in value if isinstance(value, tuple) else (value,):
            try:
                rule(v, where, **interval)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    return check


def _methods(allowed):
    def check(names, where):
        if not names:
            raise ConfigError(f"{where} must be a non-empty list")
        for name in names:
            if name not in allowed:
                raise ConfigError(f"{where}: unknown method {name!r} (choose from {list(allowed)})")
        if len(set(names)) != len(names):
            raise ConfigError(f"{where}: duplicate methods")

    return check


class Field(NamedTuple):
    """One settable config value.

    `path` is its place in the document, "key" or "section.key"; `kind` is
    its JSON type (see `_value`). `bound` checks the typed value, and is
    given only where no nested domain dataclass checks the value. The run
    dataclass applies both whenever a record is built, parsed or not. `attr`
    is the run attribute the value sets (default: the path); "a.b" sets
    field b of the nested domain dataclass a, whose own checks then apply.
    """

    path: str
    kind: object
    bound: Callable | None = None
    attr: str = ""


def _check_bounds(run, table) -> None:
    """Hold each field of `table` in the run record to its kind, as `parse` does, and bound.

    A tuple is read as the JSON list it resolves to; a list would not parse
    back equal, so it is refused. A NaN gets its bound's message.
    """
    for f in table:
        where = f"config.{f.path}"
        value = attrgetter(f.attr or f.path)(run)
        if isinstance(value, list):
            raise ConfigError(f"{where} must be a tuple, got {value!r}")
        try:
            _value(f.kind, list(value) if isinstance(value, tuple) else value, where)
        except ConfigError:
            if f.bound is not None and isinstance(value, float):
                f.bound(value, where)
            raise
        if f.bound is not None:
            f.bound(value, where)


def _set(obj, attr: str, value):
    """`dataclasses.replace` through a dotted attribute path."""
    head, _, rest = attr.partition(".")
    return replace(obj, **{head: _set(getattr(obj, head), rest, value) if rest else value})


def _require_object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    return doc


@dataclass(frozen=True)
class Experiment:
    """One experiment behind the CLI: its config table, pipeline and summary.

    `defaults` is the run dataclass, whose field defaults are the config
    defaults. `run(cfg, out_dir, force)` executes the pipeline and
    `summary(cfg, result)` returns the report lines and whether it passed.
    """

    name: str
    description: str
    defaults: type
    fields: tuple
    run: Callable
    summary: Callable

    def parse(self, doc, seed_override: int | None = None):
        """Validate a config document; absent keys keep their defaults."""
        doc = _require_object(doc, "config")
        for key, expected in (("version", CONFIG_VERSION), ("experiment", self.name)):
            # the type check keeps true and 1.0 from passing as the integer 1
            value = doc.get(key, expected)
            if type(value) is not type(expected) or value != expected:
                raise ConfigError(f"config.{key} must be {expected!r}, got {doc[key]!r}")
        if seed_override is not None:
            doc = {**doc, "seed": seed_override}
        sections = {f.path.partition(".")[0] for f in self.fields if "." in f.path}
        flat = {}
        for key, value in doc.items():
            if key in sections:
                for sub, v in _require_object(value, f"config.{key}").items():
                    flat[f"{key}.{sub}"] = v
            elif key not in ("version", "experiment"):
                flat[key] = value
        unknown = sorted(set(flat) - {f.path for f in self.fields})
        if unknown:
            raise ConfigError(f"config.{unknown[0]}: unknown key")
        cfg = self.defaults()
        for f in self.fields:
            if f.path not in flat:
                continue
            where = f"config.{f.path}"
            value = _value(f.kind, flat[f.path], where)
            try:
                cfg = _set(cfg, f.attr or f.path, value)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        return cfg

    def resolve(self, cfg) -> dict:
        """The complete config document of `cfg`; parse(resolve(cfg)) == cfg."""
        doc = {"version": CONFIG_VERSION, "experiment": self.name}
        for f in self.fields:
            head, _, key = f.path.rpartition(".")
            value = attrgetter(f.attr or f.path)(cfg)
            section = doc.setdefault(head, {}) if head else doc
            section[key] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass(frozen=True)
class SwissRollRun:
    seed: int = 0
    dataset: SwissRollConfig = SwissRollConfig()
    methods: tuple = SWISSROLL_METHODS
    test_fraction: float = 0.2
    k_matches: int = 1
    embed_dim: int = 2
    twin_mode: bool = False
    autoencoder: TrainConfig = TrainConfig(epochs=400, batch_size=32)
    ae_hidden: tuple = ()
    lle_neighbors: int = 10
    lle_reg: float = 1e-3

    def __post_init__(self):
        _check_bounds(self, SWISSROLL_FIELDS)


SWISSROLL_FIELDS = (
    Field("seed", int, _rule(count, least=0)),
    # Bounded by SwissRollConfig.
    Field("dataset.n", int),
    Field("dataset.noise_sigma", float),
    Field("dataset.coeff_control", [float, 3]),
    Field("dataset.coeff_treated", [float, 3]),
    Field("dataset.outcome_noise_sigma", float),
    Field("dataset.p_treat", float),
    Field("methods", [str], _methods(SWISSROLL_METHODS)),
    Field("test_fraction", float, _rule(real, above=0, below=1)),
    Field("k_matches", int, _rule(count, least=1)),
    Field("embed_dim", int, _rule(count, least=1)),
    Field("twin_mode", bool),
    # Bounded by TrainConfig.
    Field("autoencoder.epochs", int),
    Field("autoencoder.batch_size", int),
    Field("autoencoder.hidden", [int], _rule(count, least=1), "ae_hidden"),
    Field("lle.k_neighbors", int, _rule(count, least=1), "lle_neighbors"),
    Field("lle.reg", float, _rule(real, above=0), "lle_reg"),
)


@dataclass(frozen=True)
class PropensityRun:
    seed: int = 0
    n_pairs: int = 1000
    jitter_sigma: float = 0.02
    methods: tuple = MODEL_KINDS
    include_outcome: bool = False
    query_arm: int = 1
    threshold: float = 0.5
    fit: PropensityFitConfig = PropensityFitConfig()

    def __post_init__(self):
        _check_bounds(self, PROPENSITY_FIELDS)


PROPENSITY_FIELDS = (
    Field("seed", int, _rule(count, least=0)),
    Field("dataset.n_pairs", int, _rule(count, least=2), "n_pairs"),
    Field("dataset.jitter_sigma", float, _rule(real, above=0), "jitter_sigma"),
    Field("methods", [str], _methods(MODEL_KINDS)),
    # Bounded by PropensityFitConfig and its TrainConfig, as are net.* and logistic.*.
    Field("test_fraction", float, attr="fit.test_fraction"),
    Field("include_outcome", bool),
    Field("query_arm", int, _rule(count, least=0, most=1)),
    Field("threshold", float, _rule(real, above=0, below=1)),
    Field("net.epochs", int, attr="fit.net.epochs"),
    Field("net.batch_size", int, attr="fit.net.batch_size"),
    Field("logistic.l2", float, attr="fit.l2"),
    Field("logistic.max_iter", int, attr="fit.max_iter"),
    Field("logistic.grad_tol", float, attr="fit.grad_tol"),
)


@dataclass(frozen=True)
class GradcheckRun:
    seed: int = 0
    count: int = 24
    step: float = 1e-5
    tolerance: float = 1e-4
    corrupt: bool = False

    def __post_init__(self):
        _check_bounds(self, GRADCHECK_FIELDS)


GRADCHECK_FIELDS = (
    Field("seed", int, _rule(count, least=0)),
    Field("count", int, _rule(count, least=1)),
    Field("step", float, _rule(real, above=0)),
    Field("tolerance", float, _rule(real, above=0)),
    Field("corrupt", bool),
)


def prepare_out_dir(out_dir, force: bool = False) -> Path:
    """Create the output directory; refuse to reuse a non-empty one without force."""
    path = Path(out_dir)
    if path.exists():
        if not path.is_dir():
            raise ConfigError(f"output path {path} exists and is not a directory")
        if any(path.iterdir()) and not force:
            raise ConfigError(f"output directory {path} is not empty (pass force to overwrite)")
    else:
        path.mkdir(parents=True)
    return path


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header, columns) -> None:
    # the whole table is one %-format; "%s" % v is str(v) for every value
    lists = [np.asarray(c).tolist() for c in columns]
    row = ",".join(["%s"] * len(lists)) + "\n"
    body = row * (len(lists[0]) if lists else 0) % tuple(chain.from_iterable(zip(*lists)))
    path.write_text(",".join(header) + "\n" + body)


# The per-method files of every experiment: a forced rerun removes those it did not write.
_METHOD_FILES = {f"embedding_{m}.csv" for m in SWISSROLL_METHODS} | {
    f"matched_pairs_{m}.csv" for m in MODEL_KINDS}


def _publish(out: Path, name: str, cfg, reports: dict, tables: dict) -> None:
    """Write a finished run: each of `tables`, file name to (header, columns),
    as a CSV, reports.json (`reports` plus the experiment name and seed) and
    resolved_config.json; then remove the `_METHOD_FILES` it did not write."""
    for file_name, (header, columns) in tables.items():
        _write_csv(out / file_name, header, columns)
    _write_json(out / "reports.json", {"experiment": name, "seed": cfg.seed, **reports})
    _write_json(out / "resolved_config.json", EXPERIMENTS[name].resolve(cfg))
    for file_name in _METHOD_FILES - tables.keys():
        (out / file_name).unlink(missing_ok=True)


def _fit_embedder(method: str, x_train: np.ndarray, cfg: SwissRollRun):
    if method == "raw_knn":
        return fit_identity(x_train)
    if method == "pca":
        return fit_pca(x_train, cfg.embed_dim)
    if method == "lle":
        return fit_lle(x_train, cfg.embed_dim, k_neighbors=cfg.lle_neighbors, reg=cfg.lle_reg)
    if method == "autoencoder":
        return fit_autoencoder(x_train, cfg.embed_dim, cfg.autoencoder, cfg.ae_hidden,
                               seed=cfg.seed + TRAIN_SEED_OFFSET)
    raise ValueError(f"unknown method {method!r}")


def _check_dimensions(cfg: SwissRollRun) -> None:
    """Bounds between values that fail a fit on any draw, checked before the output
    directory is made, not when a record is built: `parse` sets one value at a time.
    Data-dependent bounds stay stage errors, which write nothing."""
    d = SWISSROLL_COVARIATES
    for method, limit in (("pca", d), ("lle", d - 1), ("autoencoder", d - 1)):
        if method in cfg.methods and cfg.embed_dim > limit:
            raise ConfigError(f"config.embed_dim must be <= {limit} for {method} (the swiss "
                              f"roll has {d} covariates), got {cfg.embed_dim}")
    if "lle" in cfg.methods and cfg.lle_neighbors < cfg.embed_dim + 1:
        raise ConfigError(f"config.lle.k_neighbors must be >= embed_dim + 1 = "
                          f"{cfg.embed_dim + 1} for lle, got {cfg.lle_neighbors}")


def run_swissroll(cfg: SwissRollRun, out_dir, force: bool = False) -> list:
    """Embed, match and score each method; write reports and plot data.

    In twin mode every unit is both a query and in the pool, which the fit
    sees whole (a split could strand a unit's clone outside the pool, and
    the mode exists to verify exact recovery); its split label reads "all".
    """
    _check_dimensions(cfg)
    out = prepare_out_dir(out_dir, force)
    with _stage("dataset"):
        ds = gen_swiss_roll(cfg.dataset, cfg.seed)
        if cfg.twin_mode:
            ds = duplicate_twins(ds)
    train_idx = test_idx = slice(None)  # twin mode's views: they copy no rows
    if not cfg.twin_mode:
        with _stage("split"):
            train_idx, test_idx = train_test_split(
                ds.n_units, cfg.test_fraction, cfg.seed + SPLIT_SEED_OFFSET
            )
    test_mask = np.zeros(ds.n_units, dtype=bool)
    test_mask[test_idx] = True
    # object labels: one str per value, not per unit, in the array and its CSV's list
    labels = np.array(["train", "all" if cfg.twin_mode else "test"], dtype=object)
    split_label = labels[test_mask.astype(np.intp)]

    reports = []
    tables = {}
    for method in cfg.methods:
        with _stage(f"fit:{method}"):
            embedder = _fit_embedder(method, ds.x[train_idx], cfg)
        with _stage(f"embed:{method}"):
            z = embedder.transform(ds.x)
        with _stage(f"match:{method}"):
            est = estimate_effects_pooled(z[test_idx], ds.w[test_idx], ds.y_obs[test_idx],
                                          z[train_idx], ds.w[train_idx], ds.y_obs[train_idx],
                                          k=cfg.k_matches)
        with _stage(f"report:{method}"):
            reports.append(ite_error(est, ds.truth, test_mask, method=method, seed=cfg.seed))
        tables[f"embedding_{method}.csv"] = (
            ["index", "split", "group", "w"] + [f"z{j+1}" for j in range(z.shape[1])],
            (np.arange(ds.n_units), split_label, ds.truth.group, ds.w, *z.T),
        )

    with _stage("write"):
        rows = [asdict(r) for r in reports]
        keys = [f.name for f in fields(EffectReport)]
        tables["comparison.csv"] = (keys, [[r[k] for r in rows] for k in keys])
        _publish(out, "swissroll", cfg, {"reports": rows}, tables)
    return reports


def run_propensity(cfg: PropensityRun, out_dir, force: bool = False) -> list:
    """Score with each model, match on scores, compare against pair truth."""
    out = prepare_out_dir(out_dir, force)
    with _stage("dataset"):
        ds = gen_propensity_pairs(cfg.n_pairs, cfg.jitter_sigma, seed=cfg.seed)
    with _stage("features"):
        if cfg.include_outcome:
            features = np.column_stack([ds.x, ds.y_obs])
        else:
            features = ds.x

    reports = []
    tables = {}
    for method in cfg.methods:
        with _stage(f"fit:{method}"):
            model, test_idx = fit_propensity(method, features, ds.w, cfg.fit, seed=cfg.seed)
        with _stage(f"score:{method}"):
            scores = model.predict(features)
        with _stage(f"match:{method}"):
            queries, matched = propensity_match(scores, ds.w, query_arm=cfg.query_arm)
        with _stage(f"report:{method}"):
            reports.append(
                misassignment_report(
                    queries,
                    matched,
                    ds.truth.pair_index,
                    threshold_labels(scores[test_idx], cfg.threshold),
                    ds.w[test_idx],
                    method=method,
                    seed=cfg.seed,
                )
            )
        tables[f"matched_pairs_{method}.csv"] = (
            ["query_index", "score", "x1", "x2", "y_obs", "matched_index", "matched_score", "pair_index"],
            (queries, scores[queries], ds.x[queries, 0], ds.x[queries, 1], ds.y_obs[queries],
             matched, scores[matched], ds.truth.pair_index[queries]),
        )

    with _stage("write"):
        rows = [asdict(r) for r in reports]
        keys = ("method", "mean_abs_misassignment_error_pct", "misassignment_rate_pct", "accuracy_pct")
        tables["comparison.csv"] = (
            ["method", *PROPENSITY_TABLE_COLUMNS], [[r[k] for r in rows] for k in keys]
        )
        reference = {
            name: dict(zip(PROPENSITY_TABLE_COLUMNS, values))
            for name, values in REFERENCE_MISASSIGNMENT.items()
        }
        _publish(out, "propensity", cfg, {"reports": rows, "reference": reference}, tables)
    return reports


def run_gradcheck(cfg: GradcheckRun, out_dir, force: bool = False):
    """Finite-difference gradient audit over the documented layer-spec grid.

    Returns (case results, all_pass). The corrupt flag is the negative
    control: it perturbs one analytic gradient entry so the audit must fail.
    """
    out = prepare_out_dir(out_dir, force)
    with _stage("grid"):
        cases = default_grid(count=cfg.count, seed=cfg.seed)
    results = []
    with _stage("gradcheck"):
        for case in cases:
            err = run_case(case, step=cfg.step, corrupt=cfg.corrupt)
            results.append(
                {
                    "name": case.name,
                    "max_relative_error": float(err),
                    "pass": bool(err < cfg.tolerance),
                }
            )
    all_pass = all(r["pass"] for r in results)
    with _stage("write"):
        keys = ("name", "max_relative_error", "pass")
        table = (keys, [[r[k] for r in results] for k in keys])
        # strict JSON has no inf: reports.json writes a non-finite error as null
        cases = [r if np.isfinite(r["max_relative_error"]) else {**r, "max_relative_error": None}
                 for r in results]
        reports = {"tolerance": cfg.tolerance, "all_pass": all_pass, "cases": cases}
        _publish(out, "gradcheck", cfg, reports, {"comparison.csv": table})
    return results, all_pass


def _report_lines(template: str):
    """A summary of one line per report record, formatted from its fields."""
    return lambda cfg, reports: ([template.format(**asdict(r)) for r in reports], True)


def _gradcheck_summary(cfg: GradcheckRun, result):
    results, all_pass = result
    worst = max(r["max_relative_error"] for r in results)
    n_ok = sum(1 for r in results if r["pass"])
    return [
        f"gradcheck seed={cfg.seed}: {n_ok}/{len(results)} cases passed "
        f"(worst {worst:.3g}, tolerance {cfg.tolerance:g})"
    ], all_pass


EXPERIMENTS = {
    e.name: e
    for e in (
        Experiment(
            "swissroll", "embed, match and score ITE recovery per method",
            SwissRollRun, SWISSROLL_FIELDS, run_swissroll,
            _report_lines(
                "swissroll seed={seed} {method}: mean_abs_ite_error={mean_abs_ite_error:.6g} "
                "ate_error={ate_error:.6g} n_test={n_test}"
            ),
        ),
        Experiment(
            "propensity", "score, match and compare logistic vs the dense classifier",
            PropensityRun, PROPENSITY_FIELDS, run_propensity,
            _report_lines(
                "propensity seed={seed} {method}: error={mean_abs_misassignment_error_pct:.2f}% "
                "rate={misassignment_rate_pct:.2f}% accuracy={accuracy_pct:.2f}%"
            ),
        ),
        Experiment(
            "gradcheck", "finite-difference audit of the network gradients",
            GradcheckRun, GRADCHECK_FIELDS, run_gradcheck, _gradcheck_summary,
        ),
    )
}

parse_swissroll = EXPERIMENTS["swissroll"].parse
parse_propensity = EXPERIMENTS["propensity"].parse
