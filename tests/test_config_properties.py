"""Property tests of the config layer: round trips and single-fault rejection.

The valid ranges below are written out independently of the field tables in
`deepmatch.experiments`, so a bound that drifts in either place shows up.
"""

import copy
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepmatch.experiments import (
    EXPERIMENTS,
    SWISSROLL_METHODS,
    ConfigError,
    parse_propensity,
    parse_swissroll,
)
from deepmatch.propensity import MODEL_KINDS as PROPENSITY_METHODS

PROPERTY_SETTINGS = settings(max_examples=30, derandomize=True, database=None, deadline=None)


def real(lo, hi, open_low=False, open_high=False):
    return st.floats(lo, hi, exclude_min=open_low, exclude_max=open_high)


def methods(names):
    return st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)


SEED = st.integers(0, 2**32)
COEFFS = st.lists(real(-1e3, 1e3), min_size=3, max_size=3)

VALID = {
    "swissroll": (
        parse_swissroll,
        EXPERIMENTS["swissroll"].resolve,
        {
            "seed": SEED,
            "dataset.n": st.integers(2, 10**6),
            "dataset.noise_sigma": real(0.0, 1e3),
            "dataset.coeff_control": COEFFS,
            "dataset.coeff_treated": COEFFS,
            "dataset.outcome_noise_sigma": real(0.0, 1e3),
            "dataset.p_treat": real(0.0, 1.0),
            "methods": methods(SWISSROLL_METHODS),
            "test_fraction": real(0.0, 1.0, open_low=True, open_high=True),
            "k_matches": st.integers(1, 50),
            "embed_dim": st.integers(1, 10),
            "twin_mode": st.booleans(),
            "autoencoder.epochs": st.integers(1, 10**4),
            "autoencoder.batch_size": st.integers(1, 10**4),
            "autoencoder.hidden": st.lists(st.integers(1, 64), max_size=3),
            "lle.k_neighbors": st.integers(1, 100),
            "lle.reg": real(0.0, 1e3, open_low=True),
        },
    ),
    "propensity": (
        parse_propensity,
        EXPERIMENTS["propensity"].resolve,
        {
            "seed": SEED,
            "dataset.n_pairs": st.integers(2, 10**6),
            "dataset.jitter_sigma": real(0.0, 1e3, open_low=True),
            "methods": methods(PROPENSITY_METHODS),
            "test_fraction": real(0.0, 1.0, open_low=True, open_high=True),
            "include_outcome": st.booleans(),
            "query_arm": st.sampled_from([0, 1]),
            "threshold": real(0.0, 1.0, open_low=True, open_high=True),
            "net.epochs": st.integers(1, 10**4),
            "net.batch_size": st.integers(1, 10**4),
            "logistic.l2": real(0.0, 1e3),
            "logistic.max_iter": st.integers(1, 10**6),
            "logistic.grad_tol": real(0.0, 1.0, open_low=True),
        },
    ),
    "gradcheck": (
        EXPERIMENTS["gradcheck"].parse,
        EXPERIMENTS["gradcheck"].resolve,
        {
            "seed": SEED,
            "count": st.integers(1, 1000),
            "step": real(0.0, 1.0, open_low=True),
            "tolerance": real(0.0, 1.0, open_low=True),
            "corrupt": st.booleans(),
        },
    ),
}

# Values no field accepts: non-finite numbers, and types no field has.
BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, "x", None, {"a": 1}])


def nest(flat: dict) -> dict:
    doc = {}
    for path, value in flat.items():
        head, _, key = path.rpartition(".")
        (doc.setdefault(head, {}) if head else doc)[key] = value
    return doc


def documents(fields: dict, complete: bool):
    """Valid config documents; with complete=False each key may be absent."""
    if complete:
        return st.fixed_dictionaries(fields).map(nest)
    return st.fixed_dictionaries({}, optional=fields).map(nest)


def lookup(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


@pytest.mark.parametrize("experiment", sorted(VALID))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_valid_documents_round_trip(experiment, data):
    parse, resolve, fields = VALID[experiment]
    doc = data.draw(documents(fields, complete=False))
    cfg = parse(doc)
    resolved = resolve(cfg)
    assert parse(resolved) == cfg
    assert parse(json.loads(json.dumps(resolved))) == cfg
    for path in fields:
        try:
            given_value = lookup(doc, path)
        except KeyError:
            continue
        assert lookup(resolved, path) == given_value


@pytest.mark.parametrize("experiment", sorted(VALID))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_single_fault_names_its_path(experiment, data):
    parse, _, fields = VALID[experiment]
    base = data.draw(documents(fields, complete=True))
    sections = sorted({p.rpartition(".")[0] for p in fields})
    faults = [(path, data.draw(BAD_VALUES)) for path in fields]
    faults += [(f"{head}.no_such_key" if head else "no_such_key", 1) for head in sections]
    for path, value in faults:
        doc = copy.deepcopy(base)
        head, _, key = path.rpartition(".")
        (doc[head] if head else doc)[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape('config.' + path)}\b"):
            parse(doc)
