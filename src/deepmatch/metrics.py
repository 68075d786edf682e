"""Evaluation metrics and report records for the two experiment pipelines.

EffectReport scores an EffectEstimate against the true effects of a held-out
test set; PropensityReport scores `propensity_match`'s (queries, matched)
index arrays against the known pairs. Both are plain dataclasses;
`dataclasses.asdict` gives the JSON dict they round-trip through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GroundTruth, finite_matrix, finite_vector, real, treatment
from .matching import EffectEstimate, _check_span, _distances

# Previously reported results for the jittered-pairs benchmark, as
# (mean abs misassignment error %, misassignment rate %, accuracy %).
# The generating seed behind them is unknown, so they are context for
# reading reports, not targets any test asserts.
REFERENCE_MISASSIGNMENT = {
    "logistic": (26.6, 38.0, 62.0),
    "propensity_net": (19.2, 26.0, 74.0),
}

ACCURACY_THRESHOLD = 0.5


@dataclass(frozen=True)
class EffectReport:
    method: str
    mean_abs_ite_error: float
    ate_error: float
    n_test: int
    seed: int

    def __post_init__(self):
        for name in ("mean_abs_ite_error", "ate_error"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class PropensityReport:
    method: str
    mean_abs_misassignment_error_pct: float
    misassignment_rate_pct: float
    accuracy_pct: float
    seed: int

    def __post_init__(self):
        for name in (
            "mean_abs_misassignment_error_pct",
            "misassignment_rate_pct",
            "accuracy_pct",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} must be in [0, 100], got {value}")


def ite_error(
    est: EffectEstimate,
    truth: GroundTruth,
    test_mask: np.ndarray,
    method: str = "",
    seed: int = 0,
) -> EffectReport:
    """Absolute ITE error of an estimate made for the masked test units.

    est.ite must hold one entry per True in test_mask, in index order.
    """
    if truth is None:
        raise ValueError("ground truth is required to score an effect estimate")
    mask = np.asarray(test_mask, dtype=bool)
    if mask.shape != truth.ite_true.shape:
        raise ValueError(
            f"test_mask length {mask.shape} does not cover the {truth.ite_true.shape} truth"
        )
    true_ite = truth.ite_true[mask]
    if est.ite.shape != true_ite.shape:
        raise ValueError(
            f"estimate covers {est.ite.shape[0]} units but the mask selects {true_ite.shape[0]}"
        )
    diff = est.ite - true_ite
    return EffectReport(
        method=method,
        mean_abs_ite_error=float(np.mean(np.abs(diff))),
        ate_error=float(abs(np.mean(est.ite) - np.mean(true_ite))),
        n_test=int(true_ite.shape[0]),
        seed=seed,
    )


def misassignment_report(
    queries: np.ndarray,
    matched: np.ndarray,
    pair_index: np.ndarray,
    predicted_w: np.ndarray,
    true_w: np.ndarray,
    method: str = "",
    seed: int = 0,
) -> PropensityReport:
    """Score `propensity_match`'s (queries, matched) arrays against known pair links.

    rate = share of queries not matched to their pair; error = mean
    |matched - pair| as a fraction of the number of queries (index-offset
    distance, stable under dataset row order); accuracy = share of held-out
    units whose predicted label equals their true treatment label.
    predicted_w and true_w are the held-out vectors, already aligned; the
    pipeline predicts with `threshold_labels` at the run's `threshold`.
    """
    if pair_index is None:
        raise ValueError("dataset has no pair links; misassignment is undefined")
    queries = np.asarray(queries)
    matched = np.asarray(matched)
    if queries.ndim != 1 or queries.shape != matched.shape or queries.size == 0:
        raise ValueError("queries and matched must be non-empty vectors of equal length")
    if np.size(true_w) == 0:
        raise ValueError("the held-out set is empty: true_w has no labels to score accuracy on")
    expected = np.asarray(pair_index)[queries]
    rate = 100.0 * float(np.mean(matched != expected))
    error = 100.0 * float(np.mean(np.abs(matched - expected) / len(queries)))
    true_w = treatment(true_w, np.size(true_w), both_arms=False)
    predicted_w = treatment(predicted_w, true_w.shape[0], both_arms=False)
    accuracy = 100.0 * float(np.mean(predicted_w == true_w))
    return PropensityReport(
        method=method,
        mean_abs_misassignment_error_pct=error,
        misassignment_rate_pct=rate,
        accuracy_pct=accuracy,
        seed=seed,
    )


def threshold_labels(scores: np.ndarray, threshold: float = ACCURACY_THRESHOLD) -> np.ndarray:
    """Hard labels from scores; ties at the threshold go to class 1."""
    real(threshold, "threshold", above=0, below=1)
    return (finite_vector(scores, "scores") >= threshold).astype(int)


def silhouette(z: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient with Euclidean distance.

    Points in singleton clusters contribute 0, the usual convention. Distances
    are matching's kernel distances, each summed coordinate by coordinate
    from differences, so translating z does not cancel them away.
    """
    z = finite_matrix(z, "embedding z")
    labels = np.asarray(labels)
    if z.shape[0] != labels.shape[0]:
        raise ValueError("z must be n x m with one label per row")
    uniq = np.unique(labels)
    if uniq.shape[0] < 2:
        raise ValueError("silhouette needs at least two distinct labels")
    _check_span(z.T, z.T, "embedding z")
    n = z.shape[0]
    dist = _distances(z.T[:, :, None], z.T[:, None, :])

    sums = np.stack([dist[:, labels == c].sum(axis=1) for c in uniq], axis=1)
    counts = np.array([(labels == c).sum() for c in uniq])
    own = np.searchsorted(uniq, labels)
    rows = np.arange(n)

    own_count = counts[own]
    # own-cluster mean excludes the point itself
    a = np.where(own_count > 1, sums[rows, own] / np.maximum(own_count - 1, 1), 0.0)
    means = sums / counts[None, :]
    means[rows, own] = np.inf
    b = means.min(axis=1)

    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    s = np.where(own_count > 1, s, 0.0)
    return float(np.mean(s))
