"""Propensity-score models and covariate-balance diagnostics.

Two interchangeable scorers for P(w=1 | features): a logistic regression fit
by damped Newton steps (iteratively reweighted least squares), and a
five-layer dense softmax classifier trained with adadelta. Both expose
predict() returning probabilities in [0,1]. balance_report() computes
standardized mean differences overall and within score strata, the usual
check that matching on the score actually balances the covariates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import count, finite_matrix, finite_vector, train_test_split, treatment
from .network import (
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    init_network,
    sigmoid,
    train,
)

PROPENSITY_WIDTHS = (10, 10, 10, 10, 2)
PROPENSITY_DROPOUT = 0.3
SCORE_CLAMP = 1e-12
MODEL_KINDS = ("logistic", "propensity_net")


def log_odds(scores: np.ndarray) -> np.ndarray:
    """ln(p / (1-p)) with p clamped away from 0 and 1, so always finite."""
    p = np.clip(finite_vector(scores, "scores"), SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return np.log(p / (1.0 - p))


class LogisticDidNotConverge(RuntimeError):
    """Newton's method stopped short of the gradient tolerance.

    Either it used up its iteration cap, or its step no longer moves the
    coefficients, as on separated classes, whose MLE lies at infinity.
    """


def build_propensity_net(input_dim: int) -> NetworkSpec:
    """Five dense layers (10,10,10,10,2): relu + 30% dropout, softmax head.

    input_dim=2 gives 382 trainable parameters (30+110+110+110+22).
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    layers = []
    fan_in = input_dim
    for width in PROPENSITY_WIDTHS[:-1]:
        layers.append(
            LayerSpec(fan_in, width, activation="relu", dropout_rate=PROPENSITY_DROPOUT)
        )
        fan_in = width
    layers.append(LayerSpec(fan_in, PROPENSITY_WIDTHS[-1], activation="softmax"))
    return NetworkSpec(tuple(layers), loss="categorical_cross_entropy")


@dataclass(frozen=True)
class LogisticModel:
    """p = sigmoid(intercept + x @ coef).

    A fitted model also records its fit: the number of Newton iterations and
    the final gradient infinity-norm of the mean negative log-likelihood.
    """

    intercept: float
    coef: np.ndarray
    iterations: int
    grad_norm: float

    @property
    def input_dim(self) -> int:
        return self.coef.shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = finite_matrix(x, "features", self.input_dim)
        return sigmoid(self.intercept + x @ self.coef)


@dataclass(frozen=True)
class PropensityNetModel:
    """Softmax classifier; the score is the class-1 (treated) probability."""

    network: Network

    @property
    def input_dim(self) -> int:
        return self.network.spec.input_dim

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = finite_matrix(x, "features", self.input_dim)
        return self.network.predict(x)[:, 1]


@dataclass(frozen=True)
class PropensityFitConfig:
    """Knobs for both model kinds; irrelevant fields are ignored per kind.

    `net`, the dense classifier's schedule, is deliberately short: trained to
    convergence on the jittered-pairs benchmark the net learns the constant
    score, and score matching turns degenerate.
    """

    test_fraction: float = 0.2
    net: TrainConfig = TrainConfig(epochs=2, batch_size=128)
    l2: float = 0.0
    max_iter: int = 10_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be finite and > 0, got {self.grad_tol}")
        count(self.max_iter, "max_iter", 1)


def _mean_nll_and_grad(design, labels, beta, ridge):
    """Mean negative log-likelihood, its gradient, and the fitted probabilities.

    `ridge` holds the l2 weight of each coefficient; the intercept's is 0.
    """
    eta = design @ beta
    p = sigmoid(eta)
    nll = float(np.mean(np.logaddexp(0.0, eta) - labels * eta)) + 0.5 * float(ridge @ beta**2)
    grad = design.T @ (p - labels) / design.shape[0] + ridge * beta
    return nll, grad, p


def fit_logistic(
    x: np.ndarray, w: np.ndarray, cfg: PropensityFitConfig = PropensityFitConfig()
) -> LogisticModel:
    """Maximum likelihood by damped Newton steps (IRLS).

    Each step solves with the Hessian X'diag(p(1-p))X / n, plus cfg.l2 on
    every coefficient but the intercept, and is halved until the mean
    negative log-likelihood does not rise. The step is the minimum-norm
    solution, so collinear columns give the minimum-norm MLE. Converged
    when the gradient infinity-norm drops below cfg.grad_tol; raises
    LogisticDidNotConverge, naming the final gradient norm, if cfg.max_iter
    iterations do not get there or the step stops moving the coefficients.
    """
    x = finite_matrix(x, "features")
    labels = treatment(w, x.shape[0])
    design = np.column_stack([np.ones(x.shape[0]), x])
    ridge = np.full(design.shape[1], cfg.l2)
    ridge[0] = 0.0
    beta = np.zeros(design.shape[1])
    nll, grad, p = _mean_nll_and_grad(design, labels, beta, ridge)
    iterations = 0
    # `not <` also continues on a NaN gradient norm
    while not np.abs(grad).max() < cfg.grad_tol:
        if iterations == cfg.max_iter:
            break
        hess = (design.T * (p * (1.0 - p))) @ design / design.shape[0] + np.diag(ridge)
        if not np.isfinite(hess).all():  # features so large that x'x overflows
            break
        delta = np.linalg.lstsq(hess, grad, rcond=None)[0]
        step = 1.0
        while True:
            trial = beta - step * delta
            trial_nll, trial_grad, trial_p = _mean_nll_and_grad(design, labels, trial, ridge)
            # The NLL has not risen if its value has not, or if it still falls
            # along the step at the trial point: where rounding swamps the
            # change in value, the slope still shows it. Ends at the latest
            # once the halved step rounds away and trial == beta.
            if trial_nll <= nll or trial_grad @ delta >= 0:
                break
            step *= 0.5
        if np.array_equal(trial, beta):
            break
        beta, nll, grad, p = trial, trial_nll, trial_grad, trial_p
        iterations += 1
    else:
        return LogisticModel(
            intercept=float(beta[0]),
            coef=beta[1:],
            iterations=iterations,
            grad_norm=float(np.abs(grad).max()),
        )
    raise LogisticDidNotConverge(
        f"gradient norm {np.abs(grad).max():.3e} after {iterations} of at most "
        f"{cfg.max_iter} Newton iterations (tolerance {cfg.grad_tol:g})"
    )


def fit_propensity_net(
    x: np.ndarray, w: np.ndarray, cfg: PropensityFitConfig = PropensityFitConfig(), *, seed: int
) -> PropensityNetModel:
    """Train the dense softmax classifier on one-hot labels; `seed` draws init and training."""
    x = finite_matrix(x, "features")
    labels = treatment(w, x.shape[0])
    targets = np.column_stack([1.0 - labels, labels])
    net = init_network(build_propensity_net(x.shape[1]), seed=seed)
    train(net, x, targets, cfg.net, seed)
    return PropensityNetModel(network=net)


def fit(
    model_kind: str,
    x: np.ndarray,
    w: np.ndarray,
    cfg: PropensityFitConfig = PropensityFitConfig(),
    *,
    seed: int,
) -> tuple[LogisticModel | PropensityNetModel, np.ndarray]:
    """Fit on the training fold of a holdout split drawn from `seed`.

    Returns (model, test_indices): the fitted LogisticModel or
    PropensityNetModel, and the sorted held-out rows, on which accuracy is
    reported. The same `seed` seeds the dense classifier; the logistic fit
    draws nothing. All the features and labels are checked before the
    split, and the fitter checks the training fold again; a fold left with
    one treatment class raises ValueError.
    """
    x = finite_matrix(x, "features")
    labels = treatment(w, x.shape[0])
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    train_idx, test_idx = train_test_split(x.shape[0], cfg.test_fraction, seed)
    if model_kind == "logistic":
        return fit_logistic(x[train_idx], labels[train_idx], cfg), test_idx
    return fit_propensity_net(x[train_idx], labels[train_idx], cfg, seed=seed), test_idx


@dataclass(frozen=True)
class StratumBalance:
    """Per-covariate SMD inside one score quantile bin.

    smd is None when a treatment arm is missing in the bin; individual
    entries are None when a covariate has zero pooled variance there.
    """

    score_lo: float
    score_hi: float
    n_control: int
    n_treated: int
    smd: tuple | None


@dataclass(frozen=True)
class BalanceReport:
    covariate_smd: tuple
    score_smd: float | None
    strata: tuple


def _smd_one(values: np.ndarray, w: np.ndarray):
    v1 = values[w == 1]
    v0 = values[w == 0]
    pooled = np.sqrt((v1.var() + v0.var()) / 2.0)
    if pooled == 0.0:
        return None
    return float((v1.mean() - v0.mean()) / pooled)


def balance_report(x, w, scores, n_strata: int = 5) -> BalanceReport:
    """Standardized mean differences overall and within score quantile bins.

    w must hold 0/1 labels with both arms present.
    """
    if n_strata < 1:
        raise ValueError(f"n_strata must be >= 1, got {n_strata}")
    x = finite_matrix(x, "features")
    w = treatment(w, x.shape[0])
    scores = finite_vector(scores, "scores", x.shape[0])
    overall = tuple(_smd_one(x[:, j], w) for j in range(x.shape[1]))
    score_smd = _smd_one(scores, w)

    edges = np.quantile(scores, np.linspace(0.0, 1.0, n_strata + 1))
    strata = []
    for s in range(n_strata):
        lo, hi = float(edges[s]), float(edges[s + 1])
        if s + 1 < n_strata:
            members = (scores >= lo) & (scores < hi)
        else:
            members = (scores >= lo) & (scores <= hi)
        wm = w[members]
        n1 = int((wm == 1).sum())
        n0 = int((wm == 0).sum())
        if n0 == 0 or n1 == 0:
            smd = None
        else:
            xm = x[members]
            smd = tuple(_smd_one(xm[:, j], wm) for j in range(x.shape[1]))
        strata.append(
            StratumBalance(score_lo=lo, score_hi=hi, n_control=n0, n_treated=n1, smd=smd)
        )
    return BalanceReport(covariate_smd=overall, score_smd=score_smd, strata=tuple(strata))
