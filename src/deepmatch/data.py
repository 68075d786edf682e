"""Simulated observational datasets.

Two generators: a noisy swiss-roll manifold with linear potential outcomes
(covariates live on a 2-D sheet rolled through 3-D space, split into six
bands along the roll), and jittered treated/control pairs on the unit square
where each control is a perturbed copy of a known treated twin.

A dataset is the usual observational triple (covariates, binary treatment,
observed outcome); simulated runs also carry the ground truth needed to
score estimators: both potential outcomes, the exact unit-level effect,
band labels, and for the paired design the twin indices.

The library's input rules live here too, and every public entry point
applies them where its input enters: `finite_matrix` to covariates and their
embeddings (2-D, finite, a given column count where one is expected),
`treatment` to labels (n labels of 0 or 1, and both arms where they are
needed) and `finite_vector` to outcomes, scores and effects (1-D, finite, a
given length where one is expected). Every numeric setting and argument,
the experiment configs' included, is held by one of two more:
`count(value, what, least, most)` to an integer in [least, most], and
`real(value, what, above=, at_least=, below=, at_most=)` to a finite real
number in the interval its bounds give.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

THREE_HALVES_PI = 3.0 * math.pi / 2.0
N_GROUPS = 6


def finite_matrix(x, what: str, columns: int | None = None) -> np.ndarray:
    """`x` as a 2-D float array of finite values, with `columns` columns if given."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or columns not in (None, x.shape[1]):
        want = "n x d" if columns is None else f"n x {columns}"
        raise ValueError(f"{what} must be an {want} matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite (found NaN or inf)")
    return x


def finite_vector(v, what: str, n: int | None = None) -> np.ndarray:
    """`v` as a 1-D float array of finite values, of length n if given."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or n not in (None, v.shape[0]):
        want = "n" if n is None else n
        raise ValueError(f"{what} must be a vector of length {want}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite (found NaN or inf)")
    return v


def count(value, what: str, least: int, most: int | None = None) -> None:
    """Check that `value` is an integer, NumPy's too but never a bool, in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be <= {most}, got {value}")


def real(value, what: str, *, above=None, at_least=None, below=None, at_most=None) -> None:
    """Check that `value` is a finite real number, NumPy's too but never a bool,
    in the interval its bounds give: `above` and `below` strict, the others not.

    The interval is tested before finiteness, so a NaN reads as outside it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    low = ("(", ">", above, operator.gt) if above is not None else ("[", ">=", at_least, operator.ge)
    high = (")", "<", below, operator.lt) if below is not None else ("]", "<=", at_most, operator.le)
    given = [side for side in (low, high) if side[2] is not None]
    if not all(test(value, bound) for *_, bound, test in given):
        if len(given) == 2:
            raise ValueError(f"{what} must be in {low[0]}{low[2]}, {high[2]}{high[0]}, got {value}")
        ((_, sign, bound, _),) = given
        raise ValueError(f"{what} must be {sign} {bound}, got {value}")
    # false for the infinities and for integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {value}")


def treatment(w, n: int, both_arms: bool = True) -> np.ndarray:
    """`w` as an int vector of n labels, each 0 or 1; with `both_arms`, both present."""
    w = np.asarray(w)
    if w.shape != (n,):
        raise ValueError(f"length mismatch: treatment w has shape {w.shape}, expected ({n},)")
    if not np.isin(w, (0, 1)).all():
        raise ValueError("treatment indicator must be 0 or 1")
    w = w.astype(int)
    if both_arms:
        for arm, name in ((1, "treated"), (0, "control")):
            if not (w == arm).any():
                raise ValueError(f"{name} arm is empty: both treatment classes must be present")
    return w


@dataclass(frozen=True)
class GroundTruth:
    """Simulation ground truth: potential outcomes (exact unit effects
    `ite_true` = y1 - y0), band labels, and (for the paired design) each
    unit's opposite-arm twin."""

    y0: np.ndarray
    y1: np.ndarray
    group: np.ndarray
    pair_index: np.ndarray | None = None

    @property
    def ite_true(self) -> np.ndarray:
        return self.y1 - self.y0


@dataclass(frozen=True)
class ObservationalDataset:
    """Covariates (n x d), binary treatment, observed outcome, optional truth."""

    x: np.ndarray
    w: np.ndarray
    y_obs: np.ndarray
    truth: GroundTruth | None = None

    def __post_init__(self):
        x = finite_matrix(self.x, "covariates x")
        n = x.shape[0]
        w = treatment(self.w, n, both_arms=False)
        y = finite_vector(self.y_obs, "outcomes y_obs", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "y_obs", y)
        if self.truth is not None:
            self._check_truth(n)

    def _check_truth(self, n: int) -> None:
        t = self.truth
        y0 = finite_vector(t.y0, "truth.y0", n)
        y1 = finite_vector(t.y1, "truth.y1", n)
        expected = np.where(self.w == 1, y1, y0)
        if not np.array_equal(self.y_obs, expected):
            raise ValueError("y_obs must equal the potential outcome selected by w")
        g = np.asarray(t.group)
        if g.shape != (n,) or not np.issubdtype(g.dtype, np.integer):
            raise ValueError("truth.group must be an integer vector of length n")
        if g.size and (g.min() < 0 or g.max() >= N_GROUPS):
            raise ValueError(f"truth.group values must lie in [0, {N_GROUPS})")
        if t.pair_index is not None:
            p = np.asarray(t.pair_index)
            if p.shape != (n,):
                raise ValueError("truth.pair_index must have length n")
            if not np.array_equal(p[p], np.arange(n)):
                raise ValueError("truth.pair_index must be an involution")
            if not np.array_equal(self.w[p], 1 - self.w):
                raise ValueError("truth.pair_index must pair opposite arms")

    @property
    def n_units(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SwissRollConfig:
    """Parameters of the swiss-roll simulation.

    `coeff_control` / `coeff_treated` are the linear outcome coefficients
    applied to the noiseless coordinates; `noise_sigma` perturbs positions,
    `outcome_noise_sigma` perturbs each potential outcome.
    """

    n: int = 1500
    noise_sigma: float = 0.05
    coeff_control: tuple[float, float, float] = (1.0, 1.0, 1.0)
    coeff_treated: tuple[float, float, float] = (2.0, 1.0, 1.0)
    outcome_noise_sigma: float = 0.0
    p_treat: float = 0.5

    def __post_init__(self):
        count(self.n, "n", 2)
        real(self.noise_sigma, "noise_sigma", at_least=0)
        real(self.outcome_noise_sigma, "outcome_noise_sigma", at_least=0)
        real(self.p_treat, "p_treat", at_least=0, at_most=1)
        for name in ("coeff_control", "coeff_treated"):
            c = getattr(self, name)
            if not (isinstance(c, tuple) and len(c) == 3):
                raise ValueError(f"{name} must be a tuple of 3 finite numbers, got {c!r}")
            for i, v in enumerate(c):
                real(v, f"{name}[{i}]")


def roll_surface(u, v):
    """Map uniforms (u, v) in [0,1) to the swiss-roll sheet.

    Returns (t, h, points) with t = (3*pi/2)*(1 + 2u), h = 11v and each point
    (t*cos t, h, t*sin t); `points` are the noiseless coordinates.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    t = THREE_HALVES_PI * (1.0 + 2.0 * u)
    h = 11.0 * v
    points = np.column_stack((t * np.cos(t), h, t * np.sin(t)))
    return t, h, points


def _band_labels(t: np.ndarray) -> np.ndarray:
    """Equal-count bands along the roll parameter: rank r gets floor(6r/n)."""
    n = t.shape[0]
    order = np.argsort(t, kind="stable")
    group = np.empty(n, dtype=int)
    group[order] = np.arange(n) * N_GROUPS // n
    return group


def gen_swiss_roll(cfg: SwissRollConfig, seed: int) -> ObservationalDataset:
    """Draw a swiss-roll dataset with linear potential outcomes, seeded by `seed`.

    Draw order (fixed for reproducibility): u, v, positional noise, treatment,
    control outcome noise, treated outcome noise. Outcomes are linear in the
    noiseless coordinates; each potential outcome carries its own noise draw,
    so the unit effect is exactly y1 - y0 (noiseless at the default
    outcome_noise_sigma = 0).
    """
    rng = np.random.default_rng(seed)
    n = cfg.n
    u = rng.random(n)
    v = rng.random(n)
    t, _, clean = roll_surface(u, v)
    x = clean + cfg.noise_sigma * rng.standard_normal((n, 3))
    w = (rng.random(n) < cfg.p_treat).astype(int)
    a = np.asarray(cfg.coeff_control, dtype=float)
    b = np.asarray(cfg.coeff_treated, dtype=float)
    y0 = clean @ a + cfg.outcome_noise_sigma * rng.standard_normal(n)
    y1 = clean @ b + cfg.outcome_noise_sigma * rng.standard_normal(n)
    truth = GroundTruth(y0=y0, y1=y1, group=_band_labels(t))
    return ObservationalDataset(
        x=x, w=w, y_obs=np.where(w == 1, y1, y0), truth=truth
    )


def gen_propensity_pairs(n: int, jitter_sigma: float, seed: int) -> ObservationalDataset:
    """Treated units uniform on the unit square, controls as jittered copies.

    Rows 0..n-1 are the treated units (2 covariates and an outcome, all
    U[0,1)); rows n..2n-1 are their controls, formed by adding
    Gaussian(0, jitter_sigma^2) to the source unit's covariates and outcome.
    `truth.pair_index` records the twin bijection. There is no treatment
    effect in this design: both potential outcomes equal the observed one.
    """
    count(n, "n", 1)
    # coincident twins would make neighbour order vacuous
    real(jitter_sigma, "jitter_sigma", above=0)
    rng = np.random.default_rng(seed)
    x_treated = rng.random((n, 2))
    y_treated = rng.random(n)
    jitter = jitter_sigma * rng.standard_normal((n, 3))
    x = np.vstack((x_treated, x_treated + jitter[:, :2]))
    y = np.concatenate((y_treated, y_treated + jitter[:, 2]))
    w = np.concatenate((np.ones(n, dtype=int), np.zeros(n, dtype=int)))
    pair = np.concatenate((np.arange(n) + n, np.arange(n)))
    truth = GroundTruth(
        y0=y.copy(),
        y1=y.copy(),
        group=np.zeros(2 * n, dtype=int),
        pair_index=pair,
    )
    return ObservationalDataset(x=x, w=w, y_obs=y, truth=truth)


def duplicate_twins(ds: ObservationalDataset) -> ObservationalDataset:
    """Clone every unit into the opposite arm with its counterfactual outcome.

    The clone shares the original's covariates exactly, so distance-zero
    matches exist for every unit and a correct matcher recovers the true
    effects with no error. Requires ground truth. Rows 0..n-1 are the
    originals, n..2n-1 the clones; pair_index links them.
    """
    if ds.truth is None:
        raise ValueError("duplicate_twins requires ground truth")
    n = ds.n_units
    t = ds.truth
    w_clone = 1 - ds.w
    y_clone = np.where(w_clone == 1, t.y1, t.y0)
    truth = GroundTruth(
        y0=np.concatenate((t.y0, t.y0)),
        y1=np.concatenate((t.y1, t.y1)),
        group=np.concatenate((t.group, t.group)),
        pair_index=np.concatenate((np.arange(n) + n, np.arange(n))),
    )
    return ObservationalDataset(
        x=np.vstack((ds.x, ds.x)),
        w=np.concatenate((ds.w, w_clone)),
        y_obs=np.concatenate((ds.y_obs, y_clone)),
        truth=truth,
    )


def train_test_split(n: int, test_fraction: float, seed: int):
    """Seeded index split; returns (train_idx, test_idx), both sorted."""
    count(n, "n", 1)
    real(test_fraction, "test_fraction", above=0, below=1)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError(f"test_fraction {test_fraction} leaves no training rows")
    return np.sort(order[n_test:]), np.sort(order[:n_test])

