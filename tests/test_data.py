import math
import re

import numpy as np
import pytest

from deepmatch import embedding, matching, metrics, network, propensity
from deepmatch.data import (
    GroundTruth,
    ObservationalDataset,
    SwissRollConfig,
    duplicate_twins,
    gen_propensity_pairs,
    gen_swiss_roll,
    roll_surface,
    train_test_split,
)
from oracles import knn_scan


class TestRollSurface:
    def test_start_of_roll(self):
        t, h, p = roll_surface(0.0, 0.0)
        assert t == pytest.approx(3 * math.pi / 2, rel=1e-15)
        assert h == 0.0
        assert np.allclose(p, [[0.0, 0.0, -3 * math.pi / 2]], atol=1e-12)

    def test_half_turn(self):
        t, h, p = roll_surface(0.5, 1.0)
        assert t == pytest.approx(3 * math.pi, rel=1e-15)
        assert h == 11.0
        assert np.allclose(p, [[-3 * math.pi, 11.0, 0.0]], atol=1e-12)

    def test_radius_identity(self):
        u = np.linspace(0, 1, 50, endpoint=False)
        t, _, p = roll_surface(u, np.zeros_like(u))
        assert np.all(np.abs(np.hypot(p[:, 0], p[:, 2]) - t) < 1e-9)


class TestSwissRoll:
    def test_shapes_and_arm_balance(self):
        ds = gen_swiss_roll(SwissRollConfig(), 0)
        assert ds.x.shape == (1500, 3)
        n1 = int(ds.w.sum())
        n0 = ds.n_units - n1
        assert min(n0, n1) > 600  # Bernoulli(0.5) far from degenerate

    def test_six_equal_bands(self):
        ds = gen_swiss_roll(SwissRollConfig(), 1)
        assert np.array_equal(np.bincount(ds.truth.group), [250] * 6)

    def test_band_sizes_differ_by_at_most_one(self):
        ds = gen_swiss_roll(SwissRollConfig(n=1000), 2)
        counts = np.bincount(ds.truth.group)
        assert counts.max() - counts.min() <= 1

    def test_bands_follow_roll_parameter(self):
        ds = gen_swiss_roll(SwissRollConfig(noise_sigma=0.0), 3)
        t = np.hypot(ds.x[:, 0], ds.x[:, 2])
        order = np.argsort(t, kind="stable")
        expect = np.empty(len(t), dtype=int)
        expect[order] = np.arange(len(t)) * 6 // len(t)
        assert np.array_equal(expect, ds.truth.group)

    def test_linear_outcomes_against_per_row_dot_products(self):
        cfg = SwissRollConfig(n=40, noise_sigma=0.0)
        ds = gen_swiss_roll(cfg, 4)
        a, b = cfg.coeff_control, cfg.coeff_treated
        for i in range(ds.n_units):
            y0 = sum(a[j] * ds.x[i, j] for j in range(3))
            y1 = sum(b[j] * ds.x[i, j] for j in range(3))
            assert ds.truth.y0[i] == pytest.approx(y0, rel=1e-12, abs=1e-12)
            assert ds.truth.y1[i] == pytest.approx(y1, rel=1e-12, abs=1e-12)

    def test_default_coefficients_worked_example(self):
        # a=(1,1,1), b=(2,1,1) on the point (1,2,3): y0=6, y1=7, effect 1
        a, b, point = (1, 1, 1), (2, 1, 1), (1, 2, 3)
        y0 = sum(ai * xi for ai, xi in zip(a, point))
        y1 = sum(bi * xi for bi, xi in zip(b, point))
        assert (y0, y1, y1 - y0) == (6, 7, 1)
        cfg = SwissRollConfig()
        assert cfg.coeff_control == (1.0, 1.0, 1.0)
        assert cfg.coeff_treated == (2.0, 1.0, 1.0)

    def test_unit_effect_is_first_coordinate_for_defaults(self):
        ds = gen_swiss_roll(SwissRollConfig(noise_sigma=0.0), 5)
        assert np.allclose(ds.truth.ite_true, ds.x[:, 0], atol=1e-10)

    def test_observed_outcome_selects_by_arm(self):
        ds = gen_swiss_roll(SwissRollConfig(), 6)
        t = ds.truth
        assert np.array_equal(ds.y_obs, np.where(ds.w == 1, t.y1, t.y0))

    def test_outcome_noise_draws_each_potential_outcome_apart(self):
        clean = gen_swiss_roll(SwissRollConfig(outcome_noise_sigma=0.0), 7)
        noisy = gen_swiss_roll(SwissRollConfig(outcome_noise_sigma=0.5), 7)
        assert np.array_equal(clean.x, noisy.x) and np.array_equal(clean.w, noisy.w)
        shift0 = noisy.truth.y0 - clean.truth.y0
        shift1 = noisy.truth.y1 - clean.truth.y1
        assert np.all(shift0 != 0.0) and np.all(shift1 != 0.0)
        # one shared draw would move both outcomes alike and leave the effect unchanged
        assert np.all(shift0 != shift1)
        assert np.all(noisy.truth.ite_true != clean.truth.ite_true)

    def test_same_seed_identical(self):
        a = gen_swiss_roll(SwissRollConfig(), 8)
        b = gen_swiss_roll(SwissRollConfig(), 8)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.y_obs, b.y_obs)

    def test_different_seed_differs(self):
        a = gen_swiss_roll(SwissRollConfig(), 9)
        b = gen_swiss_roll(SwissRollConfig(), 10)
        assert not np.array_equal(a.x, b.x)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n must"):
            SwissRollConfig(n=1)
        with pytest.raises(ValueError, match="finite"):
            SwissRollConfig(noise_sigma=float("nan"))
        with pytest.raises(ValueError, match="p_treat"):
            SwissRollConfig(p_treat=1.5)
        with pytest.raises(ValueError, match="sigma"):
            SwissRollConfig(outcome_noise_sigma=-0.1)


class TestPropensityPairs:
    def test_layout_and_pairing(self):
        ds = gen_propensity_pairs(1000, 0.01, seed=0)
        assert ds.x.shape == (2000, 2)
        assert np.array_equal(ds.w[:1000], np.ones(1000, dtype=int))
        assert np.array_equal(ds.w[1000:], np.zeros(1000, dtype=int))
        p = ds.truth.pair_index
        assert np.array_equal(p[p], np.arange(2000))
        assert np.array_equal(p[:1000], np.arange(1000, 2000))

    def test_controls_are_jittered_copies(self):
        sigma = 0.02
        ds = gen_propensity_pairs(500, sigma, seed=1)
        diffs = ds.x[500:] - ds.x[:500]
        assert np.abs(diffs).max() < 6 * sigma
        assert np.abs(ds.y_obs[500:] - ds.y_obs[:500]).max() < 6 * sigma
        assert np.all((ds.x[:500] >= 0) & (ds.x[:500] < 1))

    def test_pair_is_nearest_neighbor_at_small_jitter(self):
        ds = gen_propensity_pairs(300, 1e-4, seed=2)
        treated = list(range(300))
        for i in range(300, 600):
            idx, _ = knn_scan(ds.x.tolist(), ds.w.tolist(), i, 1)
            assert idx[0] == ds.truth.pair_index[i]

    def test_distance_shrinks_with_jitter(self):
        big = gen_propensity_pairs(50, 0.1, seed=3)
        small = gen_propensity_pairs(50, 1e-6, seed=3)
        gap = lambda ds: np.abs(ds.x[50:] - ds.x[:50]).max()
        assert gap(small) < 1e-4 < gap(big)

    def test_no_effect_in_truth(self):
        ds = gen_propensity_pairs(10, 0.05, seed=4)
        assert np.array_equal(ds.truth.ite_true, np.zeros(20))

    def test_zero_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            gen_propensity_pairs(10, 0.0, seed=0)
        with pytest.raises(ValueError, match="n must"):
            gen_propensity_pairs(0, 0.1, seed=0)


class TestDuplicateTwins:
    def test_clones_carry_counterfactuals(self):
        ds = gen_swiss_roll(SwissRollConfig(n=60), 11)
        tw = duplicate_twins(ds)
        n = ds.n_units
        assert tw.n_units == 2 * n
        assert np.array_equal(tw.x[n:], ds.x)
        assert np.array_equal(tw.w[n:], 1 - ds.w)
        expect = np.where(ds.w == 0, ds.truth.y1, ds.truth.y0)
        assert np.array_equal(tw.y_obs[n:], expect)
        assert np.array_equal(tw.truth.pair_index[:n], np.arange(n) + n)

    def test_requires_truth(self):
        ds = ObservationalDataset(
            x=np.zeros((4, 2)), w=np.array([0, 1, 0, 1]), y_obs=np.zeros(4)
        )
        with pytest.raises(ValueError, match="ground truth"):
            duplicate_twins(ds)


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ObservationalDataset(x=np.zeros((3, 2)), w=np.zeros(2, int), y_obs=np.zeros(3))

    def test_nonbinary_treatment(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ObservationalDataset(
                x=np.zeros((2, 1)), w=np.array([0, 2]), y_obs=np.zeros(2)
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ObservationalDataset(
                x=np.array([[np.inf]]), w=np.array([1]), y_obs=np.zeros(1)
            )

    def test_truth_consistency_enforced(self):
        x = np.zeros((2, 1))
        w = np.array([1, 0])
        good = GroundTruth(
            y0=np.array([1.0, 2.0]),
            y1=np.array([3.0, 4.0]),
            group=np.zeros(2, dtype=int),
        )
        ObservationalDataset(x=x, w=w, y_obs=np.array([3.0, 2.0]), truth=good)
        with pytest.raises(ValueError, match="y_obs"):
            ObservationalDataset(x=x, w=w, y_obs=np.array([1.0, 2.0]), truth=good)

    def test_pair_must_be_opposite_arm_involution(self):
        x = np.zeros((2, 1))
        w = np.array([1, 1])
        t = GroundTruth(
            y0=np.zeros(2),
            y1=np.zeros(2),
            group=np.zeros(2, dtype=int),
            pair_index=np.array([1, 0]),
        )
        with pytest.raises(ValueError, match="opposite"):
            ObservationalDataset(x=x, w=w, y_obs=np.zeros(2), truth=t)


class TestSplits:
    def test_split_partitions_indices(self):
        train, test = train_test_split(100, 0.2, seed=0)
        assert len(test) == 20 and len(train) == 80
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(100))

    def test_split_deterministic(self):
        a = train_test_split(50, 0.2, seed=1)
        b = train_test_split(50, 0.2, seed=1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(10, 0.0, seed=0)
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(10, 1.0, seed=0)



# One contract for every public entry point that takes covariates or labels:
# each call below gets a covariate matrix x (n x 2) and a label vector w, next
# to the bad inputs its contract covers. "columns" hands a
# 3-column matrix to a caller that fixed 2 columns (a fitted model, a pool,
# a network); "one arm" is for callers that need both arms.
_X = np.random.default_rng(50).standard_normal((12, 2))
_W = np.tile([0, 1], 6)
_Y = np.random.default_rng(51).standard_normal(12)
_COVARIATES = ("nan", "inf", "1-D")
_LABELS = ("label 2", "one arm")


def _entry_points():
    logistic = propensity.LogisticModel(0.0, np.ones(2), iterations=0, grad_norm=0.0)
    net = network.init_network(network.NetworkSpec((network.LayerSpec(2, 1),)), seed=0)
    one_epoch = network.TrainConfig(epochs=1)
    return {
        "ObservationalDataset": (
            lambda x, w: ObservationalDataset(x=x, w=w, y_obs=_Y), _COVARIATES + ("label 2",)),
        "fit_identity": (lambda x, w: embedding.fit_identity(x), _COVARIATES),
        "fit_pca": (lambda x, w: embedding.fit_pca(x, 1), _COVARIATES),
        "fit_lle": (lambda x, w: embedding.fit_lle(x, 1, k_neighbors=4), _COVARIATES),
        "fit_autoencoder": (
            lambda x, w: embedding.fit_autoencoder(x, 1, one_epoch, seed=0), _COVARIATES),
        "Embedder.transform": (
            lambda x, w: embedding.fit_pca(_X, 1).transform(x), _COVARIATES + ("columns",)),
        "propensity.fit": (
            lambda x, w: propensity.fit("logistic", x, w, seed=0), _COVARIATES + _LABELS),
        "fit_logistic": (lambda x, w: propensity.fit_logistic(x, w), _COVARIATES + _LABELS),
        "LogisticModel.predict": (lambda x, w: logistic.predict(x), _COVARIATES + ("columns",)),
        "balance_report": (
            lambda x, w: propensity.balance_report(x, w, np.linspace(0.1, 0.9, 12)),
            _COVARIATES + _LABELS),
        "knn": (lambda x, w: matching.knn(x, _X, 1), _COVARIATES + ("columns",)),
        "estimate_effects": (
            lambda x, w: matching.estimate_effects(x, w, _Y), _COVARIATES + _LABELS),
        "estimate_effects_pooled": (
            lambda x, w: matching.estimate_effects_pooled(x, w, _Y, _X, w, _Y),
            _COVARIATES + ("columns",) + _LABELS),
        "nearest_opposite": (
            lambda x, w: matching.nearest_opposite(x, w, 0), _COVARIATES + _LABELS),
        # scores are a vector: column 1 carries the NaN and the inf
        "propensity_match": (
            lambda x, w: matching.propensity_match(x[:, 1], w), ("nan", "inf") + _LABELS),
        "train": (
            lambda x, w: network.train(net, x, np.zeros((x.shape[0], 1)), one_epoch, seed=0),
            _COVARIATES + ("columns",)),
        # predicted labels, scored against the true ones
        "misassignment_report": (
            lambda x, w: metrics.misassignment_report([0], [1], [1, 0], w, _W), ("label 2",)),
    }


def _bad_input(kind):
    x, w = _X.copy(), _W.copy()
    if kind == "nan":
        x[3, 1] = np.nan
    elif kind == "inf":
        x[5, 1] = np.inf
    elif kind == "1-D":
        x = x[:, 0]
    elif kind == "columns":
        x = np.column_stack((x, x[:, 0]))
    elif kind == "label 2":
        w[4] = 2
    else:
        w[:] = 1
    return x, w


@pytest.mark.parametrize(
    "entry, kind",
    [(entry, kind) for entry, (_, kinds) in _entry_points().items() for kind in kinds],
)
def test_entry_point_rejects_bad_covariates_and_labels(entry, kind):
    call, _ = _entry_points()[entry]
    call(_X.copy(), _W.copy())  # the good input passes, so the bad one is what fails
    x, w = _bad_input(kind)
    with pytest.raises(ValueError):
        call(x, w)


# One contract for every public entry point that takes an outcome, score or
# effect vector: each call gets a vector v of 12 values next to _X and _W,
# and a NaN, an inf, a 2-D column or, where _X fixes the length, 11 values
# must raise a ValueError that names the vector. The bad value goes in row 3,
# which is treated in _W. So three rows are inputs that nothing downstream
# reads, and the rule must still reject them: y0 of a treated unit (and y1 of
# a control, once truth.y1 flips the arms), a pool row in the arm that no
# (treated) query matches into, and a row in treated unit 1's own arm.
_Y0 = np.random.default_rng(52).standard_normal(12)
_Y1 = _Y0 + 1.0
_SCORES = np.linspace(0.1, 0.9, 12)
_VECTORS = ("nan", "inf", "2-D")


def _observed(w, y0=_Y0, y1=_Y1):
    """A dataset with truth, its observed outcomes taken from the good _Y0 and _Y1."""
    truth = GroundTruth(y0=y0, y1=y1, group=np.zeros(12, dtype=int))
    return ObservationalDataset(x=_X, w=w, y_obs=np.where(w == 1, _Y1, _Y0), truth=truth)


def _vector_entry_points():
    # name -> (call, good vector, bad kinds, the message's pattern)
    return {
        "ObservationalDataset.y_obs": (
            lambda v: ObservationalDataset(x=_X, w=_W, y_obs=v), _Y, _VECTORS + ("length",),
            "y_obs"),
        "truth.y0": (lambda v: _observed(_W, y0=v), _Y0, _VECTORS + ("length",), "truth.y0"),
        "truth.y1": (lambda v: _observed(1 - _W, y1=v), _Y1, _VECTORS + ("length",), "truth.y1"),
        "estimate_effects.y_obs": (
            lambda v: matching.estimate_effects(_X, _W, v), _Y, _VECTORS + ("length",), "y_obs"),
        "estimate_effects_pooled.y_query": (
            lambda v: matching.estimate_effects_pooled(_X, _W, v, _X, _W, _Y), _Y,
            _VECTORS + ("length",), "y_query"),
        "estimate_effects_pooled.y_pool": (
            lambda v: matching.estimate_effects_pooled(_X, _W, _Y, _X, _W, v), _Y,
            _VECTORS + ("length",), "y_pool"),
        # the scores fix the length here, and w of the other length is refused
        "propensity_match.scores": (
            lambda v: matching.propensity_match(v, _W), _SCORES, _VECTORS + ("length",),
            "scores|treatment w"),
        "balance_report.scores": (
            lambda v: propensity.balance_report(_X, _W, v), _SCORES, _VECTORS + ("length",),
            "scores"),
        "EffectEstimate.ite": (lambda v: matching.EffectEstimate(ite=v), _Y, _VECTORS, "ite"),
        "log_odds": (propensity.log_odds, _SCORES, _VECTORS, "scores"),
        "threshold_labels": (metrics.threshold_labels, _SCORES, _VECTORS, "scores"),
        "estimate_effects_pooled.z_pool, unmatched arm": (
            lambda z: matching.estimate_effects_pooled(
                _X[_W == 1], _W[_W == 1], _Y[_W == 1], z, _W, _Y),
            _X, ("nan",), "z_pool"),
        "nearest_opposite.z, own arm": (
            lambda z: matching.nearest_opposite(z, _W, 1), _X, ("nan",), "representations z"),
    }


def _bad_vector(v, kind):
    v = v.copy()
    if kind == "nan":
        v[3] = np.nan
    elif kind == "inf":
        v[3] = np.inf
    elif kind == "2-D":
        v = v[:, None]
    else:
        v = v[:11]
    return v


@pytest.mark.parametrize(
    "entry, kind",
    [(entry, kind) for entry, (_, _, kinds, _) in _vector_entry_points().items() for kind in kinds],
)
def test_entry_point_rejects_bad_vectors(entry, kind):
    call, good, _, names = _vector_entry_points()[entry]
    call(good.copy())  # the good input passes, so the bad one is what fails
    with pytest.raises(ValueError, match=names):
        call(_bad_vector(good, kind))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: network.TrainConfig(epochs=v), "epochs"),
        (lambda v: network.TrainConfig(epochs=1, batch_size=v), "batch_size"),
        (lambda v: SwissRollConfig(n=v), "n"),
        (lambda v: propensity.PropensityFitConfig(max_iter=v), "max_iter"),
    ],
    ids=["epochs", "batch_size", "n", "max_iter"],
)
@pytest.mark.parametrize("bad", [2.5, 3.0, True], ids=["float", "whole-float", "bool"])
def test_config_counts_must_be_integers(build, field, bad):
    build(np.int64(3))  # a NumPy integer is an integer
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
        build(bad)
