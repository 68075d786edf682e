"""Propensity models: the dense classifier, logistic MLE, and balance checks."""

import numpy as np
import pytest

from deepmatch.propensity import (
    LogisticDidNotConverge,
    LogisticModel,
    PropensityFitConfig,
    PropensityNetModel,
    balance_report,
    build_propensity_net,
    fit,
    fit_logistic,
    fit_propensity_net,
    log_odds,
)
from deepmatch.data import train_test_split
from deepmatch.metrics import threshold_labels
from deepmatch.network import init_network

from oracles import irls_logistic


def logistic_sample(n, beta, seed):
    """Draw (x, w) with true propensity sigmoid(beta0 + x @ beta[1:])."""
    rng = np.random.default_rng(seed)
    d = len(beta) - 1
    x = rng.normal(size=(n, d))
    eta = beta[0] + x @ np.asarray(beta[1:])
    w = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return x, w


class TestBuildPropensityNet:
    def test_param_count_input_dim_2(self):
        spec = build_propensity_net(2)
        assert spec.param_count == 382
        per_layer = [(l.fan_in + 1) * l.fan_out for l in spec.layers]
        assert per_layer == [30, 110, 110, 110, 22]

    def test_param_count_input_dim_3(self):
        assert build_propensity_net(3).param_count == 392

    def test_param_count_formula(self):
        for d in (1, 2, 5, 9):
            assert build_propensity_net(d).param_count == 10 * d + 10 + 3 * 110 + 22

    def test_layer_structure(self):
        spec = build_propensity_net(2)
        assert [l.fan_out for l in spec.layers] == [10, 10, 10, 10, 2]
        assert [l.activation for l in spec.layers] == ["relu"] * 4 + ["softmax"]
        assert [l.dropout_rate for l in spec.layers] == [0.3] * 4 + [0.0]
        assert spec.loss == "categorical_cross_entropy"

    def test_input_dim_validated(self):
        with pytest.raises(ValueError):
            build_propensity_net(0)


class TestFitLogistic:
    def test_matches_newton_oracle(self):
        for seed, beta in ((0, (0.4, 1.3, -0.7)), (1, (-0.2, 0.8)), (2, (0.0, 0.5, 0.5, -1.0))):
            x, w = logistic_sample(250, beta, seed)
            model = fit_logistic(x, w)
            fitted = np.concatenate([[model.intercept], model.coef])
            oracle = irls_logistic(x, w)
            assert np.abs(fitted - oracle).max() < 1e-6

    def test_uninformative_data_gives_half(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(150, 2))
        x = np.vstack([x, x])
        w = np.array([1] * 150 + [0] * 150)
        model = fit_logistic(x, w)
        assert np.abs(model.predict(x) - 0.5).max() < 0.02

    def test_separable_data_monotone_scores(self):
        # fully separable data saturates the extremes to exactly 0 and 1 in
        # float, so strict growth is only checkable away from the clamps
        x = np.linspace(-2, 2, 40).reshape(-1, 1)
        w = (x[:, 0] > 0).astype(int)
        model = fit_logistic(x, w)
        scores = model.predict(x)
        assert np.all(np.diff(scores) >= 0)
        interior = (scores > 1e-9) & (scores < 1.0 - 1e-9)
        assert interior.sum() >= 2
        assert np.all(np.diff(scores[interior]) > 0)
        assert scores[0] < 0.5 < scores[-1]

    def test_iteration_cap_reported(self):
        x, w = logistic_sample(200, (0.3, 1.0), 4)
        with pytest.raises(LogisticDidNotConverge, match="gradient norm"):
            fit_logistic(x, w, PropensityFitConfig(max_iter=2))

    def test_single_class_rejected(self):
        x = np.random.default_rng(5).normal(size=(20, 2))
        with pytest.raises(ValueError, match="both treatment classes"):
            fit_logistic(x, np.ones(20, dtype=int))

    def test_l2_shrinks_coefficients(self):
        x, w = logistic_sample(200, (0.0, 2.0, -1.5), 6)
        plain = fit_logistic(x, w)
        ridged = fit_logistic(x, w, PropensityFitConfig(l2=1.0))
        assert np.linalg.norm(ridged.coef) < np.linalg.norm(plain.coef)

    @pytest.mark.parametrize(
        "bad",
        [
            {"l2": float("nan")},
            {"l2": float("inf")},
            {"l2": -1.0},
            {"grad_tol": float("nan")},
            {"grad_tol": float("inf")},
            {"grad_tol": -1.0},
            {"grad_tol": 0.0},
            {"max_iter": 0},
            {"max_iter": -5},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_fit_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            PropensityFitConfig(**bad)

    def test_labels_validated(self):
        x = np.random.default_rng(7).normal(size=(10, 2))
        with pytest.raises(ValueError):
            fit_logistic(x, np.array([0, 1, 2] + [0] * 7))
        with pytest.raises(ValueError):
            fit_logistic(x, np.ones(9, dtype=int))


class TestPredict:
    def test_zero_weight_logistic_scores_half(self):
        model = LogisticModel(intercept=0.0, coef=np.zeros(2))
        x = np.random.default_rng(8).normal(size=(15, 2))
        assert np.all(model.predict(x) == 0.5)

    def test_zeroed_net_scores_half(self):
        net = init_network(build_propensity_net(2), seed=0)
        for w, b in zip(net.weights, net.biases):
            w[...] = 0.0
            b[...] = 0.0
        model = PropensityNetModel(network=net)
        x = np.random.default_rng(9).normal(size=(10, 2))
        assert np.allclose(model.predict(x), 0.5, atol=1e-15)

    def test_scores_in_unit_interval(self):
        x, w = logistic_sample(300, (0.0, 3.0, -2.0), 10)
        net_model = fit_propensity_net(x, w, PropensityFitConfig(epochs=20, batch_size=32, seed=0))
        scores = net_model.predict(x * 10)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_dimension_mismatch_rejected(self):
        model = LogisticModel(intercept=0.0, coef=np.zeros(2))
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 3)))

    def test_log_odds_finite_at_extremes(self):
        lo = log_odds(np.array([0.0, 1e-300, 0.5, 1.0]))
        assert np.all(np.isfinite(lo))
        assert lo[2] == 0.0


class TestFitProtocol:
    def test_holdout_split_recorded(self):
        x, w = logistic_sample(200, (0.2, 1.0), 11)
        _, test_idx = fit("logistic", x, w, PropensityFitConfig(seed=4))
        assert np.array_equal(test_idx, train_test_split(200, 0.2, 4)[1])
        assert len(test_idx) == 40
        assert np.array_equal(test_idx, np.unique(test_idx))
        cfg = PropensityFitConfig(seed=4, epochs=2, batch_size=32)
        _, net_test_idx = fit("propensity_net", x, w, cfg)
        assert np.array_equal(test_idx, net_test_idx)

    def test_training_fold_losing_a_class_rejected(self):
        # one treated unit, placed in the seeded test fold: both classes are
        # present overall, but the training fold holds controls only
        x = np.random.default_rng(21).normal(size=(10, 2))
        cfg = PropensityFitConfig(seed=3)
        _, test_idx = train_test_split(10, cfg.test_fraction, cfg.seed)
        w = np.zeros(10, dtype=int)
        w[test_idx[0]] = 1
        for kind in ("logistic", "propensity_net"):
            with pytest.raises(ValueError, match="treatment class"):
                fit(kind, x, w, cfg)

    @pytest.mark.parametrize("kind", ["logistic", "propensity_net"])
    def test_schedule_rejected_before_either_kind_fits(self, kind):
        # the logistic fit ignores the schedule, yet a zero one is still refused
        x, w = logistic_sample(50, (0.0, 1.0), 13)
        for bad in ({"epochs": 0}, {"batch_size": 0}):
            with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must be >= 1"):
                fit(kind, x, w, PropensityFitConfig(**bad))

    def test_same_seed_same_scores(self):
        x, w = logistic_sample(150, (0.0, 1.0, 1.0), 12)
        cfg = PropensityFitConfig(seed=9, epochs=5, batch_size=32)
        a = fit("propensity_net", x, w, cfg)[0].predict(x)
        b = fit("propensity_net", x, w, cfg)[0].predict(x)
        assert np.array_equal(a, b)

    def test_unknown_kind_rejected(self):
        x, w = logistic_sample(50, (0.0, 1.0), 13)
        with pytest.raises(ValueError, match="unknown model kind"):
            fit("forest", x, w)

    def test_separable_toy_training_accuracy(self):
        rng = np.random.default_rng(14)
        x = np.vstack(
            [
                rng.normal(loc=(-2.0, -2.0), scale=0.5, size=(100, 2)),
                rng.normal(loc=(2.0, 2.0), scale=0.5, size=(100, 2)),
            ]
        )
        w = np.array([0] * 100 + [1] * 100)
        model = fit_propensity_net(x, w, PropensityFitConfig(epochs=100, batch_size=32, seed=0))
        accuracy = np.mean((model.predict(x) >= 0.5).astype(int) == w)
        assert accuracy > 0.95

    def test_holdout_accuracy_range(self):
        x, w = logistic_sample(200, (0.0, 2.5), 15)
        model, test_idx = fit("logistic", x, w, PropensityFitConfig(seed=1))
        acc = np.mean(threshold_labels(model.predict(x[test_idx])) == w[test_idx])
        assert 0.5 < acc <= 1.0


class TestBalanceReport:
    def test_identical_arms_zero_smd(self):
        rng = np.random.default_rng(16)
        x_half = rng.normal(size=(50, 3))
        x = np.vstack([x_half, x_half])
        w = np.array([1] * 50 + [0] * 50)
        scores = np.tile(rng.random(50), 2)
        report = balance_report(x, w, scores)
        assert all(abs(s) < 1e-12 for s in report.covariate_smd)
        assert abs(report.score_smd) < 1e-12

    def test_unit_shift_gives_smd_one(self):
        # both arms share the sampled SD, so the exact SMD is 1/std(base)
        rng = np.random.default_rng(17)
        base = rng.normal(size=(4000, 1))
        x = np.vstack([base, base + 1.0])
        w = np.array([0] * 4000 + [1] * 4000)
        scores = np.random.default_rng(18).random(8000)
        report = balance_report(x, w, scores, n_strata=1)
        assert report.covariate_smd[0] == pytest.approx(1.0 / float(base.std()), rel=1e-12)
        assert abs(report.covariate_smd[0] - 1.0) < 0.02

    def test_zero_variance_flagged_not_divided(self):
        x = np.ones((20, 2))
        x[:, 1] = np.arange(20)
        w = np.array([0, 1] * 10)
        report = balance_report(x, w, np.linspace(0, 1, 20))
        assert report.covariate_smd[0] is None
        assert report.covariate_smd[1] is not None

    def test_strata_structure(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(200, 2))
        w = rng.integers(0, 2, size=200)
        scores = rng.random(200)
        report = balance_report(x, w, scores, n_strata=5)
        assert len(report.strata) == 5
        assert sum(s.n_control + s.n_treated for s in report.strata) == 200
        for s in report.strata:
            assert s.score_lo <= s.score_hi

    def test_missing_arm_stratum_flagged(self):
        # low stratum is all controls (flagged); high stratum mixes both arms
        x = np.random.default_rng(20).normal(size=(60, 1))
        w = np.array([0] * 40 + [1] * 20)
        scores = np.concatenate(
            [
                np.linspace(0.0, 0.4, 30),
                np.linspace(0.6, 0.7, 10),
                np.linspace(0.75, 1.0, 20),
            ]
        )
        report = balance_report(x, w, scores, n_strata=2)
        assert report.strata[0].smd is None
        assert report.strata[0].n_treated == 0
        assert report.strata[1].n_control == 10
        assert report.strata[1].smd is not None

    def test_randomized_assignment_smd_shrinks_with_n(self):
        def median_abs_smd(n):
            values = []
            for seed in range(5):
                rng = np.random.default_rng(seed)
                x = rng.normal(size=(n, 2))
                w = rng.integers(0, 2, size=n)
                report = balance_report(x, w, rng.random(n), n_strata=1)
                values.append(max(abs(s) for s in report.covariate_smd))
            return np.median(values)

        assert median_abs_smd(2000) < median_abs_smd(200)

    def test_alignment_validated(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError):
            balance_report(x, np.zeros(9), np.zeros(9))
        with pytest.raises(ValueError):
            balance_report(x, np.zeros(10), np.zeros(10), n_strata=0)
        for bad in (np.nan, np.inf):
            scores = np.linspace(0.1, 0.9, 10)
            scores[3] = bad
            with pytest.raises(ValueError, match="scores must be finite"):
                balance_report(x, np.arange(10) % 2, scores)
