"""Propensity models: the dense classifier, logistic MLE, and balance checks."""

import warnings

import numpy as np
import pytest

from deepmatch import propensity
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
from deepmatch.data import gen_propensity_pairs, train_test_split
from deepmatch.metrics import threshold_labels
from deepmatch.network import TrainConfig, init_network

from oracles import irls_logistic


def logistic_sample(n, beta, seed):
    """Draw (x, w) with true propensity sigmoid(beta0 + x @ beta[1:])."""
    rng = np.random.default_rng(seed)
    d = len(beta) - 1
    x = rng.normal(size=(n, d))
    eta = beta[0] + x @ np.asarray(beta[1:])
    w = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return x, w


def mean_nll_gradient(x, w, model, l2):
    """Gradient of the mean NLL plus (l2/2)|coef|^2, by the textbook formula."""
    p = 1.0 / (1.0 + np.exp(-(model.intercept + x @ model.coef)))
    resid = p - w
    return np.concatenate([[resid.mean()], x.T @ resid / len(w) + l2 * model.coef])


def separated_designs():
    """Perfectly separated classes, for which no finite MLE exists."""
    line = np.linspace(-2, 2, 40).reshape(-1, 1)
    yield line, (line[:, 0] > 0).astype(int)
    plane = np.random.default_rng(22).normal(size=(60, 2))
    yield plane, (plane @ (1.0, -2.0) > 0.3).astype(int)
    yield np.array([[-3.0], [-1.0], [1.0], [3.0]]), np.array([0, 0, 1, 1])


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

    @pytest.mark.parametrize("l2", [0.0, 0.5])
    def test_gradient_below_tolerance_at_returned_coefficients(self, l2):
        cfg = PropensityFitConfig(l2=l2)
        for seed, beta in ((23, (0.4, 1.3, -0.7)), (24, (-1.0, 0.3)), (25, (0.2, 2.0, 0.0, -1.5))):
            x, w = logistic_sample(400, beta, seed)
            model = fit_logistic(x, w, cfg)
            grad = mean_nll_gradient(x, w, model, l2)
            assert np.abs(grad).max() < cfg.grad_tol
            assert model.grad_norm < cfg.grad_tol

    def test_binary_covariate_matches_closed_form(self):
        # with one 0/1 covariate the MLE fits each group's rate exactly: the
        # intercept is the log-odds at x=0, the coefficient the difference
        rng = np.random.default_rng(26)
        x = (rng.random(500) < 0.4).astype(float).reshape(-1, 1)
        w = (rng.random(500) < np.where(x[:, 0] == 1, 0.7, 0.35)).astype(int)
        logit = [np.log(w[x[:, 0] == g].mean() / (1 - w[x[:, 0] == g].mean())) for g in (0, 1)]
        model = fit_logistic(x, w)
        assert model.intercept == pytest.approx(logit[0], abs=1e-6)
        assert model.coef[0] == pytest.approx(logit[1] - logit[0], abs=1e-6)

    def test_collinear_columns_give_minimum_norm_mle(self):
        # A singular Hessian has a family of MLEs; the fit returns the one of
        # least norm, which splits the shared coefficient evenly.
        x, w = logistic_sample(300, (0.2, 1.2), 31)
        single = fit_logistic(x, w)
        duplicated = fit_logistic(np.hstack([x, x]), w)
        assert duplicated.intercept == pytest.approx(single.intercept, abs=1e-7)
        assert np.abs(duplicated.coef - single.coef[0] / 2).max() < 1e-7
        beside_intercept = fit_logistic(np.hstack([x, np.ones_like(x)]), w)
        assert beside_intercept.coef[0] == pytest.approx(single.coef[0], abs=1e-7)
        assert beside_intercept.intercept == pytest.approx(single.intercept / 2, abs=1e-7)
        assert beside_intercept.coef[1] == pytest.approx(single.intercept / 2, abs=1e-7)
        # an independent gradient-descent fit of this data agrees to within 1e-7
        assert single.intercept == pytest.approx(0.373614545, abs=1e-7)
        assert single.coef[0] == pytest.approx(1.242545183, abs=1e-7)

    def test_separated_classes_converge_or_name_the_gradient(self):
        for x, w in separated_designs():
            for cfg in (PropensityFitConfig(), PropensityFitConfig(max_iter=3)):
                try:
                    model = fit_logistic(x, w, cfg)
                except LogisticDidNotConverge as exc:
                    assert "gradient norm" in str(exc)
                else:
                    assert model.grad_norm < cfg.grad_tol
                    assert np.array_equal(model.predict(x) > 0.5, w == 1)

    def test_step_halved_when_the_nll_rises(self, monkeypatch):
        # Fake an overshoot: the first Newton step reports an infinite NLL
        # and no slope, so the fit must try half of it and still converge.
        real = propensity._mean_nll_and_grad
        betas = []

        def objective(design, labels, beta, ridge):
            betas.append(beta.copy())
            nll, grad, p = real(design, labels, beta, ridge)
            if len(betas) == 2:
                return np.inf, np.full_like(grad, np.nan), p
            return nll, grad, p

        monkeypatch.setattr(propensity, "_mean_nll_and_grad", objective)
        x, w = logistic_sample(250, (0.4, 1.3, -0.7), 0)
        model = fit_logistic(x, w)
        assert np.array_equal(betas[2], betas[0] - 0.5 * (betas[0] - betas[1]))
        fitted = np.concatenate([[model.intercept], model.coef])
        assert np.abs(fitted - irls_logistic(x, w)).max() < 1e-6

    def test_converges_on_covariates_far_from_the_origin(self):
        # An offset of 200 makes the Hessian ill-conditioned, and near the
        # optimum the last steps change the mean NLL by less than its
        # rounding; a test on the NLL value alone then stalls short of
        # grad_tol.
        cfg = PropensityFitConfig()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(200, 1)) + 200.0
            w = (rng.random(200) < 1.0 / (1.0 + np.exp(-2.0 * (x[:, 0] - 200.0)))).astype(int)
            model = fit_logistic(x, w, cfg)
            assert np.abs(mean_nll_gradient(x, w, model, 0.0)).max() < cfg.grad_tol

    def test_overflowing_features_raise_named_error(self):
        x = np.random.default_rng(29).normal(size=(50, 2)) * 1e200
        w = np.array([0, 1] * 25)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LogisticDidNotConverge, match="gradient norm"):
                fit_logistic(x, w)

    def test_fit_record_on_propensity_benchmark_data(self):
        # A guard against a slide back to a first-order method, which took
        # 219-265 likelihood evaluations on these folds.
        for seed in (1001, 1002, 1003):
            ds = gen_propensity_pairs(5000, 0.02, seed=seed)
            model, _ = fit("logistic", ds.x, ds.w, seed=seed)
            assert 1 <= model.iterations <= 10
            assert model.grad_norm < PropensityFitConfig().grad_tol

    def test_predict_on_saturated_model_emits_no_warning(self):
        x, w = next(separated_designs())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic(x, w)
            scores = model.predict(x * 10)
        assert model.coef[0] > 100
        assert scores[0] == 0.0 and scores[-1] == 1.0

    def test_predict_bit_identical_to_textbook_sigmoid(self):
        rng = np.random.default_rng(27)
        model = LogisticModel(intercept=0.3, coef=np.array([40.0, -25.0]), iterations=0, grad_norm=0.0)
        x = rng.uniform(-8.0, 8.0, size=(2000, 2))
        eta = model.intercept + x @ model.coef  # |eta| <= 520.3: exp(-eta) is finite
        assert np.array_equal(model.predict(x), 1.0 / (1.0 + np.exp(-eta)))

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
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=name):
            if name in ("epochs", "batch_size"):  # the net's schedule
                PropensityFitConfig(net=TrainConfig(**{"epochs": 2, name: value}))
            else:
                PropensityFitConfig(**bad)

    def test_labels_validated(self):
        x = np.random.default_rng(7).normal(size=(10, 2))
        with pytest.raises(ValueError):
            fit_logistic(x, np.array([0, 1, 2] + [0] * 7))
        with pytest.raises(ValueError):
            fit_logistic(x, np.ones(9, dtype=int))


class TestPredict:
    def test_zero_weight_logistic_scores_half(self):
        model = LogisticModel(intercept=0.0, coef=np.zeros(2), iterations=0, grad_norm=0.0)
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
        cfg = PropensityFitConfig(net=TrainConfig(epochs=20, batch_size=32))
        net_model = fit_propensity_net(x, w, cfg, seed=0)
        scores = net_model.predict(x * 10)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_dimension_mismatch_rejected(self):
        model = LogisticModel(intercept=0.0, coef=np.zeros(2), iterations=0, grad_norm=0.0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 3)))

    def test_log_odds_finite_at_extremes(self):
        lo = log_odds(np.array([0.0, 1e-300, 0.5, 1.0]))
        assert np.all(np.isfinite(lo))
        assert lo[2] == 0.0


class TestFitProtocol:
    def test_holdout_split_recorded(self):
        x, w = logistic_sample(200, (0.2, 1.0), 11)
        _, test_idx = fit("logistic", x, w, seed=4)
        assert np.array_equal(test_idx, train_test_split(200, 0.2, 4)[1])
        assert len(test_idx) == 40
        assert np.array_equal(test_idx, np.unique(test_idx))
        cfg = PropensityFitConfig(net=TrainConfig(epochs=2, batch_size=32))
        _, net_test_idx = fit("propensity_net", x, w, cfg, seed=4)
        assert np.array_equal(test_idx, net_test_idx)

    def test_training_fold_losing_a_class_rejected(self):
        # one treated unit, placed in the seeded test fold: both classes are
        # present overall, but the training fold holds controls only
        x = np.random.default_rng(21).normal(size=(10, 2))
        cfg = PropensityFitConfig()
        _, test_idx = train_test_split(10, cfg.test_fraction, 3)
        w = np.zeros(10, dtype=int)
        w[test_idx[0]] = 1
        for kind in ("logistic", "propensity_net"):
            with pytest.raises(ValueError, match="treatment class"):
                fit(kind, x, w, cfg, seed=3)

    @pytest.mark.parametrize("kind", ["logistic", "propensity_net"])
    def test_schedule_rejected_before_either_kind_fits(self, kind):
        # the logistic fit ignores the schedule, yet a zero one cannot even be built
        x, w = logistic_sample(50, (0.0, 1.0), 13)
        for bad in ({"epochs": 0}, {"batch_size": 0}):
            with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must be >= 1"):
                fit(kind, x, w, PropensityFitConfig(net=TrainConfig(**{"epochs": 2, **bad})), seed=0)

    def test_same_seed_same_scores(self):
        x, w = logistic_sample(150, (0.0, 1.0, 1.0), 12)
        cfg = PropensityFitConfig(net=TrainConfig(epochs=5, batch_size=32))
        a = fit("propensity_net", x, w, cfg, seed=9)[0].predict(x)
        b = fit("propensity_net", x, w, cfg, seed=9)[0].predict(x)
        assert np.array_equal(a, b)

    def test_unknown_kind_rejected(self):
        x, w = logistic_sample(50, (0.0, 1.0), 13)
        with pytest.raises(ValueError, match="unknown model kind"):
            fit("forest", x, w, seed=0)

    def test_separable_toy_training_accuracy(self):
        rng = np.random.default_rng(14)
        x = np.vstack(
            [
                rng.normal(loc=(-2.0, -2.0), scale=0.5, size=(100, 2)),
                rng.normal(loc=(2.0, 2.0), scale=0.5, size=(100, 2)),
            ]
        )
        w = np.array([0] * 100 + [1] * 100)
        cfg = PropensityFitConfig(net=TrainConfig(epochs=100, batch_size=32))
        model = fit_propensity_net(x, w, cfg, seed=0)
        accuracy = np.mean((model.predict(x) >= 0.5).astype(int) == w)
        assert accuracy > 0.95

    def test_holdout_accuracy_range(self):
        x, w = logistic_sample(200, (0.0, 2.5), 15)
        model, test_idx = fit("logistic", x, w, seed=1)
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

    def test_labels_validated(self):
        # labels outside {0, 1} used to return a plausible SMD, and a single
        # arm a NaN with a "Degrees of freedom <= 0" warning
        x = np.random.default_rng(28).normal(size=(20, 2))
        scores = np.linspace(0.1, 0.9, 20)
        with pytest.raises(ValueError, match="0 or 1"):
            balance_report(x, np.array([0, 1, 2, 3] * 5), scores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="both treatment classes"):
                balance_report(x, np.ones(20, dtype=int), scores)
