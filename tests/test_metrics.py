"""Report records, error metrics, and the silhouette coefficient."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from deepmatch.data import GroundTruth
from deepmatch.matching import EffectEstimate
from deepmatch.metrics import (
    REFERENCE_MISASSIGNMENT,
    EffectReport,
    PropensityReport,
    ite_error,
    misassignment_report,
    silhouette,
    threshold_labels,
)

from oracles import silhouette_scan


def make_truth(ite, seed=0):
    ite = np.asarray(ite, dtype=float)
    rng = np.random.default_rng(seed)
    y0 = rng.normal(size=ite.shape)
    return GroundTruth(y0=y0, y1=y0 + ite, group=np.zeros(len(ite), dtype=int))


def make_estimate(ite):
    return EffectEstimate(ite=np.asarray(ite, dtype=float))


class TestReportRecords:
    def test_effect_report_validated(self):
        with pytest.raises(ValueError):
            EffectReport(method="x", mean_abs_ite_error=-0.1, ate_error=0.0, n_test=5, seed=0)
        with pytest.raises(ValueError):
            EffectReport(method="x", mean_abs_ite_error=0.1, ate_error=-1.0, n_test=5, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mean_abs_ite_error", "ate_error"])
    def test_effect_report_rejects_non_finite(self, field, bad):
        # NaN fails every `< 0` test, so a sign check alone lets it through
        values = {"mean_abs_ite_error": 0.1, "ate_error": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EffectReport(method="", n_test=6, seed=0, **values)

    def test_propensity_report_range_validated(self):
        with pytest.raises(ValueError):
            PropensityReport(
                method="x",
                mean_abs_misassignment_error_pct=101.0,
                misassignment_rate_pct=0.0,
                accuracy_pct=50.0,
                seed=0,
            )

    def test_json_round_trip_through_text(self):
        effect = EffectReport(
            method="pca", mean_abs_ite_error=0.25, ate_error=0.03, n_test=300, seed=4
        )
        prop = PropensityReport(
            method="logistic",
            mean_abs_misassignment_error_pct=26.6,
            misassignment_rate_pct=38.0,
            accuracy_pct=62.0,
            seed=1,
        )
        assert EffectReport(**json.loads(json.dumps(asdict(effect)))) == effect
        assert PropensityReport(**json.loads(json.dumps(asdict(prop)))) == prop

    def test_reference_constants_documented_values(self):
        assert REFERENCE_MISASSIGNMENT["logistic"] == (26.6, 38.0, 62.0)
        assert REFERENCE_MISASSIGNMENT["propensity_net"] == (19.2, 26.0, 74.0)


class TestIteError:
    def test_identity_estimate_zero_error(self):
        truth = make_truth(np.linspace(-1, 1, 12))
        mask = np.ones(12, dtype=bool)
        report = ite_error(make_estimate(truth.ite_true), truth, mask, method="id", seed=3)
        assert report.mean_abs_ite_error == 0.0
        assert report.ate_error == 0.0
        assert report.n_test == 12
        assert report.method == "id" and report.seed == 3

    def test_constant_shift(self):
        truth = make_truth(np.linspace(0, 2, 10))
        mask = np.ones(10, dtype=bool)
        report = ite_error(make_estimate(truth.ite_true + 1.0), truth, mask)
        assert report.mean_abs_ite_error == pytest.approx(1.0)
        assert report.ate_error == pytest.approx(1.0)

    def test_random_instance_matches_one_line_oracle(self):
        rng = np.random.default_rng(5)
        truth = make_truth(rng.normal(size=30))
        mask = np.zeros(30, dtype=bool)
        mask[rng.choice(30, size=11, replace=False)] = True
        est_values = rng.normal(size=11)
        report = ite_error(make_estimate(est_values), truth, mask)
        true_sel = truth.ite_true[mask]
        oracle_mean_abs = sum(abs(a - b) for a, b in zip(est_values, true_sel)) / 11
        oracle_ate = abs(sum(est_values) / 11 - sum(true_sel) / 11)
        assert report.mean_abs_ite_error == pytest.approx(oracle_mean_abs, rel=1e-12)
        assert report.ate_error == pytest.approx(oracle_ate, rel=1e-9)
        assert report.n_test == 11

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        ite = rng.normal(size=20)
        est = rng.normal(size=20)
        truth = make_truth(ite)
        mask = np.ones(20, dtype=bool)
        base = ite_error(make_estimate(est), truth, mask)
        perm = rng.permutation(20)
        truth_p = GroundTruth(
            y0=truth.y0[perm],
            y1=truth.y1[perm],
            group=truth.group[perm],
        )
        permuted = ite_error(make_estimate(est[perm]), truth_p, mask)
        assert permuted.mean_abs_ite_error == pytest.approx(base.mean_abs_ite_error, rel=1e-12)
        assert permuted.ate_error == pytest.approx(base.ate_error, abs=1e-12)

    def test_missing_truth_rejected(self):
        with pytest.raises(ValueError, match="truth"):
            ite_error(make_estimate([1.0]), None, np.array([True]))

    def test_nan_estimate_rejected(self):
        truth = make_truth([1.0, 2.0])
        # the estimate type admits finite effects only, so a NaN never reaches scoring
        with pytest.raises(ValueError, match="finite"):
            ite_error(make_estimate([1.0, np.nan]), truth, np.array([True, True]))

    def test_shape_mismatches_rejected(self):
        truth = make_truth([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ite_error(make_estimate([1.0]), truth, np.array([True, True, False]))
        with pytest.raises(ValueError):
            ite_error(make_estimate([1.0, 2.0, 3.0]), truth, np.array([True, True]))


class TestMisassignment:
    def test_all_correct_zero(self):
        pair_index = np.array([2, 3, 0, 1])
        report = misassignment_report(
            np.array([0, 1]), np.array([2, 3]), pair_index, np.array([1, 0]), np.array([1, 0]),
            method="m", seed=2,
        )
        assert report.misassignment_rate_pct == 0.0
        assert report.mean_abs_misassignment_error_pct == 0.0
        assert report.accuracy_pct == 100.0

    def test_single_unit_one_off_in_arm_of_100(self):
        # 100 queries, all matched to their pair but query 0, which lands one index off
        pair_index = np.concatenate([np.arange(100, 200), np.arange(0, 100)])
        queries = np.arange(100)
        matched = pair_index[queries]
        matched[0] += 1
        report = misassignment_report(queries, matched, pair_index, np.array([1]), np.array([1]))
        # |101 - 100| / 100 queries, averaged over 100 queries, in percent
        assert report.mean_abs_misassignment_error_pct == pytest.approx(0.01)
        assert report.misassignment_rate_pct == pytest.approx(1.0)

    def test_rate_zero_iff_error_zero(self):
        rng = np.random.default_rng(7)
        pair_index = np.concatenate([np.arange(20, 40), np.arange(0, 20)])
        for _ in range(20):
            matched = 20 + rng.integers(0, 20, size=20)
            report = misassignment_report(
                np.arange(20), matched, pair_index, np.array([1]), np.array([1])
            )
            assert (report.misassignment_rate_pct == 0.0) == (
                report.mean_abs_misassignment_error_pct == 0.0
            )

    def test_accuracy_from_heldout_labels(self):
        report = misassignment_report(
            np.array([0]), np.array([1]), np.array([1, 0]),
            np.array([1, 0, 0, 1]), np.array([1, 1, 0, 0]),
        )
        assert report.accuracy_pct == pytest.approx(50.0)

    def test_missing_pair_index_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            misassignment_report(np.array([0]), np.array([1]), None, np.array([1]), np.array([1]))

    def test_empty_matches_rejected(self):
        none = np.array([], dtype=int)
        with pytest.raises(ValueError, match="non-empty"):
            misassignment_report(none, none, np.array([1, 0]), np.array([1]), np.array([1]))

    def test_empty_heldout_set_rejected_before_any_mean(self):
        # the warning filter turns numpy's "Mean of empty slice" into a failure
        none = np.array([], dtype=int)
        with pytest.raises(ValueError, match="held-out set is empty"):
            misassignment_report(np.array([0]), np.array([1]), np.array([1, 0]), none, none)

    def test_unaligned_queries_and_matches_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            misassignment_report(
                np.array([0, 1]), np.array([2]), np.array([2, 3, 0, 1]),
                np.array([1]), np.array([1]),
            )

    def test_threshold_labels_tie_goes_to_one(self):
        labels = threshold_labels(np.array([0.49, 0.5, 0.51]))
        assert labels.tolist() == [0, 1, 1]


class TestSilhouette:
    def test_two_distant_tight_clusters(self):
        rng = np.random.default_rng(8)
        z = np.vstack(
            [
                rng.normal(scale=0.05, size=(25, 2)),
                rng.normal(loc=10.0, scale=0.05, size=(25, 2)),
            ]
        )
        labels = np.array([0] * 25 + [1] * 25)
        assert silhouette(z, labels) > 0.9

    def test_duplicated_points_across_labels_non_positive(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(30, 3))
        z = np.vstack([base, base])
        labels = np.array([0] * 30 + [1] * 30)
        assert silhouette(z, labels) <= 0.0

    def test_random_labels_on_noise_near_zero(self):
        values = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.random((200, 2))
            labels = rng.integers(0, 3, size=200)
            values.append(abs(silhouette(z, labels)))
        assert np.median(values) < 0.1

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            z = rng.normal(size=(40, 3))
            labels = rng.integers(0, 4, size=40)
            if len(np.unique(labels)) < 2:
                continue
            assert silhouette(z, labels) == pytest.approx(silhouette_scan(z, labels), abs=1e-8)

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
    def test_translated_clusters_match_scan_oracle(self, offset):
        # distances formed by |a|^2 + |b|^2 - 2ab cancel away once the
        # offset dwarfs the spread: at 1e8 that read 0.25 for about 0.9
        rng = np.random.default_rng(3)
        z = np.vstack([rng.normal(0.0, 0.05, (20, 2)), rng.normal(0.0, 0.05, (20, 2)) + [1.0, 0.0]])
        labels = np.repeat([0, 1], 20)
        expected = silhouette_scan(z + offset, labels)
        assert expected > 0.9
        assert silhouette(z + offset, labels) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        z = np.random.default_rng(4).normal(size=(10, 2))
        z[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            silhouette(z, np.arange(10) % 2)

    def test_span_whose_distances_could_overflow_rejected(self):
        # 2e154 apart: the squared distance would overflow, and the check itself does not
        for big in (2e154, 1e308):
            z = np.array([[0.0, 0.0], [0.0, 1.0], [big, 0.0], [big, 1.0]])
            with pytest.raises(ValueError, match="embedding z span too wide"):
                silhouette(z, [0, 0, 1, 1])
        z = np.array([[0.0, 0.0], [0.0, 1.0], [6e153, 0.0], [6e153, 1.0]])
        assert silhouette(z, [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_singleton_cluster_contributes_zero(self):
        z = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1])
        expected = silhouette_scan(z, labels)
        assert silhouette(z, labels) == pytest.approx(expected, abs=1e-12)

    def test_single_label_rejected(self):
        z = np.zeros((5, 2))
        with pytest.raises(ValueError, match="two distinct labels"):
            silhouette(z, np.zeros(5, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((5, 2)), np.zeros(4, dtype=int))
