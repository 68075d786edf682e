"""Acceptance checks: one test per documented claim, at the documented
tolerance and runtime budget.

The two five-seed default-config studies are expensive, so they run once
per module and the ordering claims share their results.
"""

import json
import math
import time

import numpy as np
import pytest

from deepmatch.cli import main
from deepmatch.data import gen_swiss_roll, train_test_split
from deepmatch.embedding import fit_lle, fit_pca, lle_weight_matrix
from deepmatch.experiments import (
    SPLIT_SEED_OFFSET,
    SWISSROLL_METHODS,
    parse_propensity,
    parse_swissroll,
    run_propensity,
    run_swissroll,
)
from deepmatch.gradcheck import default_grid, run_case
from deepmatch.matching import estimate_effects, estimate_effects_pooled, nearest_opposite
from deepmatch.metrics import ite_error, silhouette
from deepmatch.propensity import MODEL_KINDS as PROPENSITY_METHODS
from deepmatch.propensity import build_propensity_net

from oracles import (
    adadelta_delta,
    effects_scan,
    eigvals_3x3_closed_form,
    knn_scan,
    lle_dense_eigh,
    lle_dense_weights,
    swiss_roll_charts,
)

N_STUDY_SEEDS = 5
STUDY_BUDGET_SECONDS = 300.0


def load_train_embedding(path):
    """Read one embedding CSV back; return (train coords, train group labels)."""
    z, groups = [], []
    for line in path.read_text().splitlines()[1:]:
        parts = line.split(",")
        if parts[1] != "train":
            continue
        groups.append(int(parts[2]))
        z.append([float(v) for v in parts[4:]])
    return np.array(z), np.array(groups)


@pytest.fixture(scope="module")
def swissroll_study(tmp_path_factory):
    """Default-config runs for seeds 0..4: per-method ITE errors and
    per-method silhouette of the six rank bands in the fitted embedding."""
    ite = {m: [] for m in SWISSROLL_METHODS}
    sil = {m: [] for m in ("pca", "lle", "autoencoder")}
    start = time.monotonic()
    for seed in range(N_STUDY_SEEDS):
        out = tmp_path_factory.mktemp(f"sr_seed{seed}")
        reports = run_swissroll(parse_swissroll({}, seed_override=seed), out, force=True)
        for r in reports:
            ite[r.method].append(r.mean_abs_ite_error)
        for method in sil:
            z, groups = load_train_embedding(out / f"embedding_{method}.csv")
            sil[method].append(silhouette(z, groups))
    elapsed = time.monotonic() - start
    return {"ite": ite, "sil": sil, "elapsed": elapsed}


@pytest.fixture(scope="module")
def propensity_study(tmp_path_factory):
    """Default-config jittered-pairs runs for seeds 0..4."""
    accuracy = {m: [] for m in PROPENSITY_METHODS}
    rate = {m: [] for m in PROPENSITY_METHODS}
    start = time.monotonic()
    for seed in range(N_STUDY_SEEDS):
        out = tmp_path_factory.mktemp(f"ps_seed{seed}")
        reports = run_propensity(parse_propensity({}, seed_override=seed), out, force=True)
        for r in reports:
            accuracy[r.method].append(r.accuracy_pct)
            rate[r.method].append(r.misassignment_rate_pct)
    elapsed = time.monotonic() - start
    return {"accuracy": accuracy, "rate": rate, "elapsed": elapsed}


def test_gradient_grid_matches_finite_differences_within_budget():
    start = time.monotonic()
    cases = default_grid(count=24, seed=0)
    assert len(cases) >= 20
    worst = max(run_case(case, step=1e-5) for case in cases)
    elapsed = time.monotonic() - start
    assert worst < 1e-4, f"worst relative gradient error {worst:.3g}"
    assert elapsed < 30.0, f"gradient audit took {elapsed:.1f}s"


def test_classifier_parameter_count_is_exactly_382():
    spec = build_propensity_net(2)
    per_layer = [l.fan_in * l.fan_out + l.fan_out for l in spec.layers]
    assert per_layer == [30, 110, 110, 110, 22]
    assert spec.param_count == 382


def test_matching_agrees_exactly_with_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(4, 201))
        d = int(rng.integers(1, 6))
        z = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        w = np.zeros(n, dtype=int)
        w[rng.permutation(n)[: int(rng.integers(1, n))]] = 1
        k = min(int(rng.integers(1, 4)), int((w == 1).sum()), int((w == 0).sum()))

        est = estimate_effects(z, w, y, k=k)
        assert est.ite.tolist() == effects_scan(z.tolist(), w.tolist(), y.tolist(), k)
        for i in map(int, rng.integers(0, n, size=3)):
            got_idx, got_dist = nearest_opposite(z, w, i, k=k)
            idx, dist = knn_scan(z.tolist(), w.tolist(), i, k)
            assert got_idx.tolist() == idx
            assert got_dist.tolist() == dist


def test_every_method_recovers_twin_effects_exactly(tmp_path):
    cfg = parse_swissroll(
        {"dataset": {"n": 150}, "twin_mode": True, "autoencoder": {"epochs": 60}}
    )
    reports = run_swissroll(cfg, tmp_path / "twin")
    assert {r.method for r in reports} == set(SWISSROLL_METHODS)
    for r in reports:
        assert r.mean_abs_ite_error <= 1e-10, f"{r.method}: {r.mean_abs_ite_error}"


def test_pca_plane_reconstruction_and_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    basis = np.array([[1.0, 0.5, -0.25], [0.0, 1.0, 0.75]])
    x = (rng.normal(size=(200, 2)) * np.array([2.0, 0.7])) @ basis
    emb = fit_pca(x, 2)
    recon = (emb.transform(x) @ emb.components.T) * emb.scale + emb.mean
    assert np.abs(recon - x).max() < 1e-8

    for _ in range(50):
        x3 = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 3))
        z = (x3 - x3.mean(axis=0)) / x3.std(axis=0)
        expect = eigvals_3x3_closed_form((z.T @ z) / (z.shape[0] - 1))[::-1]
        assert np.abs(fit_pca(x3, 3).eigenvalues - expect).max() <= 1e-8


def test_lle_weight_rows_and_dense_eigen_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 3))
    w = lle_dense_weights(*lle_weight_matrix(x, k_neighbors=6, reg=1e-3))
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10

    x20 = np.random.default_rng(22).normal(size=(20, 3))
    emb = fit_lle(x20, 2, k_neighbors=5, reg=1e-3)
    vals, vecs = lle_dense_eigh(*lle_weight_matrix(x20, 5, 1e-3))
    assert vals[3] - vals[2] > 1e-3, "degenerate spectrum would make the check ill-posed"
    oracle = vecs[:, 1:3]
    # orthogonal transforms of the embedding are equivalent, so compare Grams
    assert np.abs(emb.embedding @ emb.embedding.T - oracle @ oracle.T).max() < 1e-6


def test_learned_embeddings_separate_bands_better_than_pca(swissroll_study):
    assert swissroll_study["elapsed"] < STUDY_BUDGET_SECONDS
    med = {m: float(np.median(v)) for m, v in swissroll_study["sil"].items()}
    detail = ", ".join(f"{m}={v:.4f}" for m, v in sorted(med.items()))
    assert med["autoencoder"] > med["pca"], f"median silhouettes: {detail}"
    assert med["lle"] > med["pca"], f"median silhouettes: {detail}"


def test_autoencoder_matching_error_below_pca_and_raw(swissroll_study):
    med = {m: float(np.median(v)) for m, v in swissroll_study["ite"].items()}
    detail = ", ".join(f"{m}={v:.4f}" for m, v in sorted(med.items()))
    assert med["autoencoder"] < med["pca"], f"median ITE errors: {detail}"
    assert med["autoencoder"] < med["raw_knn"], f"median ITE errors: {detail}"


def test_isometric_chart_matches_better_than_raw_coordinates(swissroll_study):
    # Why the check above fails: a 2-D code can beat raw matching, but only an
    # isometric one that also undoes the positional noise. The exact charts of
    # the study's own units, matched as the study matches, bracket raw_knn.
    study = parse_swissroll({})
    cfg = study.dataset
    errors = {"isometric": [], "parametric": []}
    for seed in range(N_STUDY_SEEDS):
        ds = gen_swiss_roll(cfg, seed)
        charts = swiss_roll_charts(cfg.n, seed)
        t, h = charts[1].T
        roll = np.column_stack((t * np.cos(t), h, t * np.sin(t)))
        assert np.abs(ds.x - roll).max() < 10 * cfg.noise_sigma  # the redrawn units are the study's
        train, test = train_test_split(ds.n_units, study.test_fraction, seed + SPLIT_SEED_OFFSET)
        mask = np.zeros(ds.n_units, dtype=bool)
        mask[test] = True
        for name, z in zip(errors, charts, strict=True):
            est = estimate_effects_pooled(
                z[test], ds.w[test], ds.y_obs[test], z[train], ds.w[train], ds.y_obs[train],
                k=study.k_matches,
            )
            errors[name].append(ite_error(est, ds.truth, mask).mean_abs_ite_error)
    med = {name: float(np.median(v)) for name, v in errors.items()}
    med["raw_knn"] = float(np.median(swissroll_study["ite"]["raw_knn"]))
    assert med["isometric"] < med["raw_knn"] < med["parametric"], f"median ITE errors: {med}"


def test_dense_classifier_ordering_on_jittered_pairs(propensity_study):
    assert propensity_study["elapsed"] < STUDY_BUDGET_SECONDS
    acc = {m: float(np.median(v)) for m, v in propensity_study["accuracy"].items()}
    rate = {m: float(np.median(v)) for m, v in propensity_study["rate"].items()}
    assert acc["propensity_net"] >= acc["logistic"], f"median accuracy: {acc}"
    assert rate["propensity_net"] <= rate["logistic"], f"median misassignment rate: {rate}"


def test_cli_reruns_write_identical_reports(tmp_path, capsys):
    runs = {
        "propensity": {"experiment": "propensity", "dataset": {"n_pairs": 80}},
        "swissroll": {"experiment": "swissroll", "dataset": {"n": 120}, "methods": ["pca"]},
        "gradcheck": {"experiment": "gradcheck", "count": 6},
    }
    for command, doc in runs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        first = tmp_path / f"{command}_a"
        second = tmp_path / f"{command}_b"
        assert main([command, "--config", str(cfg), "--out", str(first)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(second)]) == 0
        assert (first / "reports.json").read_bytes() == (second / "reports.json").read_bytes()
    capsys.readouterr()


def test_adadelta_step_matches_elementwise_formula():
    rng = np.random.default_rng(33)
    rho, eps = 0.95, 1e-6
    for shape in [(4, 3), (10,), (2, 5)]:
        eg2 = rng.random(shape)
        ed2 = rng.random(shape)
        grad = rng.standard_normal(shape)
        delta, eg2_new, ed2_new = adadelta_delta(eg2, ed2, grad)
        for idx, g in np.ndenumerate(grad):
            e_g = rho * eg2[idx] + (1.0 - rho) * g * g
            d = -math.sqrt(ed2[idx] + eps) / math.sqrt(e_g + eps) * g
            e_d = rho * ed2[idx] + (1.0 - rho) * d * d
            assert abs(delta[idx] - d) <= 1e-12
            assert abs(eg2_new[idx] - e_g) <= 1e-12
            assert abs(ed2_new[idx] - e_d) <= 1e-12
