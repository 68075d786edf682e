"""Embedder fits and transforms."""

import tracemalloc

import numpy as np
import pytest

from deepmatch import embedding
from deepmatch.data import SwissRollConfig, gen_swiss_roll
from deepmatch.embedding import (
    LleDidNotConverge,
    LleGraphDisconnected,
    fit_autoencoder,
    fit_identity,
    fit_lle,
    fit_pca,
    lle_weight_matrix,
)
from deepmatch.matching import knn
from deepmatch.network import TrainConfig
from oracles import (
    barycentric_weights_loop,
    eigvals_3x3_closed_form,
    lle_dense_eigh,
    lle_dense_weights,
)


def plane_data(n=200, seed=0, noise=0.0):
    """Points in a 2-plane embedded in 3-space, optionally jittered."""
    rng = np.random.default_rng(seed)
    basis = np.array([[1.0, 0.5, -0.25], [0.0, 1.0, 0.75]])
    coords = rng.normal(size=(n, 2)) * np.array([2.0, 0.7])
    x = coords @ basis
    if noise:
        x = x + rng.normal(scale=noise, size=x.shape)
    return x


def pca_reconstruct(emb, x):
    """x projected onto emb's components, mapped back to its own coordinates."""
    return (emb.transform(x) @ emb.components.T) * emb.scale + emb.mean


class TestPca:
    def test_plane_reconstruction_error(self):
        x = plane_data()
        emb = fit_pca(x, 2)
        recon = pca_reconstruct(emb, x)
        assert np.abs(recon - x).max() < 1e-8

    def test_components_orthonormal(self):
        x = np.random.default_rng(1).normal(size=(100, 5))
        emb = fit_pca(x, 3)
        gram = emb.components.T @ emb.components
        assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_reconstruction_error_monotone_in_m(self):
        x = np.random.default_rng(2).normal(size=(80, 5)) @ np.diag([3, 2, 1.5, 1, 0.5])
        errors = []
        for m in range(1, 6):
            emb = fit_pca(x, m)
            recon = pca_reconstruct(emb, x)
            errors.append(float(np.mean((recon - x) ** 2)))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-16

    def test_transform_matches_direct_projection(self):
        x = np.random.default_rng(3).normal(size=(50, 4))
        emb = fit_pca(x, 2)
        direct = ((x - emb.mean) / emb.scale) @ emb.components
        assert np.array_equal(emb.transform(x), direct)
        assert np.array_equal(emb.transform(x), emb.transform(x))

    def test_whitened_data_equal_eigenvalues(self):
        # orthonormal mean-zero columns make the standardized covariance a
        # multiple of the identity, so no direction is preferred
        rng = np.random.default_rng(4)
        g = rng.normal(size=(120, 3))
        q, _ = np.linalg.qr(g - g.mean(axis=0))
        x = q[:, :3]
        emb = fit_pca(x, 3)
        assert np.allclose(emb.eigenvalues, emb.eigenvalues[0], rtol=1e-10)
        recon = pca_reconstruct(emb, x)
        assert np.abs(recon - x).max() < 1e-8

    def test_eigenvalues_match_characteristic_cubic_roots(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 3))
            z = (x - x.mean(axis=0)) / x.std(axis=0)
            expect = eigvals_3x3_closed_form((z.T @ z) / (z.shape[0] - 1))[::-1]
            assert np.abs(fit_pca(x, 3).eigenvalues - expect).max() < 1e-10

    def test_sign_convention_largest_entry_positive(self):
        x = np.random.default_rng(6).normal(size=(70, 4))
        emb = fit_pca(x, 3)
        for j in range(3):
            col = emb.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_m_above_input_dim_rejected(self):
        x = np.random.default_rng(7).normal(size=(30, 3))
        with pytest.raises(ValueError):
            fit_pca(x, 4)

    def test_constant_column_handled(self):
        x = np.random.default_rng(8).normal(size=(40, 3))
        x[:, 1] = 2.5
        emb = fit_pca(x, 2)
        assert np.all(np.isfinite(emb.transform(x)))


class TestAutoencoder:
    def test_plane_reconstruction_mse_under_default_epochs(self):
        x = plane_data(n=300, seed=10)
        emb = fit_autoencoder(x, 2, train_cfg=TrainConfig(epochs=400, seed=0))
        recon = emb.network.predict((x - emb.mean) / emb.scale) * emb.scale + emb.mean
        assert np.mean((recon - x) ** 2) < 1e-2

    def test_m_equal_d_rejected(self):
        x = np.random.default_rng(11).normal(size=(30, 3))
        with pytest.raises(ValueError):
            fit_autoencoder(x, 3, train_cfg=TrainConfig(epochs=1))

    def test_swiss_roll_transform_shape(self):
        ds = gen_swiss_roll(SwissRollConfig(seed=0))
        emb = fit_autoencoder(ds.x, 2, train_cfg=TrainConfig(epochs=2))
        assert emb.transform(ds.x).shape == (1500, 2)

    def test_transform_is_truncated_forward(self):
        x = plane_data(n=60, seed=12)
        emb = fit_autoencoder(x, 2, train_cfg=TrainConfig(epochs=30, seed=3))
        z = (x - emb.mean) / emb.scale
        full = emb.network.forward(z)
        bottleneck = full.hidden[emb.n_encoder_layers - 1]
        assert np.array_equal(emb.transform(x), bottleneck)

    def test_transform_calls_share_no_memory(self):
        x = plane_data(n=40, seed=15)
        emb = fit_autoencoder(x, 2, train_cfg=TrainConfig(epochs=3, seed=4))
        a, b = emb.transform(x), emb.transform(x)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)

    def test_hidden_layers_flag(self):
        x = plane_data(n=60, seed=13)
        emb = fit_autoencoder(x, 2, train_cfg=TrainConfig(epochs=5), hidden=(6,))
        assert emb.n_encoder_layers == 2
        assert len(emb.network.spec.layers) == 4
        assert emb.transform(x).shape == (60, 2)

    def test_same_seed_same_embedding(self):
        x = plane_data(n=50, seed=14)
        cfg = TrainConfig(epochs=20, seed=5)
        a = fit_autoencoder(x, 2, train_cfg=cfg)
        b = fit_autoencoder(x, 2, train_cfg=cfg)
        assert np.array_equal(a.transform(x), b.transform(x))

    def test_loss_history_recorded(self):
        x = plane_data(n=50, seed=15)
        emb = fit_autoencoder(x, 2, train_cfg=TrainConfig(epochs=12, seed=0))
        assert len(emb.loss_history) == 12
        assert emb.loss_history[-1] < emb.loss_history[0]


class TestLle:
    def test_weight_rows_sum_to_one(self):
        x = np.random.default_rng(20).normal(size=(40, 3))
        w = lle_dense_weights(*lle_weight_matrix(x, k_neighbors=6, reg=1e-3))
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.all(np.diag(w) == 0.0)
        assert np.all((w != 0).sum(axis=1) <= 6)

    def test_constant_vector_in_cost_null_space(self):
        x = np.random.default_rng(21).normal(size=(30, 3))
        w = lle_dense_weights(*lle_weight_matrix(x, k_neighbors=5, reg=1e-3))
        iw = np.eye(30) - w
        cost = iw.T @ iw
        assert np.abs(cost @ np.ones(30)).max() < 1e-8

    def test_small_instance_matches_independent_eigensolver(self):
        # same cost matrix, two independent eigensolver routes (sparse inverse
        # iteration in production, dense eigh of the full matrix here);
        # embeddings must agree up to an orthogonal transform, so compare
        # their Gram matrices
        x = np.random.default_rng(22).normal(size=(20, 3))
        emb = fit_lle(x, 2, k_neighbors=5, reg=1e-3)
        vals, vecs = lle_dense_eigh(*lle_weight_matrix(x, 5, 1e-3))
        assert vals[3] - vals[2] > 1e-3, "degenerate spectrum would make the check ill-posed"
        oracle = vecs[:, 1:3]
        gram_prod = emb.embedding @ emb.embedding.T
        gram_oracle = oracle @ oracle.T
        assert np.abs(gram_prod - gram_oracle).max() < 1e-6

    def test_training_points_map_to_their_embedding(self):
        x = np.random.default_rng(23).normal(size=(25, 3))
        emb = fit_lle(x, 2, k_neighbors=5, reg=1e-3)
        assert np.array_equal(emb.transform(x), emb.embedding)

    def test_out_of_sample_point_stays_local(self):
        x = np.random.default_rng(24).normal(size=(40, 3))
        emb = fit_lle(x, 2, k_neighbors=6, reg=1e-3)
        z = emb.transform(x[7:8] + 1e-9)
        assert np.abs(z - emb.embedding[7]).max() < 1e-3

    def test_parameter_validation(self):
        x = np.random.default_rng(25).normal(size=(30, 3))
        with pytest.raises(ValueError):
            fit_lle(x, 2, k_neighbors=6, reg=0.0)
        with pytest.raises(ValueError):
            fit_lle(x, 2, k_neighbors=2, reg=1e-3)
        with pytest.raises(ValueError):
            fit_lle(x, 2, k_neighbors=30, reg=1e-3)

    def test_duplicate_points_survive_regularization(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(20, 3))
        x = np.vstack([x, x[:5]])
        w = lle_dense_weights(*lle_weight_matrix(x, k_neighbors=6, reg=1e-3))
        assert np.all(np.isfinite(w))
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10
        emb = fit_lle(x, 2, k_neighbors=6, reg=1e-3)
        assert np.all(np.isfinite(emb.embedding))

    def test_stacked_weights_equal_per_row_loop(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(60, 3))
        for data in (x, np.vstack([x, x[:12]])):
            nbrs, w = lle_weight_matrix(data, 6, 1e-3)
            assert np.array_equal(w, barycentric_weights_loop(data, data[nbrs], 1e-3))
        # out-of-sample queries, the last a zero-distance twin of a training point
        emb = fit_lle(x, 2, k_neighbors=6, reg=1e-3)
        queries = np.vstack([rng.normal(size=(15, 3)), x[4:5]])
        nbrs, d = knn(queries, x, 6)
        w = barycentric_weights_loop(queries, x[nbrs], 1e-3)
        want = np.array([
            emb.embedding[nb[0]] if di[0] == 0.0 else wi @ emb.embedding[nb]
            for nb, di, wi in zip(nbrs, d, w)
        ])
        assert np.array_equal(emb.transform(queries), want)
        assert np.array_equal(want[-1], emb.embedding[4])

    def test_sparse_solve_matches_dense_oracle_on_swiss_roll(self):
        x = gen_swiss_roll(SwissRollConfig(n=600, seed=3)).x
        emb = fit_lle(x, 2, k_neighbors=10, reg=1e-3)
        vals, vecs = lle_dense_eigh(*lle_weight_matrix(x, 10, 1e-3))
        assert vals[3] - vals[2] > 1e-7, "degenerate spectrum would make the check ill-posed"
        oracle = vecs[:, 1:3]
        assert np.abs(emb.embedding @ emb.embedding.T - oracle @ oracle.T).max() < 1e-6
        assert np.abs(emb.eigenvalues[:3] - vals[:3]).max() < 1e-12

    def test_disconnected_neighbour_graph_rejected(self):
        blob = np.random.default_rng(28).normal(size=(30, 3))
        x = np.vstack([blob, blob + 100.0])
        with pytest.raises(LleGraphDisconnected, match="2 connected components"):
            fit_lle(x, 2, k_neighbors=6)

    def test_refit_identical_with_oriented_signs(self):
        x = gen_swiss_roll(SwissRollConfig(n=300, seed=5)).x
        a, b = fit_lle(x, 2), fit_lle(x, 2)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.eigenvalues, b.eigenvalues) and a.sweeps == b.sweeps
        lead = np.abs(a.embedding).argmax(axis=0)
        assert np.all(a.embedding[lead, [0, 1]] > 0)

    def test_sweep_cap_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(embedding, "_MAX_SWEEPS", 1)
        x = gen_swiss_roll(SwissRollConfig(n=300, seed=5)).x
        with pytest.raises(LleDidNotConverge, match="after 1 sweeps"):
            fit_lle(x, 2)

    def test_fit_allocates_no_n_by_n_array(self):
        x = gen_swiss_roll(SwissRollConfig(n=2500, seed=6)).x
        tracemalloc.start()
        try:
            fit_lle(x, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense n x n float64 array alone would take n*n*8 bytes
        assert peak < x.shape[0] ** 2 * 8 / 2


class TestTransformValidation:
    def test_wrong_column_count_rejected(self):
        x = plane_data(n=30)
        emb = fit_pca(x, 2)
        with pytest.raises(ValueError):
            emb.transform(x[:, :2])

    @pytest.mark.parametrize("kind", ["identity", "pca", "lle", "autoencoder"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, kind, bad):
        x = plane_data(n=30)
        fit = {
            "identity": fit_identity,
            "pca": lambda x: fit_pca(x, 2),
            "lle": lambda x: fit_lle(x, 2, k_neighbors=5),
            "autoencoder": lambda x: fit_autoencoder(x, 2, TrainConfig(epochs=1)),
        }[kind]
        emb = fit(x)
        x[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            emb.transform(x)

    def test_identity_embedder_copies(self):
        x = plane_data(n=10)
        emb = fit_identity(x)
        out = emb.transform(x)
        assert np.array_equal(out, x)
        out[0, 0] = 99.0
        assert x[0, 0] != 99.0
