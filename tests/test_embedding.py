"""Embedder fits and transforms."""

import numpy as np
import pytest

from deepmatch.data import SwissRollConfig, gen_swiss_roll
from deepmatch.embedding import (
    fit_autoencoder,
    fit_identity,
    fit_lle,
    fit_pca,
    lle_weight_matrix,
)
from deepmatch.linalg import jacobi_eigh
from deepmatch.network import TrainConfig


def plane_data(n=200, seed=0, noise=0.0):
    """Points in a 2-plane embedded in 3-space, optionally jittered."""
    rng = np.random.default_rng(seed)
    basis = np.array([[1.0, 0.5, -0.25], [0.0, 1.0, 0.75]])
    coords = rng.normal(size=(n, 2)) * np.array([2.0, 0.7])
    x = coords @ basis
    if noise:
        x = x + rng.normal(scale=noise, size=x.shape)
    return x


class TestPca:
    def test_plane_reconstruction_error(self):
        x = plane_data()
        emb = fit_pca(x, 2)
        recon = emb.inverse_transform(emb.transform(x))
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
            recon = emb.inverse_transform(emb.transform(x))
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
        recon = emb.inverse_transform(emb.transform(x))
        assert np.abs(recon - x).max() < 1e-8

    def test_eigenvalues_match_lapack_route(self):
        x = np.random.default_rng(5).normal(size=(60, 4))
        emb = fit_pca(x, 4)
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        z = (x - mean) / std
        lapack = np.linalg.eigvalsh((z.T @ z) / (z.shape[0] - 1))
        assert np.abs(emb.eigenvalues - lapack[::-1]).max() < 1e-10

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
        emb = fit_autoencoder(x, 2, seed=0)
        recon = emb.reconstruct(x)
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
        w = lle_weight_matrix(x, k_neighbors=6, reg=1e-3)
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.all(np.diag(w) == 0.0)
        assert np.all((w != 0).sum(axis=1) <= 6)

    def test_constant_vector_in_cost_null_space(self):
        x = np.random.default_rng(21).normal(size=(30, 3))
        w = lle_weight_matrix(x, k_neighbors=5, reg=1e-3)
        iw = np.eye(30) - w
        cost = iw.T @ iw
        assert np.abs(cost @ np.ones(30)).max() < 1e-8

    def test_small_instance_matches_independent_eigensolver(self):
        # same cost matrix, two independent eigensolver routes (LAPACK in
        # production, cyclic Jacobi here); embeddings must agree up to an
        # orthogonal transform, so compare their Gram matrices
        x = np.random.default_rng(22).normal(size=(20, 3))
        emb = fit_lle(x, 2, k_neighbors=5, reg=1e-3)
        w = lle_weight_matrix(x, 5, 1e-3)
        iw = np.eye(20) - w
        cost = iw.T @ iw
        vals, vecs = jacobi_eigh(cost)
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
        w = lle_weight_matrix(x, k_neighbors=6, reg=1e-3)
        assert np.all(np.isfinite(w))
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10
        emb = fit_lle(x, 2, k_neighbors=6, reg=1e-3)
        assert np.all(np.isfinite(emb.embedding))


class TestTransformValidation:
    def test_wrong_column_count_rejected(self):
        x = plane_data(n=30)
        emb = fit_pca(x, 2)
        with pytest.raises(ValueError):
            emb.transform(x[:, :2])

    def test_identity_embedder_copies(self):
        x = plane_data(n=10)
        emb = fit_identity(x)
        out = emb.transform(x)
        assert np.array_equal(out, x)
        out[0, 0] = 99.0
        assert x[0, 0] != 99.0
