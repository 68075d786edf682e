import numpy as np
import pytest

from deepmatch.linalg import jacobi_eigh, symmetric_eigh
from oracles import eigvals_3x3_closed_form


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


def test_off_diagonal_norm_known_values():
    # off-diagonal norm sqrt(8): a tolerance above it stops before any rotation
    a = np.array([[1.0, 2.0], [2.0, 5.0]])
    vals, vecs = jacobi_eigh(a, tol=np.sqrt(8.0) * (1 + 1e-15))
    assert vals.tolist() == [1.0, 5.0] and np.array_equal(vecs, np.eye(2))
    vals, _ = jacobi_eigh(a, tol=np.sqrt(8.0) * (1 - 1e-15))
    assert np.allclose(vals, [3.0 - np.sqrt(8.0), 3.0 + np.sqrt(8.0)], atol=1e-12)
    vals, vecs = jacobi_eigh(4.0 * np.eye(4), tol=1e-300)
    assert vals.tolist() == [4.0] * 4 and np.array_equal(vecs, np.eye(4))


def test_eigenvalues_match_characteristic_cubic_roots():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_symmetric(rng, 3)
        vals, _ = jacobi_eigh(a)
        expect = eigvals_3x3_closed_form(a)
        assert np.allclose(vals, expect, atol=1e-8, rtol=0)


def test_decomposition_reconstructs_matrix():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 8, 12):
        a = random_symmetric(rng, n)
        vals, vecs = jacobi_eigh(a)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-9)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(2)
    a = random_symmetric(rng, 6)
    vals, _ = jacobi_eigh(a)
    assert np.all(np.diff(vals) >= 0)


def test_diagonal_matrix_is_fixed_point():
    a = np.diag([3.0, -1.0, 2.0])
    vals, vecs = jacobi_eigh(a)
    assert np.array_equal(vals, [-1.0, 2.0, 3.0])
    # eigenvectors are signed unit vectors
    assert np.allclose(np.abs(vecs).sum(axis=0), 1.0)


def test_agrees_with_lapack_route():
    rng = np.random.default_rng(3)
    for n in (2, 4, 9):
        a = random_symmetric(rng, n, scale=2.0)
        vals_j, _ = jacobi_eigh(a)
        vals_l, _ = symmetric_eigh(a)
        assert np.allclose(vals_j, vals_l, atol=1e-9)


def test_scaled_matrices_converge():
    # entries far from unit scale still diagonalize to a scale-aware floor
    rng = np.random.default_rng(4)
    for exponent in (-6.0, -3.0, 3.0, 6.0):
        a = random_symmetric(rng, 4, scale=10.0**exponent)
        tol = max(1e-10, 1e-13 * float(np.abs(a).max()))
        vals, vecs = jacobi_eigh(a, tol=tol)
        assert np.allclose(
            vecs @ np.diag(vals) @ vecs.T, a, atol=10 * tol + 1e-12
        )


def test_one_by_one_matrix():
    vals, vecs = jacobi_eigh(np.array([[4.0]]))
    assert vals[0] == 4.0 and vecs[0, 0] == 1.0


def test_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigh(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_repeated_eigenvalues():
    # identity: any orthonormal basis works, eigenvalues must all be 1
    vals, vecs = jacobi_eigh(np.eye(5))
    assert np.allclose(vals, 1.0, atol=1e-14)
    assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-12)
