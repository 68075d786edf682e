"""Dense symmetric eigendecomposition by cyclic Jacobi rotations.

Small and self-contained: intended for the low-dimensional covariance
matrices that PCA diagonalizes (d <= ~50) and as an independent cross-check
for eigenproblems solved elsewhere. `symmetric_eigh` is the LAPACK route for
the small projected problems of LLE's Rayleigh-Ritz step.
"""

from __future__ import annotations

import numpy as np


def _off_diagonal_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of a square matrix."""
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(
    a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi sweeps.

    Sweeps row-cyclically over the strict upper triangle, zeroing one
    off-diagonal entry per rotation, until the off-diagonal Frobenius norm
    drops below ``tol``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted ascending
    and eigenvectors as the corresponding columns, matching the layout of
    ``numpy.linalg.eigh``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))):
        raise ValueError("matrix is not symmetric")

    n = a.shape[0]
    d = a.copy()
    v = np.eye(n)
    if n == 1:
        return np.diag(d).copy(), v

    converged = _off_diagonal_norm(d) < tol
    for _ in range(max_sweeps):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = d[p, q]
                if apq == 0.0:
                    continue
                # Stable rotation angle (Golub & Van Loan sym. Schur 2x2).
                diff = d[q, q] - d[p, p]
                if abs(apq) < 1e-153 * abs(diff):
                    # theta would overflow; rotation is asymptotically t = 1/(2*theta)
                    t = apq / diff
                elif diff == 0.0:
                    t = 1.0
                else:
                    theta = diff / (2.0 * apq)
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                rot_p = c * d[:, p] - s * d[:, q]
                rot_q = s * d[:, p] + c * d[:, q]
                d[:, p], d[:, q] = rot_p, rot_q
                rot_p = c * d[p, :] - s * d[q, :]
                rot_q = s * d[p, :] + c * d[q, :]
                d[p, :], d[q, :] = rot_p, rot_q
                # Enforce exact symmetry of the annihilated pair.
                d[p, q] = 0.0
                d[q, p] = 0.0

                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
        converged = _off_diagonal_norm(d) < tol
    if not converged:
        raise RuntimeError(
            f"Jacobi did not reach off-diagonal norm {tol:g} in {max_sweeps} sweeps "
            f"(final {_off_diagonal_norm(d):.3e})"
        )

    eigvals = np.diag(d).copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]


def symmetric_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK-backed symmetric eigendecomposition (ascending eigenvalues).

    Its caller is the Rayleigh-Ritz step of LLE's inverse iteration, which
    diagonalizes the cost matrix projected onto m+4 columns once per sweep;
    `jacobi_eigh` stays the reference implementation for small matrices.
    """
    return np.linalg.eigh(np.asarray(a, dtype=float))
