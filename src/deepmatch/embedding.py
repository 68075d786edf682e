"""Low-dimensional embeddings behind one fit/transform contract.

Four ways to map covariates into an m-dimensional space for matching:

* identity - raw covariates, the no-reduction baseline
* pca - principal components of the standardized data (LAPACK eigh)
* autoencoder - bottleneck activations of a reconstruction network
* lle - locally linear embedding, preserving neighbor reconstruction weights;
  its cost matrix stays sparse and is solved by block-tridiagonal
  shift-invert iteration, so no n x n array is formed

All fitted embedders are immutable and transform deterministically; like
fit, transform rejects NaN or inf input with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# PCA's and LLE's one eigensolver; the benchmark tracer wraps it by this name
from numpy.linalg import eigh as symmetric_eigh

from .data import count, finite_matrix, real
from .matching import knn
from .network import (
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    init_network,
    train,
)

# standardization floor: columns with no variance pass through unscaled
_STD_FLOOR = 1e-12


def _column_stats(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    return mean, std


def _check_fit_input(x: np.ndarray) -> np.ndarray:
    x = finite_matrix(x, "fit data")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit")
    return x


class Embedder:
    """Shared transform-side checks; concrete classes fill in `_map`."""

    kind: str = ""
    m: int = 0
    input_dim: int = 0

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = finite_matrix(x, f"{self.kind} embedder input", self.input_dim)
        z = self._map(x)
        assert z.shape == (x.shape[0], self.m)
        return z

    def _map(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityEmbedder(Embedder):
    """Raw covariates unchanged; the matching-in-original-space baseline."""

    input_dim: int

    kind = "identity"

    def __post_init__(self):
        count(self.input_dim, "input_dim", 1)
        object.__setattr__(self, "m", self.input_dim)

    def _map(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


def fit_identity(x: np.ndarray) -> IdentityEmbedder:
    x = _check_fit_input(x)
    return IdentityEmbedder(input_dim=x.shape[1])


@dataclass(frozen=True)
class PcaEmbedder(Embedder):
    """Top principal components of the z-scored fit data.

    `components` is d x m with orthonormal columns, ordered by decreasing
    eigenvalue; each column's largest-magnitude entry is positive, making
    the decomposition deterministic.
    """

    mean: np.ndarray
    scale: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    kind = "pca"

    def __post_init__(self):
        object.__setattr__(self, "input_dim", self.mean.shape[0])
        object.__setattr__(self, "m", self.components.shape[1])

    def _map(self, x: np.ndarray) -> np.ndarray:
        return ((x - self.mean) / self.scale) @ self.components


def _orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def fit_pca(x: np.ndarray, m: int) -> PcaEmbedder:
    """PCA on standardized columns: LAPACK eigh of the d x d covariance."""
    x = _check_fit_input(x)
    count(m, "target dimension", 1, x.shape[1])
    mean, scale = _column_stats(x)
    z = (x - mean) / scale
    cov = (z.T @ z) / (z.shape[0] - 1)
    eigvals, eigvecs = symmetric_eigh(cov)
    top = np.arange(eigvals.shape[0] - 1, eigvals.shape[0] - 1 - m, -1)
    components = _orient_columns(eigvecs[:, top])
    return PcaEmbedder(
        mean=mean, scale=scale, components=components, eigenvalues=eigvals[top]
    )


@dataclass(frozen=True)
class AutoencoderEmbedder(Embedder):
    """Bottleneck activations of a trained reconstruction network.

    The network maps standardized inputs through tanh hidden layers to an
    identity output; `n_encoder_layers` marks where the bottleneck sits, and
    transform reads that layer's output from an eval-mode forward pass.
    """

    mean: np.ndarray
    scale: np.ndarray
    network: Network
    n_encoder_layers: int
    loss_history: tuple = ()

    kind = "autoencoder"

    def __post_init__(self):
        object.__setattr__(self, "input_dim", self.mean.shape[0])
        bottleneck = self.network.spec.layers[self.n_encoder_layers - 1]
        object.__setattr__(self, "m", bottleneck.fan_out)

    def _map(self, x: np.ndarray) -> np.ndarray:
        return self.network.forward((x - self.mean) / self.scale).inputs[self.n_encoder_layers]


def autoencoder_spec(d: int, m: int, hidden: tuple[int, ...] = ()) -> NetworkSpec:
    """Symmetric reconstruction network d -> hidden -> m -> hidden -> d.

    All hidden layers (including the bottleneck) are tanh; the output layer
    is identity so reconstructions are unbounded.
    """
    dims = [d, *hidden, m]
    layers = []
    for a, b in zip(dims, dims[1:]):
        layers.append(LayerSpec(a, b, activation="tanh"))
    decoder_dims = [m, *reversed(hidden), d]
    for i, (a, b) in enumerate(zip(decoder_dims, decoder_dims[1:])):
        last = i == len(decoder_dims) - 2
        layers.append(LayerSpec(a, b, activation="identity" if last else "tanh"))
    return NetworkSpec(tuple(layers), loss="mse")


def fit_autoencoder(
    x: np.ndarray,
    m: int,
    train_cfg: TrainConfig,
    hidden: tuple[int, ...] = (),
    *,
    seed: int,
) -> AutoencoderEmbedder:
    """Train a reconstruction network on standardized x; embed at the bottleneck.

    `hidden` inserts extra symmetric tanh layers around the bottleneck
    (empty tuple = plain d -> m -> d). `train_cfg` is the schedule of training
    by adadelta; `seed` draws the initial weights and the shuffling.
    """
    x = _check_fit_input(x)
    count(m, "target dimension", 1, x.shape[1] - 1)
    mean, scale = _column_stats(x)
    z = (x - mean) / scale
    spec = autoencoder_spec(x.shape[1], m, hidden)
    net = init_network(spec, seed=seed)
    history = train(net, z, z, train_cfg, seed)
    return AutoencoderEmbedder(
        mean=mean,
        scale=scale,
        network=net,
        n_encoder_layers=1 + len(hidden),
        loss_history=tuple(history),
    )


class LleGraphDisconnected(ValueError):
    """The fit data's neighbour graph has more than one connected component.

    LLE's cost matrix then has one null vector per component, so its bottom
    eigenvectors mark components instead of giving coordinates.
    """


class LleDidNotConverge(RuntimeError):
    """Inverse iteration hit its sweep cap before the residual tolerance."""


@dataclass(frozen=True)
class LleEmbedder(Embedder):
    """Locally linear embedding with weight-based out-of-sample mapping.

    Keeps the training points and their embedding; a new point is embedded
    by finding its k nearest training points, solving the same constrained
    least-squares weights used during fitting, and averaging the neighbors'
    embedding coordinates with those weights. A point coinciding with a
    training point inherits that point's embedding directly.

    `eigenvalues` holds the bottom Ritz values of the cost matrix, ascending
    (the first belongs to the discarded constant vector); `sweeps` counts the
    inverse-iteration sweeps that reached them.
    """

    train_x: np.ndarray
    embedding: np.ndarray
    k_neighbors: int
    reg: float
    eigenvalues: np.ndarray
    sweeps: int

    kind = "lle"

    def __post_init__(self):
        object.__setattr__(self, "input_dim", self.train_x.shape[1])
        object.__setattr__(self, "m", self.embedding.shape[1])

    def _map(self, x: np.ndarray) -> np.ndarray:
        nbrs, d = knn(x, self.train_x, self.k_neighbors)
        out = self.embedding[nbrs[:, 0]]
        far = d[:, 0] > 0.0
        w = _barycentric_weights(x[far], self.train_x[nbrs[far]], self.reg)
        out[far] = (w[:, None, :] @ self.embedding[nbrs[far]])[:, 0]
        return out


def _barycentric_weights(points: np.ndarray, neighbors: np.ndarray, reg: float) -> np.ndarray:
    """Weights reconstructing each of n points from its k neighbours; rows sum to 1.

    `points` is n x d and `neighbors` n x k x d. Every point solves its local
    Gram system (G + reg*trace(G)*I) w = 1, all in one stacked solve, and
    normalizes; the Tikhonov term keeps the solve well-posed when neighbours
    are affinely dependent (including exact duplicates).
    """
    shifted = neighbors - points[:, None, :]
    gram = shifted @ shifted.transpose(0, 2, 1)
    trace = np.trace(gram, axis1=1, axis2=2)
    bump = np.where(trace > 0, reg * trace, reg)
    gram = gram + bump[:, None, None] * np.eye(gram.shape[1])
    w = np.linalg.solve(gram, np.ones(gram.shape[:2] + (1,)))[:, :, 0]
    return w / w.sum(axis=1, keepdims=True)


def lle_weight_matrix(x: np.ndarray, k_neighbors: int, reg: float) -> tuple[np.ndarray, np.ndarray]:
    """The row-stochastic n x n reconstruction weights W, in sparse form.

    Returns `(neighbors, weights)`, both n x k: row i of W holds weights[i, j]
    at column neighbors[i, j] and zeros elsewhere, its diagonal included.
    """
    n = x.shape[0]
    count(k_neighbors, "k_neighbors", 1, n - 1)
    real(reg, "reg", above=0)
    # k+1 neighbours, less i wherever ties place it (or the last, if i lost a tie at 0)
    nearest, _ = knn(x, x, k_neighbors + 1)
    keep = nearest != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    neighbors = nearest[keep].reshape(n, k_neighbors)
    return neighbors, _barycentric_weights(x, x[neighbors], reg)


@dataclass(frozen=True)
class _SparseSymmetric:
    """An n x n symmetric matrix in compressed-row form, columns sorted per row."""

    indptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    def __matmul__(self, q: np.ndarray) -> np.ndarray:
        # every row stores its diagonal, so no row is empty
        return np.add.reduceat(self.values[:, None] * q[self.columns], self.indptr[:-1], axis=0)

    def row_entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, p) for every stored entry of the given rows: entry p of
        `columns`/`values` lies in row rows[i]."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        first = np.cumsum(counts) - counts
        at = np.repeat(starts - first, counts) + np.arange(counts.sum())
        return np.repeat(np.arange(rows.size), counts), at


def _lle_cost(neighbors: np.ndarray, weights: np.ndarray) -> _SparseSymmetric:
    """M = (I-W)'(I-W), summed from the outer products of the rows of I-W.

    Row i of I-W is 1 at column i and -weights[i] at neighbors[i], so M is
    the sum of n (k+1)^2 terms; one sort groups them by (row, column).
    """
    n = neighbors.shape[0]
    cols = np.hstack([np.arange(n)[:, None], neighbors])
    vals = np.hstack([np.ones((n, 1)), -weights])
    keys = (cols[:, :, None] * n + cols[:, None, :]).ravel()
    terms = (vals[:, :, None] * vals[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    keys, terms = keys[order], terms[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    rows, columns = np.divmod(keys[starts], n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return _SparseSymmetric(indptr, columns, np.add.reduceat(terms, starts))


def _bfs_levels(cost: _SparseSymmetric, root: int) -> list:
    """Level sets of a breadth-first search of the graph of `cost` from `root`."""
    seen = np.zeros(cost.n, dtype=bool)
    seen[root] = True
    levels = [np.array([root])]
    while True:
        nxt = np.unique(cost.columns[cost.row_entries(levels[-1])[1]])
        nxt = nxt[~seen[nxt]]
        if nxt.size == 0:
            return levels
        seen[nxt] = True
        levels.append(nxt)


def _level_sets(cost: _SparseSymmetric) -> list:
    """BFS level sets from a pseudo-peripheral node (George & Liu 1979).

    Every edge of the graph joins a level to itself or to the next, so with
    the rows ordered level by level `cost` is block tridiagonal, the levels
    its blocks. A deep search makes thin levels, hence the peripheral root.
    Raises LleGraphDisconnected when the search cannot reach every node.
    """
    levels = _bfs_levels(cost, 0)
    if sum(level.size for level in levels) < cost.n:
        unseen = np.ones(cost.n, dtype=bool)
        components = 0
        while unseen.any():
            for level in _bfs_levels(cost, int(np.argmax(unseen))):
                unseen[level] = False
            components += 1
        raise LleGraphDisconnected(
            f"the neighbour graph has {components} connected components; LLE needs one "
            "(raise k_neighbors)"
        )
    degree = np.diff(cost.indptr)
    while True:
        last = levels[-1]
        deeper = _bfs_levels(cost, int(last[np.argmin(degree[last])]))
        if len(deeper) <= len(levels):
            return levels
        levels = deeper


# M is positive semi-definite with the constant null vector, so M - sigma*I
# with sigma just below 0 is positive definite and shift-invert targets 0.
_SIGMA = -1e-9
_MAX_SWEEPS = 100
# residual ||Mq - theta q|| per wanted Ritz pair, relative to ||M||; rounding
# in Mq floors it near 1e-16, so this leaves a factor of 100
_RESIDUAL_TOL = 1e-14


class _BlockCholesky:
    """Factor L L' = M - sigma*I of a block-tridiagonal M, blocks = BFS levels.

    L is block lower bidiagonal. Its diagonal blocks are kept inverted, so a
    solve is two passes of small matrix products over the levels.
    """

    def __init__(self, cost: _SparseSymmetric, levels: list):
        sizes = np.array([level.size for level in levels])
        start = np.cumsum(sizes) - sizes
        self.perm = np.concatenate(levels)
        self.bounds = list(zip(start, start + sizes))
        pos = np.empty(cost.n, dtype=np.intp)
        pos[self.perm] = np.arange(cost.n)
        self.inverses, self.lowers = [], []
        for lev, (lo, hi) in enumerate(self.bounds):
            # this level's rows, from the previous level's first column on; the
            # columns of the next level are the transpose of its own coupling
            first = self.bounds[lev - 1][0] if lev else lo
            r, at = cost.row_entries(levels[lev])
            c = pos[cost.columns[at]]
            left = c < hi
            strip = np.zeros((hi - lo, hi - first))
            strip[r[left], c[left] - first] = cost.values[at[left]]
            schur = strip[:, lo - first :] - _SIGMA * np.eye(hi - lo)
            if lev:
                lower = strip[:, : lo - first] @ self.inverses[-1].T
                self.lowers.append(lower)
                schur = schur - lower @ lower.T
            self.inverses.append(np.linalg.solve(np.linalg.cholesky(schur), np.eye(hi - lo)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(M - sigma*I)^-1 b for an n x r block b."""
        y = []
        for lev, (lo, hi) in enumerate(self.bounds):
            rhs = b[self.perm[lo:hi]]
            if lev:
                rhs = rhs - self.lowers[lev - 1] @ y[-1]
            y.append(self.inverses[lev] @ rhs)
        out = np.empty_like(b)
        z = None
        for lev in range(len(self.bounds) - 1, -1, -1):
            lo, hi = self.bounds[lev]
            rhs = y[lev] if z is None else y[lev] - self.lowers[lev].T @ z
            z = self.inverses[lev].T @ rhs
            out[self.perm[lo:hi]] = z
        return out


def _bottom_eigenpairs(cost: _SparseSymmetric, factor: _BlockCholesky, m: int):
    """The m+1 smallest eigenpairs of `cost` by block inverse iteration.

    Iterates on m+4 columns (all n if fewer); each sweep solves with the
    shift-inverted factor, orthonormalizes by QR and ends with Rayleigh-Ritz.
    Returns (Ritz values, Ritz vectors, sweeps) once every wanted pair's
    residual is below tolerance; raises LleDidNotConverge at the sweep cap.
    """
    norm = np.add.reduceat(np.abs(cost.values), cost.indptr[:-1]).max()
    x = np.random.default_rng(0).standard_normal((cost.n, min(m + 4, cost.n)))
    for sweep in range(1, _MAX_SWEEPS + 1):
        q, _ = np.linalg.qr(factor.solve(x))
        mq = cost @ q
        theta, s = symmetric_eigh(q.T @ mq)
        x = q @ s
        residual = np.linalg.norm(mq @ s[:, : m + 1] - x[:, : m + 1] * theta[: m + 1], axis=0).max()
        if residual <= _RESIDUAL_TOL * norm:
            return theta, x, sweep
    raise LleDidNotConverge(
        f"inverse iteration left residual {residual:.3e} after {_MAX_SWEEPS} sweeps "
        f"(tolerance {_RESIDUAL_TOL * norm:.3e})"
    )


def fit_lle(x: np.ndarray, m: int, k_neighbors: int = 10, reg: float = 1e-3) -> LleEmbedder:
    """Standard LLE: neighbor weights, then the small eigenvectors of M = (I-W)'(I-W).

    M is assembled sparse, its rows ordered by BFS level sets so that it is
    block tridiagonal, and M - sigma*I (sigma just below 0) is factored by
    block Cholesky; block inverse iteration on that factor finds the bottom
    eigenvectors. No n x n array is formed. The embedding is eigenvectors
    2..m+1 (ascending eigenvalues), each column's largest-magnitude entry
    positive; the first, constant eigenvector for eigenvalue 0 is discarded.
    Raises LleGraphDisconnected when the neighbour graph is not connected.
    """
    x = _check_fit_input(x)
    count(m, "target dimension", 1, x.shape[1] - 1)
    count(k_neighbors, "k_neighbors", m + 1)
    # lle_weight_matrix holds k_neighbors below n and reg above 0
    cost = _lle_cost(*lle_weight_matrix(x, k_neighbors, reg))
    factor = _BlockCholesky(cost, _level_sets(cost))
    values, vecs, sweeps = _bottom_eigenpairs(cost, factor, m)
    return LleEmbedder(
        train_x=x,
        embedding=_orient_columns(vecs[:, 1 : m + 1]),
        k_neighbors=k_neighbors,
        reg=reg,
        eigenvalues=values,
        sweeps=sweeps,
    )
