"""Low-dimensional embeddings behind one fit/transform contract.

Four ways to map covariates into an m-dimensional space for matching:

* identity - raw covariates, the no-reduction baseline
* pca - principal components of the standardized data (Jacobi eigensolver)
* autoencoder - bottleneck activations of a reconstruction network
* lle - locally linear embedding, preserving neighbor reconstruction weights

All fitted embedders are immutable and transform deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh, symmetric_eigh
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


def _check_fit_input(x: np.ndarray, m: int, require_reduction: bool = True) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an n x d matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit")
    if not np.all(np.isfinite(x)):
        raise ValueError("fit data must be finite")
    if m < 1:
        raise ValueError(f"target dimension must be >= 1, got {m}")
    if require_reduction and m >= x.shape[1]:
        raise ValueError(
            f"target dimension {m} must be smaller than input dimension {x.shape[1]}"
        )
    return x


class Embedder:
    """Shared transform-side checks; concrete classes fill in `_map`."""

    kind: str = ""
    m: int = 0
    input_dim: int = 0

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"{self.kind} embedder expects {self.input_dim} columns, got shape {x.shape}"
            )
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
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "m", self.input_dim)

    def _map(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


def fit_identity(x: np.ndarray) -> IdentityEmbedder:
    x = _check_fit_input(x, 1, require_reduction=False)
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

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Map scores back to the original coordinate space."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.m:
            raise ValueError(f"expected n x {self.m} scores, got shape {z.shape}")
        return (z @ self.components.T) * self.scale + self.mean


def _orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def fit_pca(x: np.ndarray, m: int) -> PcaEmbedder:
    """PCA on standardized columns via the cyclic Jacobi eigensolver."""
    x = _check_fit_input(x, m, require_reduction=False)
    if m > x.shape[1]:
        raise ValueError(f"target dimension {m} exceeds input dimension {x.shape[1]}")
    mean, scale = _column_stats(x)
    z = (x - mean) / scale
    cov = (z.T @ z) / (z.shape[0] - 1)
    eigvals, eigvecs = jacobi_eigh(cov)
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

    def _encode(self, z: np.ndarray) -> np.ndarray:
        return self.network.forward(z).inputs[self.n_encoder_layers]

    def _map(self, x: np.ndarray) -> np.ndarray:
        return self._encode((x - self.mean) / self.scale)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Full round trip through the network, back in original coordinates."""
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.scale
        out = self.network.predict(z)
        return out * self.scale + self.mean


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


DEFAULT_AUTOENCODER_EPOCHS = 400


def fit_autoencoder(
    x: np.ndarray,
    m: int,
    train_cfg: TrainConfig | None = None,
    hidden: tuple[int, ...] = (),
    seed: int = 0,
) -> AutoencoderEmbedder:
    """Train a reconstruction network on standardized x; embed at the bottleneck.

    `hidden` inserts extra symmetric tanh layers around the bottleneck
    (empty tuple = plain d -> m -> d). `train_cfg` defaults to adadelta for
    DEFAULT_AUTOENCODER_EPOCHS epochs with the given seed.
    """
    x = _check_fit_input(x, m)
    if train_cfg is None:
        train_cfg = TrainConfig(epochs=DEFAULT_AUTOENCODER_EPOCHS, seed=seed)
    mean, scale = _column_stats(x)
    z = (x - mean) / scale
    spec = autoencoder_spec(x.shape[1], m, hidden)
    net = init_network(spec, seed=train_cfg.seed)
    history = train(net, z, z, train_cfg)
    return AutoencoderEmbedder(
        mean=mean,
        scale=scale,
        network=net,
        n_encoder_layers=1 + len(hidden),
        loss_history=tuple(history),
    )


@dataclass(frozen=True)
class LleEmbedder(Embedder):
    """Locally linear embedding with weight-based out-of-sample mapping.

    Keeps the training points and their embedding; a new point is embedded
    by finding its k nearest training points, solving the same constrained
    least-squares weights used during fitting, and averaging the neighbors'
    embedding coordinates with those weights. A point coinciding with a
    training point inherits that point's embedding directly.
    """

    train_x: np.ndarray
    embedding: np.ndarray
    k_neighbors: int
    reg: float

    kind = "lle"

    def __post_init__(self):
        object.__setattr__(self, "input_dim", self.train_x.shape[1])
        object.__setattr__(self, "m", self.embedding.shape[1])

    def _map(self, x: np.ndarray) -> np.ndarray:
        nbrs, d = knn(x, self.train_x, self.k_neighbors)
        out = np.empty((x.shape[0], self.m))
        for i in range(x.shape[0]):
            if d[i, 0] == 0.0:
                out[i] = self.embedding[nbrs[i, 0]]
                continue
            w = _barycentric_weights(x[i], self.train_x[nbrs[i]], self.reg)
            out[i] = w @ self.embedding[nbrs[i]]
        return out


def _barycentric_weights(point: np.ndarray, neighbors: np.ndarray, reg: float) -> np.ndarray:
    """Weights reconstructing `point` from `neighbors`, summing to 1.

    Solves the local Gram system (G + reg*trace(G)*I) w = 1 and normalizes;
    the Tikhonov term keeps the solve well-posed when neighbors are affinely
    dependent (including exact duplicates).
    """
    shifted = neighbors - point
    gram = shifted @ shifted.T
    trace = np.trace(gram)
    bump = reg * trace if trace > 0 else reg
    gram = gram + bump * np.eye(gram.shape[0])
    w = np.linalg.solve(gram, np.ones(gram.shape[0]))
    return w / w.sum()


def lle_weight_matrix(x: np.ndarray, k_neighbors: int, reg: float) -> np.ndarray:
    """Row-stochastic n x n matrix of neighbor reconstruction weights."""
    n = x.shape[0]
    w = np.zeros((n, n))
    # k+1 neighbours, less i wherever ties place it (or the last, if i lost a tie at 0)
    nearest, _ = knn(x, x, k_neighbors + 1)
    for i in range(n):
        nbrs = nearest[i][nearest[i] != i][:k_neighbors]
        w[i, nbrs] = _barycentric_weights(x[i], x[nbrs], reg)
    return w


def fit_lle(x: np.ndarray, m: int, k_neighbors: int = 10, reg: float = 1e-3) -> LleEmbedder:
    """Standard LLE: neighbor weights, then the small eigenvectors of (I-W)'(I-W).

    The embedding is eigenvectors 2..m+1 (ascending eigenvalues); the first,
    constant eigenvector for eigenvalue 0 is discarded.
    """
    x = _check_fit_input(x, m)
    if reg <= 0:
        raise ValueError(f"reg must be > 0, got {reg}")
    if k_neighbors < m + 1:
        raise ValueError(f"k_neighbors must be >= m+1 = {m + 1}, got {k_neighbors}")
    if k_neighbors >= x.shape[0]:
        raise ValueError(f"k_neighbors must be < n = {x.shape[0]}, got {k_neighbors}")
    w = lle_weight_matrix(x, k_neighbors, reg)
    iw = np.eye(x.shape[0]) - w
    cost = iw.T @ iw
    _, vecs = symmetric_eigh(cost)
    embedding = vecs[:, 1 : m + 1]
    return LleEmbedder(train_x=x, embedding=embedding, k_neighbors=k_neighbors, reg=reg)
