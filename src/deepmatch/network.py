"""Dense feedforward networks with hand-derived backpropagation.

A network is `Network(spec, theta)`: a `NetworkSpec` plus one float64 vector
holding every weight and bias. Everything is plain numpy: Glorot-uniform
initialization, a forward pass with inverted dropout (dropout iff an rng is
passed), exact layer-by-layer gradients for mean squared error and categorical
cross-entropy, SGD and adadelta update rules, and a mini-batch training loop.
No autodiff framework is involved; the finite-difference harness in
`gradcheck` exists precisely to keep these gradients honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# name -> (function of the pre-activation, its derivative expressed through the output).
# Softmax has none: it only feeds cross-entropy, whose logit gradient backward forms directly.
_ACTIVATIONS = {
    "identity": (lambda z: z, np.ones_like),
    "relu": (lambda z: np.maximum(0.0, z), lambda out: (out > 0.0).astype(float)),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda out: out * (1.0 - out)),
    "tanh": (np.tanh, lambda out: 1.0 - out**2),
    "softmax": (_softmax, None),
}
LOSSES = ("mse", "categorical_cross_entropy")

CCE_CLAMP = 1e-12  # lower clamp inside the log, avoids ln(0)


class TrainingDiverged(RuntimeError):
    """Raised when training produces a non-finite loss or parameter."""


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str = "identity"
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.fan_in}->{self.fan_out}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    loss: str = "mse"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ValueError(
                    f"layer chain broken: fan_out {prev.fan_out} feeds fan_in {nxt.fan_in}"
                )
        for layer in self.layers[:-1]:
            if layer.activation == "softmax":
                raise ValueError("softmax is only allowed on the final layer")
        if self.layers[-1].dropout_rate > 0.0:
            raise ValueError("dropout is only allowed on hidden layers, not the final layer")
        final = self.layers[-1].activation
        if self.loss == "categorical_cross_entropy" and final != "softmax":
            raise ValueError("categorical_cross_entropy requires a softmax final layer")
        if self.loss == "mse" and final == "softmax":
            raise ValueError("mse requires a non-softmax final layer")

    @property
    def param_count(self) -> int:
        return sum(l.fan_in * l.fan_out + l.fan_out for l in self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out


@dataclass(frozen=True)
class Sgd:
    lr: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class Adadelta:
    rho: float = 0.95
    eps: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


Optimizer = Union[Sgd, Adadelta]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    optimizer: Optimizer = Adadelta()
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def apply_dropout(h: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Returns (dropped activations, mask); the mask already carries the 1/(1-rate)
    scaling so that applying it is a single multiply in both passes.
    """
    keep = 1.0 - rate
    mask = (rng.random(h.shape) < keep).astype(float) / keep
    return h * mask, mask


@dataclass
class ForwardPass:
    """Cached intermediate state of one forward pass, consumed by backward."""

    inputs: list   # layer inputs: inputs[l] feeds layer l; inputs[-1] is the output
    hidden: list   # pre-dropout layer outputs
    masks: list    # dropout mask per layer (None where inactive)

    @property
    def output(self) -> np.ndarray:
        return self.inputs[-1]


class Network:
    """A dense feedforward net whose parameters live in one float64 vector.

    `theta` holds, layer by layer, the weight matrix (fan_out x fan_in,
    row-major) and then the bias. The network adopts `theta` without copying;
    `weights[l]` and `biases[l]` are views into it, and gradients and
    optimiser state share the same layout.
    """

    def __init__(self, spec: NetworkSpec, theta: np.ndarray):
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
                and theta.shape == (spec.param_count,)):
            raise ValueError(f"theta must be a 1-D float64 array of param_count={spec.param_count} "
                             f"entries, got {getattr(theta, 'dtype', type(theta).__name__)} "
                             f"of shape {np.shape(theta)}")
        self.spec = spec
        self.theta = theta
        views = self.split(theta)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    def split(self, flat: np.ndarray) -> list:
        """Per-layer (W, b) views of a vector laid out like `theta`."""
        n = self.spec.param_count
        if flat.shape != (n,):
            raise ValueError(f"expected a flat vector of param_count={n}, got {flat.shape}")
        views, start = [], 0
        for layer in self.spec.layers:
            mid = start + layer.fan_out * layer.fan_in
            stop = mid + layer.fan_out
            views.append((flat[start:mid].reshape(layer.fan_out, layer.fan_in), flat[mid:stop]))
            start = stop
        return views

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None) -> ForwardPass:
        """Forward pass; dropout runs, drawing from `rng`, iff an `rng` is passed."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"input must be 2-D with {self.spec.input_dim} columns, got shape {x.shape}"
            )
        inputs, hidden, masks = [x], [], []
        a = x
        for l, layer in enumerate(self.spec.layers):
            z = a @ self.weights[l].T + self.biases[l]
            h = _ACTIVATIONS[layer.activation][0](z)
            hidden.append(h)
            if rng is not None and layer.dropout_rate > 0.0:
                a, mask = apply_dropout(h, layer.dropout_rate, rng)
            else:
                a, mask = h, None
            masks.append(mask)
            inputs.append(a)
        return ForwardPass(inputs, hidden, masks)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode output (dropout off)."""
        return self.forward(x).output

    def loss(self, output: np.ndarray, target: np.ndarray) -> float:
        output = np.asarray(output, dtype=float)
        target = np.asarray(target, dtype=float)
        if output.shape != target.shape:
            raise ValueError(f"output {output.shape} vs target {target.shape}")
        if self.spec.loss == "mse":
            return float(np.mean(np.sum((output - target) ** 2, axis=1)))
        p = np.clip(output, CCE_CLAMP, 1.0)
        return float(np.mean(-np.sum(target * np.log(p), axis=1)))

    def backward(self, cache: ForwardPass, target: np.ndarray) -> np.ndarray:
        """Exact gradient of the loss w.r.t. `theta`, as one vector in its layout.

        `cache` must come from a forward pass over the same batch and dropout
        masks.
        """
        target = np.asarray(target, dtype=float)
        out = cache.output
        if out.shape != target.shape:
            raise ValueError(f"output {out.shape} vs target {target.shape}")
        n_batch = out.shape[0]
        layers = self.spec.layers

        if self.spec.loss == "categorical_cross_entropy":
            # Softmax + CCE collapse to (p - t) / B at the logits.
            delta = (out - target) / n_batch
        else:
            d_out = 2.0 * (out - target) / n_batch
            delta = d_out * _ACTIVATIONS[layers[-1].activation][1](out)

        parts = []  # filled last layer first, bias before weights: theta order reversed
        for l in range(len(layers) - 1, -1, -1):
            parts.append(delta.sum(axis=0))
            parts.append((delta.T @ cache.inputs[l]).ravel())
            if l > 0:
                da = delta @ self.weights[l]
                if cache.masks[l - 1] is not None:
                    da = da * cache.masks[l - 1]
                delta = da * _ACTIVATIONS[layers[l - 1].activation][1](cache.hidden[l - 1])
        return np.concatenate(parts[::-1])


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights, zero biases, drawn layer by layer from one seeded stream."""
    rng = np.random.default_rng(seed)
    net = Network(spec, np.zeros(spec.param_count))
    for layer, w in zip(spec.layers, net.weights):
        limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def adadelta_update(eg2: np.ndarray, ed2: np.ndarray, grad: np.ndarray,
                    rho: float, eps: float):
    """One adadelta step on a single tensor; returns (delta, eg2', ed2')."""
    eg2 = rho * eg2 + (1.0 - rho) * grad**2
    delta = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * grad
    ed2 = rho * ed2 + (1.0 - rho) * delta**2
    return delta, eg2, ed2


def adadelta_step(theta: np.ndarray, grad: np.ndarray, state: tuple, opt: Adadelta) -> None:
    """Apply one adadelta step to `theta`; `state` is (eg2, ed2), updated in place."""
    eg2, ed2 = state
    delta, eg2[...], ed2[...] = adadelta_update(eg2, ed2, grad, opt.rho, opt.eps)
    theta += delta


def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
    theta -= lr * grad


def train(net: Network, inputs: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig) -> list[float]:
    """Mini-batch training; mutates `net` in place and returns the loss history.

    The history holds the mean batch loss of each epoch (length = cfg.epochs).
    Raises TrainingDiverged as soon as a loss or parameter goes non-finite.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"inputs ({x.shape[0]} rows) vs targets ({y.shape[0]} rows)")
    n = x.shape[0]
    rng = np.random.default_rng(cfg.seed)
    theta = net.theta
    opt = cfg.optimizer
    state = (np.zeros_like(theta), np.zeros_like(theta))  # adadelta's eg2 and ed2

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            cache = net.forward(x[idx], rng=rng)
            batch_losses.append(net.loss(cache.output, y[idx]))
            grad = net.backward(cache, y[idx])
            if isinstance(opt, Adadelta):
                adadelta_step(theta, grad, state, opt)
            else:
                sgd_step(theta, grad, opt.lr)
        epoch_loss = float(np.mean(batch_losses))
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged(f"non-finite parameter at epoch {epoch}")
        history.append(epoch_loss)
    return history
