"""Finite-difference verification of the hand-derived gradients.

The oracle only ever calls the forward pass and the loss; it never touches
`Network.backward`, so the two gradient routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data
from .network import LayerSpec, Network, NetworkSpec, init_network


def finite_difference_gradients(net: Network, x: np.ndarray, y: np.ndarray,
                                step: float = 1e-5) -> np.ndarray:
    """Central-difference loss gradient in the `theta` layout (dropout off)."""
    data.real(step, "step", above=0)
    theta = net.theta
    grad = np.zeros_like(theta)
    # a loss that overflows leaves an inf or NaN entry, which fails the case
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(theta.size):
            orig = theta[i]
            theta[i] = orig + step
            up = net.loss(net.predict(x), y)
            theta[i] = orig - step
            down = net.loss(net.predict(x), y)
            theta[i] = orig
            grad[i] = (up - down) / (2.0 * step)
    return grad


def _worst_relative_error(net: Network, analytic: np.ndarray, numeric: np.ndarray) -> float:
    # the relative error of each weight matrix and bias vector on its own scale;
    # any non-finite entry fails the case, as every comparison with a NaN is false
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return math.inf
    worst = 0.0
    for tensors in zip(net.split(analytic), net.split(numeric)):
        for a, nmr in zip(*tensors):
            denom = max(float(np.abs(a).max()), float(np.abs(nmr).max()), 1e-8)
            worst = max(worst, float(np.abs(a - nmr).max()) / denom)
    return worst


@dataclass(frozen=True)
class GradCheckCase:
    """One randomized spec in the verification grid."""

    name: str
    spec: NetworkSpec
    batch_size: int
    seed: int


def default_grid(count: int = 24, seed: int = 0) -> list[GradCheckCase]:
    """Randomized small specs covering every activation and both losses."""
    data.count(count, "count", 1)
    rng = np.random.default_rng(seed)
    hidden_acts = ("identity", "relu", "sigmoid", "tanh")
    cases = []
    for i in range(count):
        use_cce = i % 2 == 1
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        layers = []
        for l in range(depth):
            act = hidden_acts[int(rng.integers(len(hidden_acts)))]
            layers.append(LayerSpec(dims[l], dims[l + 1], activation=act))
        if use_cce:
            out_dim = int(rng.integers(2, 5))
            layers.append(LayerSpec(dims[-1], out_dim, activation="softmax"))
            loss = "categorical_cross_entropy"
        else:
            loss = "mse"
        spec = NetworkSpec(tuple(layers), loss=loss)
        cases.append(
            GradCheckCase(
                name=f"case{i:02d}_{loss}_{'x'.join(str(l.fan_out) for l in spec.layers)}",
                spec=spec,
                batch_size=int(rng.integers(1, 9)),
                seed=int(rng.integers(2**31)),
            )
        )
    return cases


def run_case(case: GradCheckCase, step: float = 1e-5, corrupt: bool = False) -> float:
    """Max relative gradient error for one case; `corrupt` perturbs one analytic
    gradient entry and exists as a negative control for the harness itself."""
    rng = np.random.default_rng(case.seed)
    net = init_network(case.spec, seed=case.seed)
    x = rng.standard_normal((case.batch_size, case.spec.input_dim))
    if case.spec.loss == "categorical_cross_entropy":
        hot = rng.integers(case.spec.output_dim, size=case.batch_size)
        y = np.zeros((case.batch_size, case.spec.output_dim))
        y[np.arange(case.batch_size), hot] = 1.0
    else:
        y = rng.standard_normal((case.batch_size, case.spec.output_dim))
    # Random biases, drawn after x and y: behind a dead width-1 relu layer a
    # zero bias is the next layer's pre-activation, and at relu's kink a
    # central difference reads half a slope.
    for b in net.biases:
        b[...] = rng.uniform(-0.5, 0.5, size=b.shape)
    analytic = net.backward(net.forward(x), y)
    if corrupt:
        analytic[0] += 1.0  # deliberate fault in the first weight
    return _worst_relative_error(net, analytic, finite_difference_gradients(net, x, y, step))
