"""Dense feedforward networks with hand-derived backpropagation.

A network is `Network(spec, theta)`: a `NetworkSpec` plus one float64 vector
holding every parameter, one row-major block [W | b] per layer: unit j's
weights, then its bias. Every array that a layer multiplies ends in a column
of ones, so one product gives its pre-activation, [a | 1] @ [W | b].T =
a @ W.T + b, and one its block's gradient, delta.T @ [a | 1] =
[delta.T @ a | delta.sum(0)]. Everything is plain numpy: Glorot-uniform
initialization, exact layer-by-layer gradients for mean squared error and
categorical cross-entropy, which `gradcheck` holds to finite differences,
the adadelta update rule, and a mini-batch training loop, the one place
where inverted dropout runs.

A training step on small layers is numpy call overhead, not arithmetic. So
a pass is built first, as a list of (numpy function, arguments) pairs bound
to the arrays of a `ForwardPass` workspace with positional `out` arguments,
and then run by one loop. `forward` and `backward` build and run an
eval-mode pass over fresh arrays; `train` builds every batch's whole step,
forward with dropout, backward and the adadelta update, once per fit, over
views of one buffer into which each epoch gathers its shuffled rows, and
then only runs it. Products use `np.dot`, the same dgemm as `@` for any
operand with a unit stride, at less cost per call.

The workspace, the call lists and the output buffers move no bit: every
array is formed by the same operations, in the same order, as when it is
freshly allocated, and an output buffer does not change how numpy evaluates
an operation. Two rewrites are exact: a multiplication by the identity's
derivative, 1.0, is skipped, and the MSE's 2 r / B is formed as r / (B / 2).
The folded products equal the textbook a @ W.T + b, delta.sum(0) and
delta.T @ a where the BLAS adds a product's terms in order, the ones
column's last, as the separate add and the axis-0 reduce do; OpenBLAS's
Haswell dgemm does so below 32 terms. Three cases round differently, inside
a dot product's error bound: a batch of one row, for which numpy calls
dgemv; a layer with one input or one output; and a layer with 31 or more
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import count, finite_matrix, real

# adadelta's decay rate rho = 0.95, its eps = 1e-6 and 1 - rho, and the
# activations' 0 and 1, as 0-d arrays: faster ufunc operands than floats.
_RHO, _EPS, _DECAY = np.array(0.95), np.array(1e-6), np.array(1.0 - 0.95)
_ZERO, _ONE = np.array(0.0), np.array(1.0)


def _run(calls: list) -> None:
    for function, args in calls:
        function(*args)


def _softmax(z: np.ndarray, h: np.ndarray) -> list:
    col = np.empty((z.shape[0], 1))  # each row's max, then its sum
    return [(np.maximum.reduce, (z, 1, None, col, True)), (np.subtract, (z, col, h)),
            (np.exp, (h, h)), (np.add.reduce, (h, 1, None, col, True)), (np.divide, (h, col, h))]


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), into `out` (z itself for a layer) or a fresh array."""
    # exp(-z) overflows to inf below z = -709; 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)


# name -> (the calls that write the function of the pre-activation z into the
# output h, which may be z itself; the calls that write its derivative,
# expressed through h, into `out`). The identity in place needs no calls, and
# multiplying by its derivative, 1.0, is exact. Softmax has no derivative: it
# only feeds cross-entropy, whose logit gradient backward forms directly.
_ACTIVATIONS = {
    "identity": (lambda z, h: [] if h is z else [(np.copyto, (h, z))], None),
    # np.maximum deprecates a positional out
    "relu": (lambda z, h: [(partial(np.maximum, out=h), (_ZERO, z))],
             lambda h, out: [(np.greater, (h, _ZERO, out))]),
    "sigmoid": (lambda z, h: [(sigmoid, (z, h))],
                lambda h, out: [(np.subtract, (_ONE, h, out)), (np.multiply, (h, out, out))]),
    "tanh": (lambda z, h: [(np.tanh, (z, h))],
             lambda h, out: [(np.square, (h, out)), (np.subtract, (_ONE, out, out))]),
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
        count(self.fan_in, "fan_in", 1)
        count(self.fan_out, "fan_out", 1)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        real(self.dropout_rate, "dropout_rate", at_least=0, below=1)


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
        return sum(l.fan_out * (l.fan_in + 1) for l in self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out


@dataclass(frozen=True)
class TrainConfig:
    """A training schedule; the seed is not part of it, but an argument of `train`."""

    epochs: int
    batch_size: int = 32

    def __post_init__(self):
        count(self.epochs, "epochs", 1)
        count(self.batch_size, "batch_size", 1)


@dataclass
class ForwardPass:
    """The arrays a batch's forward and backward passes write; `train` reuses one per length.

    Layer l multiplies `extended[l]`, its input rows with a last column of
    ones, by its [W | b] block into the contiguous `sums[l]`. The activation
    writes `hidden[l]` from there: in place for the final layer and a dropout
    layer, otherwise into the next layer's extended input, where a dropout
    layer writes its dropped output instead.
    """

    extended: list  # extended[l] feeds layer l; extended[0] is set by `_forward_calls`
    sums: list      # the products, each layer's pre-activation
    hidden: list    # pre-dropout layer outputs
    masks: list     # dropout mask per layer (None where inactive)
    scratch: list   # backward's two arrays per layer, shaped like its output

    @property
    def inputs(self) -> list:
        """Views of the layer inputs: inputs[l] feeds layer l; inputs[-1] is the output."""
        return [a[:, :-1] for a in self.extended] + [self.output]

    @property
    def output(self) -> np.ndarray:
        return self.hidden[-1]


class Network:
    """A dense feedforward net whose parameters live in one float64 vector.

    `theta` holds, layer by layer, a row-major fan_out x (fan_in + 1) block
    [W | b]: row j is unit j's weights, then its bias. The network adopts
    `theta` without copying; `blocks(theta)`, `weights[l]` (the block's first
    fan_in columns) and `biases[l]` (its last) are views into it, and
    gradients and optimiser state share the same layout.
    """

    def __init__(self, spec: NetworkSpec, theta: np.ndarray):
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
                and theta.shape == (spec.param_count,)):
            raise ValueError(f"theta must be a 1-D float64 array of param_count={spec.param_count} "
                             f"entries, got {getattr(theta, 'dtype', type(theta).__name__)} "
                             f"of shape {np.shape(theta)}")
        self.spec = spec
        self.theta = theta
        blocks = self.blocks(theta)
        self.weights = [block[:, :-1] for block in blocks]
        self.biases = [block[:, -1] for block in blocks]
        # each layer's product operand, made once: a view per batch would
        # swell the call lists that `train` builds
        self._transposed = [block.T for block in blocks]

    def blocks(self, flat: np.ndarray) -> list:
        """Per-layer [W | b] views, fan_out x (fan_in + 1), of a vector laid out like `theta`."""
        n = self.spec.param_count
        if flat.shape != (n,):
            raise ValueError(f"expected a flat vector of param_count={n}, got {flat.shape}")
        views, start = [], 0
        for layer in self.spec.layers:
            stop = start + layer.fan_out * (layer.fan_in + 1)
            views.append(flat[start:stop].reshape(layer.fan_out, layer.fan_in + 1))
            start = stop
        return views

    def split(self, flat: np.ndarray) -> list:
        """Per-layer (W, b) views of a vector laid out like `theta`."""
        return [(block[:, :-1], block[:, -1]) for block in self.blocks(flat)]

    def workspace(self, batch: int, dropout: bool = False) -> ForwardPass:
        """Fresh arrays for a pass over `batch` rows, all but the first layer's input.

        With `dropout`, as `train` asks, each layer with a dropout rate gets a
        mask and keeps its output apart from the dropped one. The arrays are
        left unwritten but for the ones columns, so those that a pass never
        uses cost no memory.
        """
        last = len(self.spec.layers) - 1
        extended, sums, hidden, masks, scratch = [None], [], [], [], []
        for l, layer in enumerate(self.spec.layers):
            shape = (batch, layer.fan_out)
            z = np.empty(shape)
            drop = dropout and layer.dropout_rate > 0.0
            sums.append(z)
            masks.append(np.empty(shape) if drop else None)
            scratch.append((np.empty(shape), np.empty(shape)))
            if l == last:
                hidden.append(z)
            else:
                a1 = np.empty((batch, layer.fan_out + 1))
                a1[:, -1] = 1.0
                extended.append(a1)
                hidden.append(z if drop else a1[:, :-1])
        return ForwardPass(extended, sums, hidden, masks, scratch)

    def forward(self, x: np.ndarray) -> ForwardPass:
        """Eval-mode forward pass (dropout off) into a fresh workspace."""
        x1 = _with_ones(finite_matrix(x, "network input", self.spec.input_dim))
        cache = self.workspace(x1.shape[0])
        _run(_forward_calls(self, cache, x1, None))
        return cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode output (dropout off)."""
        return self.forward(x).output

    def loss(self, output: np.ndarray, target: np.ndarray) -> float:
        output = np.asarray(output, dtype=float)
        target = np.asarray(target, dtype=float)
        if output.shape != target.shape or not len(output):
            raise ValueError(f"output {output.shape} vs target {target.shape}: empty or unequal")
        return _mean_loss(self.spec.loss, output, target, output - target, output.shape[0])

    def backward(self, cache: ForwardPass, target: np.ndarray) -> np.ndarray:
        """Exact loss gradient w.r.t. `theta`, in its layout, from `forward`'s `cache`."""
        target = finite_matrix(target, "network target", self.spec.output_dim)
        if cache.output.shape != target.shape:
            raise ValueError(f"output {cache.output.shape} vs target {target.shape}")
        grad = np.empty(self.spec.param_count)
        _run(_backward_calls(self, cache, target, np.empty(target.shape), self.blocks(grad)))
        return grad


def _with_ones(x: np.ndarray) -> np.ndarray:
    """A copy of the rows `x` with a last column of ones, for a [W | b] block to multiply."""
    x1 = np.ones((x.shape[0], x.shape[1] + 1))
    x1[:, :-1] = x
    return x1


def _forward_calls(net: Network, cache: ForwardPass, x1: np.ndarray,
                   rng: np.random.Generator | None) -> list:
    """The forward pass of `x1`, rows that end in a column of ones, through `cache`.

    Dropout runs iff an `rng` is given. Inverted dropout zeroes each unit with
    probability `rate` and scales the survivors by 1/(1-rate); its mask
    carries the scaling, so that applying it is a single multiply in both
    passes.
    """
    cache.extended[0] = x1
    calls = []
    for l, layer in enumerate(net.spec.layers):
        z, h, mask = cache.sums[l], cache.hidden[l], cache.masks[l]
        calls.append((np.dot, (cache.extended[l], net._transposed[l], z)))
        calls += _ACTIVATIONS[layer.activation][0](z, h)
        if mask is not None:
            keep = np.array(1.0 - layer.dropout_rate)
            calls += [(rng.random, (None, np.float64, mask)), (np.less, (mask, keep, mask)),
                      (np.divide, (mask, keep, mask)),
                      (np.multiply, (h, mask, cache.extended[l + 1][:, :-1]))]
    return calls


def _backward_calls(net: Network, cache: ForwardPass, target: np.ndarray,
                    residual: np.ndarray, grads: list) -> list:
    """The gradient into the [W | b] blocks `grads` after the pass in `cache`.

    The output's residual, output - target, goes into `residual`.
    """
    output, layers = cache.output, net.spec.layers
    last = len(layers) - 1
    d_out, spare = cache.scratch[last]
    calls = [(np.subtract, (output, target, residual))]
    if net.spec.loss == "categorical_cross_entropy":
        # Softmax + CCE collapse to (p - t) / B at the logits.
        calls.append((np.divide, (residual, np.array(float(output.shape[0])), d_out)))
        delta = d_out
    else:
        # 2 r / B as r / (B / 2): B / 2 and 2 r are exact, so both round one quotient
        calls.append((np.divide, (residual, np.array(output.shape[0] / 2.0), d_out)))
        delta = _times_derivative(layers[last].activation, output, d_out, spare, calls)
    for l, block in reversed(list(enumerate(grads))):
        calls.append((np.dot, (delta.T, cache.extended[l], block)))
        if l > 0:
            da, spare = cache.scratch[l - 1]
            calls.append((np.dot, (delta, net.weights[l], da)))
            if cache.masks[l - 1] is not None:
                calls.append((np.multiply, (da, cache.masks[l - 1], da)))
            delta = _times_derivative(layers[l - 1].activation, cache.hidden[l - 1], da, spare,
                                      calls)
    return calls


def _times_derivative(activation: str, h: np.ndarray, upstream: np.ndarray,
                      spare: np.ndarray, calls: list) -> np.ndarray:
    """Appends to `calls` upstream * f'(h), for the layer output h, into `spare`; returns it.

    The identity's derivative is 1.0 everywhere, so `upstream` is returned as is.
    """
    derivative = _ACTIVATIONS[activation][1]
    if derivative is None:
        return upstream
    calls += derivative(h, spare) + [(np.multiply, (upstream, spare, spare))]
    return spare


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights, zero biases, drawn layer by layer from one seeded stream."""
    rng = np.random.default_rng(seed)
    net = Network(spec, np.zeros(spec.param_count))
    for layer, w in zip(spec.layers, net.weights):
        limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def adadelta_step(theta: np.ndarray, steps: np.ndarray, state: np.ndarray,
                  roots: np.ndarray) -> None:
    """One adadelta step (Zeiler 2012) on `theta`, in place, with rho = 0.95, eps = 1e-6:

        eg2'  = rho eg2 + (1 - rho) grad^2
        delta = -sqrt(ed2 + eps) / sqrt(eg2' + eps) * grad,  theta' = theta + delta
        ed2'  = rho ed2 + (1 - rho) delta^2

    `steps` stacks the gradient and -delta, and `state` the running averages
    eg2 and ed2, each as one (2, *grad.shape) array; `roots` is scratch of
    that shape. A step leaves rho ed2' in state[1] and its -delta in
    steps[1], and the next step adds (1 - rho) delta^2 in the same calls that
    make its own eg2'. So the ed2 that a step reads is
    state[1] + (1 - rho) steps[1]^2, and zeros in `steps` and `state` start
    a run. The operations are those of the formulas, one by one, so every
    value keeps their bits; (-delta)^2 is delta^2 and theta - (-delta) is
    theta + delta exactly.
    """
    # rows by index: unpacking an array iterates it, at 0.3 us a row
    grad, step, root_g, root_d = steps[0], steps[1], roots[0], roots[1]
    eg2, ed2 = state[0], state[1]
    np.multiply(steps, steps, roots)  # grad^2, and the last step's delta^2
    np.multiply(roots, _DECAY, roots)
    np.multiply(eg2, _RHO, eg2)
    np.add(state, roots, state)       # eg2', and the ed2 of this step
    np.add(state, _EPS, roots)
    np.sqrt(roots, roots)
    np.divide(root_d, root_g, step)
    np.multiply(step, grad, step)     # step = -delta
    np.subtract(theta, step, theta)
    np.multiply(ed2, _RHO, ed2)       # rho ed2, for the next step to finish


# No caller: only the benchmark tracer resolves this name, until it stops wrapping it.
def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
    theta -= lr * grad


def _mean_loss(loss: str, outputs: np.ndarray | None, targets: np.ndarray,
               residuals: np.ndarray, batch_size: int) -> float:
    """The mean over the batches of `batch_size` rows of each batch's mean row loss.

    A row's loss is its residual's sum of squares for MSE, which reads no
    `outputs`, and -sum(target * log(output)), the output clamped below at
    CCE_CLAMP, for cross-entropy. Each batch's mean is reduced as np.mean
    reduces its rows, so it holds the bits of a loss taken batch by batch.
    """
    if loss == "mse":
        rows = np.sum(np.square(residuals), axis=1)
    else:
        rows = -np.sum(targets * np.log(np.clip(outputs, CCE_CLAMP, 1.0)), axis=1)
    full = rows.shape[0] - rows.shape[0] % batch_size
    means = np.sum(rows[:full].reshape(-1, batch_size), axis=1) / batch_size
    if full < rows.shape[0]:
        means = np.append(means, np.mean(rows[full:]))
    return float(np.mean(means))


def train(net: Network, inputs: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig, seed: int) -> list[float]:
    """Mini-batch training; mutates `net` in place and returns the loss history.

    `seed` draws the shuffling and the dropout masks, from one stream. The
    history holds the mean batch loss of each epoch (length = cfg.epochs).
    Raises ValueError on empty or non-finite data, or data whose widths do not
    fit the net, before any step; and TrainingDiverged when an epoch ends with
    a non-finite loss or parameter.

    The steps of an epoch are built once, before the first. The inputs are
    copied once per fit with a last column of ones; each epoch gathers its
    shuffled rows from that copy into one buffer, whose first columns are an
    autoencoder's targets, and each batch's step runs its forward
    pass, backward pass and `adadelta_step` on its rows, views of that buffer,
    through one workspace per batch length (the full batch and the last one),
    one gradient vector and the adadelta state. The backward pass writes
    output - target to the batch's rows of the epoch residuals, and a
    classifier's step copies its outputs to the epoch's; `_mean_loss` reduces
    the epoch loss from them as batch-by-batch losses would be. An MSE
    gradient uses the same residual, so both come from one subtraction, and
    the history and `theta` keep their bits.
    """
    x = finite_matrix(inputs, "training inputs", net.spec.input_dim)
    y = finite_matrix(targets, "training targets", net.spec.output_dim)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"inputs ({x.shape[0]} rows) vs targets ({y.shape[0]} rows)")
    if x.shape[0] == 0:
        raise ValueError("training needs at least one row of finite inputs and targets")
    n, size, spec = x.shape[0], cfg.batch_size, net.spec
    rng = np.random.default_rng(seed)
    theta = net.theta
    steps = np.zeros((2, theta.size))  # the gradient and adadelta's -delta
    state = np.zeros((2, theta.size))  # adadelta's eg2 and ed2
    roots = np.empty((2, theta.size))
    grads = net.blocks(steps[0])
    spaces = {m: net.workspace(m, dropout=True) for m in {min(size, n), n % size} if m}
    x1 = _with_ones(x)
    xs = np.empty_like(x1)  # the epoch's shuffled rows
    ys = xs[:, :-1] if y is x else np.empty_like(y)
    residuals = np.empty((n, spec.output_dim))
    outputs = None if spec.loss == "mse" else np.empty_like(residuals)
    epoch_calls = []
    for start in range(0, n, size):
        rows = slice(start, start + size)
        cache = spaces[min(size, n - start)]
        epoch_calls += _forward_calls(net, cache, xs[rows], rng)
        if outputs is not None:
            epoch_calls.append((np.copyto, (outputs[rows], cache.output)))
        epoch_calls += _backward_calls(net, cache, ys[rows], residuals[rows], grads)
        epoch_calls.append((adadelta_step, (theta, steps, state, roots)))

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        np.take(x1, order, 0, xs, "clip")  # "raise" would buffer the output
        if y is not x:
            np.take(y, order, 0, ys, "clip")
        _run(epoch_calls)
        epoch_loss = _mean_loss(spec.loss, outputs, ys, residuals, size)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged(f"non-finite parameter at epoch {epoch}")
        history.append(epoch_loss)
    return history
