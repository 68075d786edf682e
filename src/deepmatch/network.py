"""Dense feedforward networks with hand-derived backpropagation.

A network is `Network(spec, theta)`: a `NetworkSpec` plus one float64 vector
holding every weight and bias. Everything is plain numpy: Glorot-uniform
initialization, a forward pass with inverted dropout (dropout iff an rng is
passed), exact layer-by-layer gradients for mean squared error and categorical
cross-entropy, the adadelta update rule, and a mini-batch training loop.
No autodiff framework is involved; the finite-difference harness in
`gradcheck` exists precisely to keep these gradients honest.

A training step on small layers is numpy call overhead, not arithmetic. So
`forward` and `backward` write with `out=` ufuncs into a `ForwardPass`
workspace that `Network.workspace` allocates and `train` makes once per
batch length; for MSE, `train` points its residual at the epoch's rows. The
adadelta step runs in place. `predict` and `gradcheck` run the same code on
a fresh workspace. Products use `np.dot`, the same dgemm as `@` for any
operand with a unit stride, at less cost per call. None of this moves a bit:
every array is formed by the same operations, in the same order, as when it
was freshly allocated, and an output buffer does not change how numpy
evaluates an operation. Only a multiplication by the identity's derivative,
1.0, is skipped, because it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import count, finite_matrix


def _softmax(z: np.ndarray) -> None:
    np.subtract(z, z.max(axis=1, keepdims=True), out=z)
    np.exp(z, out=z)
    np.divide(z, z.sum(axis=1, keepdims=True), out=z)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), into `out` (z itself for a layer) or a fresh array."""
    # exp(-z) overflows to inf below z = -709; 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)


# name -> (the function, applied in place to the pre-activation z; its
# derivative, expressed through the output h and written into `out`). The
# identity needs neither: it leaves z as it is, and multiplying by its
# derivative, 1.0, is exact. Softmax has no derivative: it only feeds
# cross-entropy, whose logit gradient backward forms directly.
_ACTIVATIONS = {
    "identity": (None, None),
    "relu": (lambda z: np.maximum(0.0, z, out=z), lambda h, out: np.greater(h, 0.0, out=out)),
    "sigmoid": (lambda z: sigmoid(z, out=z),
                lambda h, out: np.multiply(h, np.subtract(1.0, h, out=out), out=out)),
    "tanh": (lambda z: np.tanh(z, out=z),
             lambda h, out: np.subtract(1.0, np.square(h, out=out), out=out)),
    "softmax": (_softmax, None),
}
LOSSES = ("mse", "categorical_cross_entropy")

CCE_CLAMP = 1e-12  # lower clamp inside the log, avoids ln(0)

# adadelta's decay rate rho = 0.95, its eps = 1e-6 and 1 - rho, as 0-d arrays:
# faster ufunc operands than floats.
_RHO, _EPS, _DECAY = np.array(0.95), np.array(1e-6), np.array(1.0 - 0.95)


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
class TrainConfig:
    """A training schedule; the seed is not part of it, but an argument of `train`."""

    epochs: int
    batch_size: int = 32

    def __post_init__(self):
        count(self.epochs, "epochs", 1)
        count(self.batch_size, "batch_size", 1)


def apply_dropout(h: np.ndarray, rate: float, rng: np.random.Generator, out: tuple):
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Writes into `out`, a (dropped, mask) pair of C-ordered arrays shaped like
    `h`, and returns it; the mask already carries the 1/(1-rate) scaling so
    that applying it is a single multiply in both passes.
    """
    keep = 1.0 - rate
    dropped, mask = out
    rng.random(out=mask)
    np.less(mask, keep, out=mask)
    np.divide(mask, keep, out=mask)
    np.multiply(h, mask, out=dropped)
    return dropped, mask


@dataclass
class ForwardPass:
    """The arrays that `forward` and `backward` write for one batch.

    `Network.workspace` allocates one per batch length, so a training loop
    can reuse it; for an MSE net, `train` swaps `residual` for its epoch rows.
    """

    inputs: list    # layer inputs: inputs[l] feeds layer l; inputs[-1] is the output
    hidden: list    # pre-dropout layer outputs
    masks: list     # dropout mask per layer (None where inactive)
    dropout: bool   # made for passes with dropout, which draw from an rng
    residual: np.ndarray  # output - target, written by backward
    scratch: list   # backward's two arrays per layer, shaped like its output
    grad_views: tuple = (None, None)  # the last gradient vector and its split views

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

    def workspace(self, batch: int, dropout: bool = False) -> ForwardPass:
        """Fresh arrays for a training step over `batch` rows.

        With `dropout`, each layer with a dropout rate gets a mask and a
        separate dropped output; it then needs an rng in `forward`. The
        arrays are left unwritten, so those that a pass never uses cost no memory.
        """
        inputs, hidden, masks, scratch = [None], [], [], []
        for layer in self.spec.layers:
            shape = (batch, layer.fan_out)
            h = np.empty(shape)
            drop = dropout and layer.dropout_rate > 0.0
            hidden.append(h)
            masks.append(np.empty(shape) if drop else None)
            inputs.append(np.empty(shape) if drop else h)
            scratch.append((np.empty(shape), np.empty(shape)))
        return ForwardPass(inputs, hidden, masks, dropout, np.empty(shape), scratch)

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None,
                out: ForwardPass | None = None) -> ForwardPass:
        """Forward pass; dropout runs, drawing from `rng`, iff an `rng` is passed.

        The pass is written into `out`, a workspace for this batch length made
        with dropout iff an `rng` is passed; by default into a fresh one.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"input must be 2-D with {self.spec.input_dim} columns, got shape {x.shape}"
            )
        cache = self.workspace(x.shape[0], dropout=rng is not None) if out is None else out
        if cache.dropout != (rng is not None):
            raise ValueError(f"a workspace made with dropout={cache.dropout} "
                             f"needs {'an' if cache.dropout else 'no'} rng")
        cache.inputs[0] = a = x
        for l, layer in enumerate(self.spec.layers):
            h = np.dot(a, self.weights[l].T, out=cache.hidden[l])
            np.add(h, self.biases[l], out=h)
            activate = _ACTIVATIONS[layer.activation][0]
            if activate is not None:
                activate(h)
            a = cache.inputs[l + 1]
            if a is not h:
                apply_dropout(h, layer.dropout_rate, rng, out=(a, cache.masks[l]))
        return cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode output (dropout off)."""
        return self.forward(x).output

    def loss(self, output: np.ndarray, target: np.ndarray) -> float:
        output = np.asarray(output, dtype=float)
        target = np.asarray(target, dtype=float)
        if output.shape != target.shape or not len(output):
            raise ValueError(f"output {output.shape} vs target {target.shape}: empty or unequal")
        if self.spec.loss == "mse":
            return _mse(output - target, output.shape[0])
        p = np.clip(output, CCE_CLAMP, 1.0)
        return float(np.mean(-np.sum(target * np.log(p), axis=1)))

    def backward(self, cache: ForwardPass, target: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Exact gradient of the loss w.r.t. `theta`, as one vector in its layout.

        `cache` must come from a forward pass over the same batch and dropout
        masks. The gradient is written into `out` when given, else into a
        fresh vector; `cache.residual` is left holding output - target.
        """
        target = np.asarray(target, dtype=float)
        output = cache.output
        if output.shape != target.shape:
            raise ValueError(f"output {output.shape} vs target {target.shape}")
        grad = np.empty(self.spec.param_count) if out is None else out
        if grad is not cache.grad_views[0]:  # train passes one vector every step
            cache.grad_views = (grad, self.split(grad))
        views = cache.grad_views[1]
        n_batch = np.array(float(output.shape[0]))  # 0-d: a faster operand than an int
        layers = self.spec.layers
        last = len(layers) - 1

        r = np.subtract(output, target, out=cache.residual)
        d_out, spare = cache.scratch[last]
        if self.spec.loss == "categorical_cross_entropy":
            # Softmax + CCE collapse to (p - t) / B at the logits.
            delta = np.divide(r, n_batch, out=d_out)
        else:
            np.add(r, r, out=d_out)  # exactly 2.0 * r
            np.divide(d_out, n_batch, out=d_out)
            delta = _times_derivative(layers[last].activation, output, d_out, spare)

        for l in range(last, -1, -1):
            dw, db = views[l]
            np.add.reduce(delta, axis=0, out=db)
            np.dot(delta.T, cache.inputs[l], out=dw)
            if l > 0:
                da, spare = cache.scratch[l - 1]
                np.dot(delta, self.weights[l], out=da)
                if cache.masks[l - 1] is not None:
                    np.multiply(da, cache.masks[l - 1], out=da)
                delta = _times_derivative(layers[l - 1].activation, cache.hidden[l - 1], da, spare)
        return grad


def _times_derivative(activation: str, h: np.ndarray, upstream: np.ndarray,
                      spare: np.ndarray) -> np.ndarray:
    """upstream * f'(h) for the layer output h, written into `spare`.

    The identity's derivative is 1.0 everywhere, so `upstream` is returned as is.
    """
    derivative = _ACTIVATIONS[activation][1]
    if derivative is None:
        return upstream
    derivative(h, spare)
    return np.multiply(upstream, spare, out=spare)


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights, zero biases, drawn layer by layer from one seeded stream."""
    rng = np.random.default_rng(seed)
    net = Network(spec, np.zeros(spec.param_count))
    for layer, w in zip(spec.layers, net.weights):
        limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def adadelta_step(theta: np.ndarray, grad: np.ndarray, state: np.ndarray,
                  work: np.ndarray) -> None:
    """One adadelta step (Zeiler 2012) on `theta`, in place, with rho = 0.95, eps = 1e-6:

        eg2'  = rho eg2 + (1 - rho) grad^2
        delta = -sqrt(ed2 + eps) / sqrt(eg2' + eps) * grad,  theta' = theta + delta
        ed2'  = rho ed2 + (1 - rho) delta^2

    `state` stacks the running averages eg2 and ed2 as one (2, *grad.shape)
    array and is updated in place; `work` is (3, *grad.shape) scratch. The
    operations are those of the formulas, one by one, so every value keeps
    their bits; theta - (-delta) is theta + delta exactly.
    """
    eg2, ed2 = state[0], state[1]
    roots, root_g, root_d, step = work[:2], work[0], work[1], work[2]
    np.add(ed2, _EPS, out=root_d)          # ed2 + eps, before ed2 decays
    np.multiply(state, _RHO, out=state)    # rho * eg2, rho * ed2
    np.multiply(grad, grad, out=step)
    np.multiply(step, _DECAY, out=step)
    np.add(eg2, step, out=eg2)             # eg2' = rho eg2 + (1 - rho) g^2
    np.add(eg2, _EPS, out=root_g)
    np.sqrt(roots, out=roots)
    np.divide(root_d, root_g, out=step)
    np.multiply(step, grad, out=step)      # step = -delta
    np.subtract(theta, step, out=theta)
    np.multiply(step, step, out=root_g)
    np.multiply(root_g, _DECAY, out=root_g)
    np.add(ed2, root_g, out=ed2)           # ed2' = rho ed2 + (1 - rho) delta^2


# No caller: only the benchmark tracer resolves this name, until it stops wrapping it.
def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
    theta -= lr * grad


def _mse(residuals: np.ndarray, batch_size: int) -> float:
    """The mean of each batch's MSE over the batches of `batch_size` residual rows.

    Each batch's loss is the mean over its rows of the row's sum of squares,
    reduced as np.mean reduces the batch's own row sums, so it holds the same
    bits as a loss taken batch by batch; one batch of every row is the MSE.
    """
    rows = np.sum(np.square(residuals), axis=1)
    full = rows.shape[0] - rows.shape[0] % batch_size
    batch_losses = np.sum(rows[:full].reshape(-1, batch_size), axis=1) / batch_size
    if full < rows.shape[0]:
        batch_losses = np.append(batch_losses, np.mean(rows[full:]))
    return float(np.mean(batch_losses))


def train(net: Network, inputs: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig, seed: int) -> list[float]:
    """Mini-batch training; mutates `net` in place and returns the loss history.

    `seed` draws the shuffling and the dropout masks, from one stream. The
    history holds the mean batch loss of each epoch (length = cfg.epochs).
    Raises ValueError on empty or non-finite data, and TrainingDiverged when
    an epoch ends with a non-finite loss or parameter.

    Each epoch gathers its shuffled rows once and steps through contiguous
    slices of them, reusing one workspace per batch length (the full batch
    and the last one), one gradient vector and the adadelta state. An MSE
    loss is not recomputed: each step swaps the workspace's `residual` for
    the batch's rows of the epoch residuals, into which `backward` writes
    output - target, and the epoch loss is reduced from them as batch-by-batch
    losses would be. The gradient uses the same residual, so both come from
    one subtraction, and the history and `theta` keep their bits.
    """
    x = finite_matrix(inputs, "training inputs")
    y = finite_matrix(targets, "training targets")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"inputs ({x.shape[0]} rows) vs targets ({y.shape[0]} rows)")
    if x.shape[0] == 0:
        raise ValueError("training needs at least one row of finite inputs and targets")
    n = x.shape[0]
    size = cfg.batch_size
    rng = np.random.default_rng(seed)
    theta = net.theta
    mse = net.spec.loss == "mse"
    grad = np.empty_like(theta)
    state = np.zeros((2, theta.size))  # adadelta's eg2 and ed2
    work = np.empty((3, theta.size))
    spaces = {m: net.workspace(m, dropout=True) for m in {min(size, n), n % size} if m}
    residuals = np.empty((n, net.spec.output_dim))

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        xs = x[order]
        ys = xs if y is x else y[order]
        batch_losses = []
        for start in range(0, n, size):
            stop = start + size
            cache = spaces[min(size, n - start)]
            if mse:
                cache.residual = residuals[start:stop]
            net.forward(xs[start:stop], rng=rng, out=cache)
            if not mse:
                batch_losses.append(net.loss(cache.output, ys[start:stop]))
            net.backward(cache, ys[start:stop], out=grad)
            adadelta_step(theta, grad, state, work)
        epoch_loss = _mse(residuals, size) if mse else float(np.mean(batch_losses))
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged(f"non-finite parameter at epoch {epoch}")
        history.append(epoch_loss)
    return history
