"""Independently coded reference routes used only by the tests.

Each function here re-derives a quantity the library computes, by a different
algorithm (closed forms, exhaustive scans, Newton iterations), so that test
agreement means two unrelated code paths concur. One helper is not an
oracle: `adadelta_delta` reads the library's in-place adadelta step as a
function, so that tests can hold it against the formulas. And
`swiss_roll_charts` is a reference embedding rather than a re-derivation: the
exact 2-D charts of the swiss roll, which no library embedder computes.
"""

import math

import numpy as np


def eigvals_3x3_closed_form(a):
    """Eigenvalues of a symmetric 3x3 matrix from the characteristic cubic.

    Trigonometric solution of det(A - lam I) = 0 (no iteration, no
    factorization). Returns the three roots sorted ascending.
    """
    a = [[float(a[i][j]) for j in range(3)] for i in range(3)]
    p1 = a[0][1] ** 2 + a[0][2] ** 2 + a[1][2] ** 2
    if p1 == 0.0:
        return sorted((a[0][0], a[1][1], a[2][2]))
    q = (a[0][0] + a[1][1] + a[2][2]) / 3.0
    p2 = (a[0][0] - q) ** 2 + (a[1][1] - q) ** 2 + (a[2][2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = [
        [(a[i][j] - (q if i == j else 0.0)) / p for j in range(3)]
        for i in range(3)
    ]
    det_b = (
        b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
        - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
        + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
    )
    r = min(1.0, max(-1.0, det_b / 2.0))
    phi = math.acos(r) / 3.0
    lam_hi = q + 2.0 * p * math.cos(phi)
    lam_lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam_mid = 3.0 * q - lam_hi - lam_lo
    return sorted((lam_lo, lam_mid, lam_hi))


def knn_scan(z, w, i, k):
    """Plain-Python k nearest opposite-arm neighbors (ties to lower index)."""
    n = len(z)
    d = len(z[0])
    cands = [j for j in range(n) if w[j] != w[i]]
    dists = []
    for j in cands:
        total = 0.0
        for c in range(d):
            gap = z[i][c] - z[j][c]
            total += gap * gap  # x*x is the correctly rounded square; x**2 (libm pow) can be 1 ulp off
        dists.append(math.sqrt(total))
    order = sorted(range(len(cands)), key=lambda t: (dists[t], cands[t]))[:k]
    return [cands[t] for t in order], [dists[t] for t in order]


def effects_scan(z, w, y, k):
    """Unit effects by exhaustive matching: query outcome minus matched mean."""
    ite = []
    for i in range(len(z)):
        idx, _ = knn_scan(z, w, i, k)
        matched_mean = sum(y[j] for j in idx) / k
        ite.append(y[i] - matched_mean if w[i] == 1 else matched_mean - y[i])
    return ite


def irls_logistic(x, labels, max_iter=200, tol=1e-12):
    """Logistic regression MLE by Newton-Raphson (IRLS), intercept first.

    Returns the coefficient vector (intercept, per-covariate weights) for the
    model p = sigmoid(b0 + x @ beta).
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    design = np.column_stack([np.ones(x.shape[0]), x])
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        grad = design.T @ (labels - p)
        curv = p * (1.0 - p)
        hess = design.T @ (design * curv[:, None])
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta


def silhouette_scan(z, labels):
    """Mean silhouette coefficient by the textbook per-point loop."""
    z = np.asarray(z, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    n = z.shape[0]
    vals = []
    for i in range(n):
        d = np.sqrt(((z - z[i]) ** 2).sum(axis=1))
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own == 1:
            vals.append(0.0)
            continue
        a = d[own].sum() / (n_own - 1)
        b = min(d[labels == lab].mean() for lab in uniq if lab != labels[i])
        vals.append((b - a) / max(a, b))
    return float(np.mean(vals))


def swiss_roll_charts(n, seed):
    """Exact 2-D charts of the units `gen_swiss_roll` draws at size n and `seed`.

    Redraws the generator's first two draws, u then v, and places each unit
    on the sheet at t = (3*pi/2)(1 + 2u), h = 11v, before positional noise.
    Returns (isometric, parametric). The isometric chart is (arc length of
    the spiral (t cos t, t sin t) from t = 0, h), which keeps distances
    along the sheet; that arc length is (t*sqrt(1 + t^2) + asinh t) / 2.
    The parametric chart (t, h) stretches the outer turns against the inner.
    """
    rng = np.random.default_rng(seed)
    t = 1.5 * math.pi * (1.0 + 2.0 * rng.random(n))
    h = 11.0 * rng.random(n)
    arc = (t * np.sqrt(1.0 + t * t) + np.arcsinh(t)) / 2.0
    return np.column_stack((arc, h)), np.column_stack((t, h))


# Allocating network passes: `@` products, fresh arrays at every step,
# `np.ones_like` for the identity's derivative and one `np.concatenate` for
# the gradient. They read `net.spec`, `net.weights` and `net.biases` only, so
# a change to the library's arithmetic cannot move them. Like the library,
# they multiply each layer's [W | b] by its input with a column of ones
# appended; `test_network` holds both to the textbook a @ W.T + b.
def _softmax_alloc(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


_ALLOC_ACTIVATIONS = {
    "identity": (lambda z: z, np.ones_like),
    "relu": (lambda z: np.maximum(0.0, z), lambda out: (out > 0.0).astype(float)),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda out: out * (1.0 - out)),
    "tanh": (np.tanh, lambda out: 1.0 - out**2),
    "softmax": (_softmax_alloc, None),
}


def _with_ones(a):
    return np.hstack([a, np.ones((a.shape[0], 1))])


def forward_alloc(net, x, rng=None):
    """Returns (inputs, hidden, masks): layer inputs, pre-dropout outputs, masks."""
    x = np.asarray(x, dtype=float)
    inputs, hidden, masks = [x], [], []
    a = x
    for l, layer in enumerate(net.spec.layers):
        z = _with_ones(a) @ np.hstack([net.weights[l], net.biases[l][:, None]]).T
        h = _ALLOC_ACTIVATIONS[layer.activation][0](z)
        hidden.append(h)
        if rng is not None and layer.dropout_rate > 0.0:
            keep = 1.0 - layer.dropout_rate
            mask = (rng.random(h.shape) < keep).astype(float) / keep
            a = h * mask
        else:
            a, mask = h, None
        masks.append(mask)
        inputs.append(a)
    return inputs, hidden, masks


def loss_alloc(net, output, target):
    if net.spec.loss == "mse":
        return float(np.mean(np.sum((output - target) ** 2, axis=1)))
    p = np.clip(output, 1e-12, 1.0)
    return float(np.mean(-np.sum(target * np.log(p), axis=1)))


def backward_alloc(net, passes, target):
    """The loss gradient in the `theta` layout, from `forward_alloc`'s passes."""
    inputs, hidden, masks = passes
    target = np.asarray(target, dtype=float)
    out = inputs[-1]
    n_batch = out.shape[0]
    layers = net.spec.layers
    if net.spec.loss == "categorical_cross_entropy":
        delta = (out - target) / n_batch
    else:
        d_out = 2.0 * (out - target) / n_batch
        delta = d_out * _ALLOC_ACTIVATIONS[layers[-1].activation][1](out)
    parts = []
    for l in range(len(layers) - 1, -1, -1):
        parts.append((delta.T @ _with_ones(inputs[l])).ravel())  # [dW | db]
        if l > 0:
            da = delta @ net.weights[l]
            if masks[l - 1] is not None:
                da = da * masks[l - 1]
            delta = da * _ALLOC_ACTIVATIONS[layers[l - 1].activation][1](hidden[l - 1])
    return np.concatenate(parts[::-1])


# adadelta's decay rate and epsilon, written out here and not imported, so
# that agreement with the library also pins its constants.
RHO, EPS = 0.95, 1e-6


def adadelta_textbook(eg2, ed2, grad):
    """One adadelta step (Zeiler 2012) on one tensor: returns (delta, eg2', ed2')."""
    eg2 = RHO * eg2 + (1.0 - RHO) * grad**2
    delta = -np.sqrt(ed2 + EPS) / np.sqrt(eg2 + EPS) * grad
    ed2 = RHO * ed2 + (1.0 - RHO) * delta**2
    return delta, eg2, ed2


def adadelta_delta(eg2, ed2, grad):
    """The library's `adadelta_step` on a copy of the state: (delta, eg2', ed2').

    It steps a parameter of -0.0, and -0.0 - s is exactly -s, signed zeros
    included. The step leaves rho ed2' in state[1] and -delta in steps[1],
    for the next step to add (1 - rho) delta^2 to; that sum, the ed2 which
    the next step reads, is formed here as the library forms it. The
    training tests hold the library's own sum to the per-tensor loop.
    """
    from deepmatch.network import adadelta_step

    grad = np.asarray(grad, dtype=float)
    steps = np.array([grad, np.zeros(grad.shape)])
    state = np.array([eg2, ed2], dtype=float)
    delta = np.full(grad.shape, -0.0)
    adadelta_step(delta, steps, state, np.empty(steps.shape))
    return delta, state[0], state[1] + steps[1] * steps[1] * (1.0 - RHO)


def train_per_tensor(net, x, y, cfg, seed):
    """Mini-batch training with one adadelta update per weight matrix and bias.

    The same batches, dropout draws and update formulas as `network.train`,
    but through the allocating passes above, a fresh `x[idx]` gather per
    batch, and one update per tensor: each tensor (a `net.split` view of
    `theta`) keeps its own adadelta accumulators and gets its own
    `adadelta_textbook` call. Returns the per-epoch mean batch loss.
    """
    tensors = [t for pair in net.split(net.theta) for t in pair]
    eg2 = [np.zeros_like(t) for t in tensors]
    ed2 = [np.zeros_like(t) for t in tensors]
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            passes = forward_alloc(net, x[idx], rng=rng)
            losses.append(loss_alloc(net, passes[0][-1], y[idx]))
            grads = [g for pair in net.split(backward_alloc(net, passes, y[idx])) for g in pair]
            for i, (t, g) in enumerate(zip(tensors, grads)):
                delta, eg2[i], ed2[i] = adadelta_textbook(eg2[i], ed2[i], g)
                t += delta
        history.append(float(np.mean(losses)))
    return history


def barycentric_weights_loop(points, neighbors, reg):
    """LLE reconstruction weights one point at a time, rows summing to 1.

    For each point, the local Gram system (G + reg*trace(G)*I) w = 1 of its
    shifted neighbours is formed and solved on its own.
    """
    out = np.empty(neighbors.shape[:2])
    for i in range(points.shape[0]):
        shifted = neighbors[i] - points[i]
        gram = shifted @ shifted.T
        trace = np.trace(gram)
        bump = reg * trace if trace > 0 else reg
        gram = gram + bump * np.eye(gram.shape[0])
        w = np.linalg.solve(gram, np.ones(gram.shape[0]))
        out[i] = w / w.sum()
    return out


def lle_dense_weights(neighbors, weights):
    """The dense n x n weight matrix of LLE's sparse (neighbors, weights) pair."""
    n = neighbors.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        w[i, neighbors[i]] = weights[i]
    return w


def lle_dense_eigh(neighbors, weights):
    """Dense LLE eigensolve: M = (I-W)'(I-W) formed in full, then LAPACK eigh.

    Returns every eigenvalue (ascending) and eigenvector column of M.
    """
    iw = np.eye(neighbors.shape[0]) - lle_dense_weights(neighbors, weights)
    return np.linalg.eigh(iw.T @ iw)
