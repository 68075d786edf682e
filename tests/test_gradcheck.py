import math

import numpy as np
import pytest

from deepmatch.gradcheck import (
    GradCheckCase,
    _worst_relative_error,
    default_grid,
    finite_difference_gradients,
    run_case,
)
from deepmatch.network import LayerSpec, Network, NetworkSpec, init_network


def test_default_grid_size_and_coverage():
    grid = default_grid(24, seed=0)
    assert len(grid) == 24
    losses = {c.spec.loss for c in grid}
    assert losses == {"mse", "categorical_cross_entropy"}
    acts = {l.activation for c in grid for l in c.spec.layers}
    assert {"softmax"} < acts and len(acts) >= 4
    assert len({c.name for c in grid}) == 24


def test_grid_gradients_match_finite_differences():
    # With zero biases, 13 of the seeds 1004-1020 failed a case on a correct
    # backward pass: a dead width-1 relu layer left the next layer's
    # pre-activations at relu's kink, where a central difference reads half
    # a slope.
    for seed in (0, *range(1004, 1021)):
        for case in default_grid(24, seed=seed):
            err = run_case(case)
            assert err < 1e-4, f"seed {seed}, {case.name}: {err}"


def test_corrupted_gradient_detected():
    case = default_grid(4, seed=0)[0]
    assert run_case(case, corrupt=True) > 1e-2


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_analytic_gradient_fails_its_case(monkeypatch, bad):
    # as `corrupt` adds 1 to the first entry, this puts a NaN or inf into the last;
    # folded with Python's max, a NaN error compares false and was skipped
    backward = Network.backward

    def poisoned(self, cache, target):
        grad = backward(self, cache, target)
        grad[-1] = bad
        return grad

    monkeypatch.setattr(Network, "backward", poisoned)
    for case in default_grid(2, seed=0):
        assert run_case(case) == math.inf


@pytest.mark.parametrize("side", ["analytic", "numeric"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entry_on_either_side_is_the_worst_error(side, bad):
    spec = NetworkSpec((LayerSpec(2, 1),))
    net = init_network(spec, seed=3)
    x = np.random.default_rng(2).standard_normal((4, 2))
    y = np.random.default_rng(3).standard_normal((4, 1))
    grads = {"analytic": net.backward(net.forward(x), y),
             "numeric": finite_difference_gradients(net, x, y)}
    grads[side][-1] = bad
    assert _worst_relative_error(net, grads["analytic"], grads["numeric"]) == math.inf


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        default_grid(0)


def test_run_case_deterministic():
    case = default_grid(6, seed=1)[3]
    assert run_case(case) == run_case(case)


def test_oracle_never_calls_backward(monkeypatch):
    spec = NetworkSpec((LayerSpec(2, 2, activation="tanh"),))
    net = init_network(spec, seed=0)

    def boom(*args, **kwargs):
        raise AssertionError("finite differences must not use backward")

    monkeypatch.setattr(net, "backward", boom)
    x = np.random.default_rng(0).standard_normal((3, 2))
    y = np.random.default_rng(1).standard_normal((3, 2))
    grad = finite_difference_gradients(net, x, y)
    assert grad.shape == net.theta.shape
    assert net.split(grad)[0][0].shape == (2, 2)


def test_error_metric_flags_disagreement():
    spec = NetworkSpec((LayerSpec(2, 1),))
    net = init_network(spec, seed=3)
    x = np.random.default_rng(2).standard_normal((4, 2))
    y = np.random.default_rng(3).standard_normal((4, 1))
    analytic = net.backward(net.forward(x), y)
    numeric = finite_difference_gradients(net, x, y)
    baseline = _worst_relative_error(net, analytic, numeric)
    assert baseline < 1e-6
    (aw, _), = net.split(analytic)
    aw[0, 0] += 1.0
    (nw, _), = net.split(numeric)
    assert abs(aw[0, 0] - nw[0, 0]) > 0.5
    assert _worst_relative_error(net, analytic, numeric) > 1e-2


def test_named_case_round_trips_fields():
    case = GradCheckCase(
        name="probe",
        spec=NetworkSpec((LayerSpec(2, 3, activation="relu"), LayerSpec(3, 1))),
        batch_size=4,
        seed=9,
    )
    assert run_case(case) < 1e-4
