import math
import re
import warnings

import numpy as np
import pytest

from deepmatch import network
from deepmatch.embedding import autoencoder_spec
from deepmatch.gradcheck import default_grid
from deepmatch.network import (
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainingDiverged,
    adadelta_step,
    init_network,
    train,
)
from deepmatch.propensity import build_propensity_net
from oracles import EPS, RHO, adadelta_delta, backward_alloc, forward_alloc, train_per_tensor


def train_pass(net, x, rng, ws=None):
    """The forward calls that `train` builds, dropout drawn from `rng`, run once on x.

    The pass goes into `ws`, or into a fresh workspace made with dropout; an
    rng of None draws nothing, so it needs a workspace made without.
    """
    ws = net.workspace(x.shape[0], dropout=True) if ws is None else ws
    network._run(network._forward_calls(net, ws, network._with_ones(x), rng))
    return ws


def classifier_spec(input_dim=2):
    widths = (10, 10, 10, 10, 2)
    layers = []
    fan_in = input_dim
    for w in widths[:-1]:
        layers.append(LayerSpec(fan_in, w, activation="relu", dropout_rate=0.3))
        fan_in = w
    layers.append(LayerSpec(fan_in, widths[-1], activation="softmax"))
    return NetworkSpec(tuple(layers), loss="categorical_cross_entropy")


class TestSpecValidation:
    def test_five_layer_classifier_has_382_params(self):
        spec = classifier_spec(input_dim=2)
        per_layer = [l.fan_in * l.fan_out + l.fan_out for l in spec.layers]
        assert per_layer == [30, 110, 110, 110, 22]
        assert spec.param_count == 382

    def test_single_layer_param_count(self):
        spec = NetworkSpec((LayerSpec(3, 3),))
        assert spec.param_count == 12

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            NetworkSpec((LayerSpec(3, 4), LayerSpec(5, 2)))

    def test_softmax_only_final(self):
        with pytest.raises(ValueError, match="final"):
            NetworkSpec(
                (LayerSpec(3, 4, activation="softmax"), LayerSpec(4, 2)),
                loss="mse",
            )

    def test_dropout_only_on_hidden_layers(self):
        NetworkSpec((LayerSpec(2, 3, dropout_rate=0.5), LayerSpec(3, 1)))
        with pytest.raises(ValueError, match="final layer"):
            NetworkSpec((LayerSpec(2, 3), LayerSpec(3, 1, dropout_rate=0.5)))
        with pytest.raises(ValueError, match="final layer"):
            NetworkSpec((LayerSpec(2, 2, dropout_rate=0.9),))

    def test_loss_activation_pairing(self):
        with pytest.raises(ValueError, match="softmax"):
            NetworkSpec((LayerSpec(2, 2),), loss="categorical_cross_entropy")
        with pytest.raises(ValueError, match="softmax"):
            NetworkSpec((LayerSpec(2, 2, activation="softmax"),), loss="mse")

    def test_bad_activation_and_dropout(self):
        with pytest.raises(ValueError, match="activation"):
            LayerSpec(2, 2, activation="swish")
        with pytest.raises(ValueError, match="dropout"):
            LayerSpec(2, 2, dropout_rate=1.0)


class TestConstructor:
    def test_adopts_theta_without_copying(self):
        spec = NetworkSpec((LayerSpec(2, 3, activation="tanh"), LayerSpec(3, 1)))
        theta = np.arange(spec.param_count, dtype=float)
        net = Network(spec, theta)
        assert net.theta is theta
        # layer by layer, a row-major [W | b] block: unit j's weights, then its bias
        assert net.weights[0][1, 0] == 3.0 and net.biases[0][0] == 2.0
        assert net.weights[1][0, 2] == 11.0 and net.biases[1][0] == 12.0
        theta[0] = -1.0
        assert net.weights[0][0, 0] == -1.0

    @pytest.mark.parametrize(
        "theta",
        [np.zeros(11), np.zeros((1, 12)), np.zeros(12, dtype=np.int64)],
        ids=["wrong_length", "two_dimensional", "integer"],
    )
    def test_malformed_theta_rejected(self, theta):
        spec = NetworkSpec((LayerSpec(3, 3),))
        with pytest.raises(ValueError, match="param_count=12"):
            Network(spec, theta)


class TestInit:
    def test_draw_order_pinned_layer_by_layer(self):
        spec = NetworkSpec((
            LayerSpec(3, 4, activation="tanh"),
            LayerSpec(4, 2, activation="relu"),
            LayerSpec(2, 5),
        ))
        rng = np.random.default_rng(17)
        parts = []
        for layer in spec.layers:
            limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
            w = rng.uniform(-limit, limit, (layer.fan_out, layer.fan_in))
            parts.append(np.hstack([w, np.zeros((layer.fan_out, 1))]).ravel())
        assert np.array_equal(init_network(spec, seed=17).theta, np.concatenate(parts))

    def test_same_seed_bitwise_identical(self):
        spec = classifier_spec()
        a = init_network(spec, seed=11)
        b = init_network(spec, seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seeds_differ(self):
        spec = classifier_spec()
        a = init_network(spec, seed=1)
        b = init_network(spec, seed=2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_weights_within_glorot_limit_biases_zero(self):
        spec = NetworkSpec((LayerSpec(7, 3, activation="tanh"), LayerSpec(3, 7)))
        net = init_network(spec, seed=0)
        for layer, w, b in zip(spec.layers, net.weights, net.biases):
            limit = math.sqrt(6.0 / (layer.fan_in + layer.fan_out))
            assert np.abs(w).max() <= limit
            assert np.array_equal(b, np.zeros(layer.fan_out))


class TestForward:
    def test_softmax_symmetric_logits(self):
        spec = NetworkSpec(
            (LayerSpec(2, 2, activation="softmax"),), loss="categorical_cross_entropy"
        )
        net = Network(spec, np.zeros(6))
        out = net.predict(np.array([[3.0, -1.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_rows_sum_to_one_and_positive(self):
        spec = NetworkSpec(
            (LayerSpec(3, 4, activation="softmax"),), loss="categorical_cross_entropy"
        )
        net = init_network(spec, seed=3)
        out = net.predict(np.random.default_rng(0).standard_normal((20, 3)) * 30)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)

    def test_relu_definition(self):
        spec = NetworkSpec((LayerSpec(2, 2, activation="relu"),))
        net = Network(spec, np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
        assert np.array_equal(net.predict(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_sigmoid_saturates_without_overflow_warning(self):
        # exp(800) overflows to inf, and 1 / (1 + inf) is the exact limit 0
        net = Network(NetworkSpec((LayerSpec(1, 1, activation="sigmoid"),)), np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = net.predict(np.array([[-800.0], [0.0], [800.0]]))
        assert out.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_zero_dropout_train_equals_eval(self):
        spec = NetworkSpec((LayerSpec(3, 5, activation="tanh"), LayerSpec(5, 2)))
        net = init_network(spec, seed=4)
        x = np.random.default_rng(1).standard_normal((6, 3))
        train_out = train_pass(net, x, np.random.default_rng(0)).output
        assert np.array_equal(train_out, net.predict(x))

    def test_dropout_active_only_with_rng(self):
        spec = NetworkSpec(
            (LayerSpec(3, 50, activation="sigmoid", dropout_rate=0.5), LayerSpec(50, 2))
        )
        net = init_network(spec, seed=5)
        x = np.ones((4, 3))
        eval_a = net.predict(x)
        eval_b = net.predict(x)
        assert np.array_equal(eval_a, eval_b)
        t1 = train_pass(net, x, np.random.default_rng(8)).output
        assert not np.array_equal(t1, eval_a)

    def test_predict_calls_share_no_memory(self):
        net = init_network(classifier_spec(), seed=6)
        x = np.random.default_rng(2).standard_normal((9, 2))
        a, b = net.predict(x), net.predict(x)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)

    def test_workspace_pass_equals_fresh_pass(self):
        net = init_network(classifier_spec(), seed=7)
        x = np.random.default_rng(3).standard_normal((5, 2))
        ws = net.workspace(5, dropout=True)
        for seed in (1, 2):  # a reused workspace holds no state from its last pass
            assert train_pass(net, x, np.random.default_rng(seed), ws) is ws
            fresh = train_pass(net, x, np.random.default_rng(seed))
            for got, want in zip(ws.inputs + ws.hidden, fresh.inputs + fresh.hidden):
                assert np.array_equal(got, want)
        ws = net.workspace(5)  # and without dropout it holds the eval-mode pass
        for _ in range(2):
            assert np.array_equal(train_pass(net, x, None, ws).output, net.predict(x))

    def test_input_width_mismatch_rejected(self):
        net = init_network(NetworkSpec((LayerSpec(3, 2),)), seed=0)
        with pytest.raises(ValueError, match=re.escape("network input must be an n x 3 matrix")):
            net.predict(np.zeros((4, 5)))

    def test_non_finite_input_rejected_where_it_enters(self):
        # tanh saturates an inf into a plausible output, so the pass must refuse it
        net = init_network(NetworkSpec((LayerSpec(2, 2, activation="tanh"), LayerSpec(2, 1))),
                           seed=0)
        for bad in ([[np.nan, 0.0], [np.inf, 1.0]], [[0.0, 1.0], [1.0, -np.inf]]):
            for call in (net.forward, net.predict):
                with pytest.raises(ValueError, match=re.escape("network input must be finite")):
                    call(bad)


def dropout_net(width, rate, h):
    # layer 0 outputs h in every unit (zero weights, bias h) and drops it at `rate`
    spec = NetworkSpec((LayerSpec(1, width, dropout_rate=rate), LayerSpec(width, 1)))
    net = Network(spec, np.zeros(spec.param_count))
    net.biases[0][...] = h
    return net


class TestDropoutMask:
    def test_mask_values_are_zero_or_scale(self):
        cache = train_pass(dropout_net(100, 0.3, 1.0), np.ones((100, 1)), np.random.default_rng(0))
        assert set(np.unique(cache.masks[0])) == {0.0, 1.0 / 0.7}
        assert np.array_equal(cache.inputs[1], cache.hidden[0] * cache.masks[0])

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        net = dropout_net(1000, 0.3, 2.0)
        reps = 400
        acc = np.zeros((1, 1000))
        ws = net.workspace(1, dropout=True)
        for _ in range(reps):
            acc += train_pass(net, np.ones((1, 1)), rng, ws).inputs[1]
        est = acc.mean() / reps
        # Monte-Carlo std of the grand mean
        sd = 2.0 * math.sqrt(0.3 / 0.7) / math.sqrt(1000 * reps)
        assert abs(est - 2.0) < 3 * sd


class TestLoss:
    def test_mse_zero_at_target(self):
        net = init_network(NetworkSpec((LayerSpec(2, 2),)), seed=0)
        t = np.array([[1.0, -2.0]])
        assert net.loss(t, t) == 0.0

    def test_mse_matches_manual_sum(self):
        net = init_network(NetworkSpec((LayerSpec(2, 3),)), seed=0)
        rng = np.random.default_rng(2)
        out = rng.standard_normal((5, 3))
        tgt = rng.standard_normal((5, 3))
        manual = np.mean([sum((out[i] - tgt[i]) ** 2) for i in range(5)])
        assert net.loss(out, tgt) == pytest.approx(manual, rel=1e-14)

    def test_cross_entropy_uniform_prediction(self):
        spec = NetworkSpec(
            (LayerSpec(2, 2, activation="softmax"),), loss="categorical_cross_entropy"
        )
        net = init_network(spec, seed=0)
        loss = net.loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

    def test_cross_entropy_perfect_prediction(self):
        spec = NetworkSpec(
            (LayerSpec(2, 2, activation="softmax"),), loss="categorical_cross_entropy"
        )
        net = init_network(spec, seed=0)
        assert net.loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])) <= 1e-12

    def test_cross_entropy_clamps_log_of_zero(self):
        spec = NetworkSpec(
            (LayerSpec(2, 2, activation="softmax"),), loss="categorical_cross_entropy"
        )
        net = init_network(spec, seed=0)
        loss = net.loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        net = init_network(NetworkSpec((LayerSpec(2, 2),)), seed=0)
        with pytest.raises(ValueError, match="vs target"):
            net.loss(np.zeros((2, 2)), np.zeros((3, 2)))
        cce = NetworkSpec(
            (LayerSpec(2, 2, activation="softmax"),), loss="categorical_cross_entropy"
        )
        for spec in (net.spec, cce):  # a loss over no rows is undefined
            with pytest.raises(ValueError, match="vs target"):
                init_network(spec, seed=0).loss(np.zeros((0, 2)), np.zeros((0, 2)))


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        net = init_network(NetworkSpec((LayerSpec(3, 2, activation="tanh"),)), seed=6)
        x = np.random.default_rng(3).standard_normal((4, 3))
        cache = net.forward(x)
        grad = net.backward(cache, cache.output)
        for dw, db in net.split(grad):
            assert np.array_equal(dw, np.zeros_like(dw))
            assert np.array_equal(db, np.zeros_like(db))

    def test_linear_unit_hand_derivative(self):
        # single 1->1 identity layer, x=1, target=0: loss = (w + b)^2, dL/dw = 2w at b=0
        for w0 in (0.3, -1.7, 2.0):
            net = Network(NetworkSpec((LayerSpec(1, 1),)), np.array([w0, 0.0]))
            cache = net.forward(np.array([[1.0]]))
            (dw, db), = net.split(net.backward(cache, np.array([[0.0]])))
            assert dw[0, 0] == pytest.approx(2.0 * w0, rel=1e-15)
            assert db[0] == pytest.approx(2.0 * w0, rel=1e-15)

    def test_fresh_and_equal_to_allocating_passes(self):
        # every spec and batch size of the gradcheck grid; the oracle's passes
        # allocate every array, so no reused buffer can leak into them
        for case in default_grid(24, seed=0):
            rng = np.random.default_rng(case.seed)
            net = init_network(case.spec, seed=case.seed)
            x = rng.standard_normal((case.batch_size, case.spec.input_dim))
            y = rng.standard_normal((case.batch_size, case.spec.output_dim))
            if case.spec.loss == "categorical_cross_entropy":
                y = np.eye(case.spec.output_dim)[np.argmax(y, axis=1)]
            cache = net.forward(x)
            first, second = net.backward(cache, y), net.backward(cache, y)
            assert not np.shares_memory(first, second), case.name
            want = backward_alloc(net, forward_alloc(net, x), y)
            assert np.array_equal(first, want) and np.array_equal(second, want), case.name

    def test_gradient_shapes_mirror_parameters(self):
        spec = classifier_spec()
        net = init_network(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((5, 2))
        y = np.tile([1.0, 0.0], (5, 1))
        cache = net.forward(x)
        grad = net.backward(cache, y)
        assert grad.shape == net.theta.shape == (spec.param_count,)
        for (dw, db), w, b in zip(net.split(grad), net.weights, net.biases):
            assert dw.shape == w.shape and db.shape == b.shape

    def test_non_finite_or_misshapen_target_rejected(self):
        net = init_network(NetworkSpec((LayerSpec(2, 2, activation="tanh"), LayerSpec(2, 1))),
                           seed=0)
        cache = net.forward(np.ones((2, 2)))
        for bad in ([[np.nan], [0.0]], [[0.0], [np.inf]]):
            with pytest.raises(ValueError, match=re.escape("network target must be finite")):
                net.backward(cache, bad)
        with pytest.raises(ValueError, match=re.escape("network target must be an n x 1 matrix")):
            net.backward(cache, np.zeros((2, 2)))
        with pytest.raises(ValueError, match=re.escape("output (2, 1) vs target (3, 1)")):
            net.backward(cache, np.zeros((3, 1)))

    @pytest.mark.parametrize(
        "spec, batches",
        [(case.spec, (case.batch_size,)) for case in default_grid(24, seed=0)]
        + [(autoencoder_spec(3, 2, hidden=(32, 16)), (32, 1))],
        ids=[case.name for case in default_grid(24, seed=0)] + ["autoencoder_hidden_32_16"],
    )
    def test_folded_products_within_a_dot_products_bound_of_the_textbook(self, spec, batches):
        # Each layer, run alone as an identity layer under MSE: its pass is
        # a @ W.T + b, and its gradient [delta.T @ a | delta.sum(0)] with
        # delta = 2 (out - y) / B, which the library forms exactly. The folded
        # products only sum the same terms in another order, so each value is
        # within gamma_K * sum|terms| of the exact sum, as the textbook's is
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2002, eq.
        # 3.5), gamma_K = K u / (1 - K u), u = 2^-53, K terms: fan_in + 1 in
        # the pass, B in the gradient. Two such values lie within twice it.
        def gamma(k):
            return k * 2.0**-53 / (1.0 - k * 2.0**-53)

        net = init_network(spec, seed=1)
        rng = np.random.default_rng(2)
        for layer, w, b in zip(spec.layers, net.weights, net.biases):
            b[...] = rng.uniform(-0.5, 0.5, b.shape)
            alone = Network(NetworkSpec((LayerSpec(layer.fan_in, layer.fan_out),)),
                            np.hstack([w, b[:, None]]).ravel())
            for batch in batches:
                a = rng.standard_normal((batch, layer.fan_in))
                y = rng.standard_normal((batch, layer.fan_out))
                cache = alone.forward(a)
                (dw, db), = alone.split(alone.backward(cache, y))
                bound = 2 * gamma(layer.fan_in + 1) * (np.abs(a) @ np.abs(w).T + np.abs(b))
                assert (np.abs(cache.output - (a @ w.T + b)) <= bound).all()
                delta = 2.0 * (cache.output - y) / batch
                bound = 2 * gamma(batch) * (np.abs(delta).T @ np.abs(a))
                assert (np.abs(dw - delta.T @ a) <= bound).all()
                bound = 2 * gamma(batch) * np.abs(delta).sum(0)
                assert (np.abs(db - delta.sum(0)) <= bound).all()


class TestAdadelta:
    def test_first_step_closed_form(self):
        g = np.array([1.0])
        delta, eg2, ed2 = adadelta_delta(np.zeros(1), np.zeros(1), g)
        assert eg2[0] == pytest.approx(0.05, rel=1e-15)
        expect = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
        assert delta[0] == pytest.approx(expect, rel=1e-12)
        assert delta[0] == pytest.approx(-4.4721e-3, rel=1e-4)
        assert ed2[0] == pytest.approx(0.05 * delta[0] ** 2, rel=1e-15)

    def test_random_tensors_match_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 3))))
            eg2 = rng.random(shape)
            ed2 = rng.random(shape)
            g = rng.standard_normal(shape)
            delta, eg2_new, ed2_new = adadelta_delta(eg2, ed2, g)
            eg2_ref = RHO * eg2 + (1 - RHO) * g * g
            delta_ref = -np.sqrt(ed2 + EPS) / np.sqrt(eg2_ref + EPS) * g
            ed2_ref = RHO * ed2 + (1 - RHO) * delta_ref * delta_ref
            assert np.allclose(delta, delta_ref, atol=1e-12, rtol=0)
            assert np.allclose(eg2_new, eg2_ref, atol=1e-12, rtol=0)
            assert np.allclose(ed2_new, ed2_ref, atol=1e-12, rtol=0)

    def test_bit_identical_to_textbook_expression(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            shape = (int(rng.integers(1, 40)),)
            eg2, ed2 = rng.random(shape), rng.random(shape) * 1e-3
            g = rng.standard_normal(shape) * 10.0 ** float(rng.integers(-6, 3))
            g[rng.random(shape) < 0.2] = 0.0
            eg2_ref = RHO * eg2 + (1.0 - RHO) * g**2
            delta_ref = -np.sqrt(ed2 + EPS) / np.sqrt(eg2_ref + EPS) * g
            ed2_ref = RHO * ed2 + (1.0 - RHO) * delta_ref**2
            delta, eg2_new, ed2_new = adadelta_delta(eg2, ed2, g)
            assert np.array_equal(np.signbit(delta), np.signbit(delta_ref))
            assert (delta == delta_ref).all()
            assert (eg2_new == eg2_ref).all() and (ed2_new == ed2_ref).all()

    def test_zero_gradient_keeps_params_and_decays_ed2(self):
        net = Network(NetworkSpec((LayerSpec(1, 1),)), np.array([1.0, -2.0]))
        state = np.array([[0.0, 0.0], [0.4, 0.8]])  # eg2, ed2
        adadelta_step(net.theta, np.zeros((2, 2)), state, np.empty((2, 2)))
        (w, b), = net.split(net.theta)
        assert w[0, 0] == 1.0 and b[0] == -2.0
        assert np.array_equal(state[0], np.zeros(2))
        assert np.allclose(state[1], [0.95 * 0.4, 0.95 * 0.8], rtol=1e-15)

    def test_update_opposes_gradient_sign(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(50)
        delta, _, _ = adadelta_delta(np.zeros(50), np.zeros(50), g)
        nonzero = g != 0
        assert np.all(np.sign(delta[nonzero]) == -np.sign(g[nonzero]))


def plane_points(n=200, seed=0, scale=1.0):
    # points exactly inside a random 2-D linear subspace of 3-space
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    coords = rng.standard_normal((n, 2))
    return scale * coords @ basis.T


class TestTrain:
    def test_epochs_contract(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        spec = NetworkSpec((LayerSpec(2, 1),))
        net = init_network(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((8, 2))
        y = x.sum(axis=1, keepdims=True)
        history = train(net, x, y, TrainConfig(epochs=1), seed=0)
        assert len(history) == 1

    def test_same_seed_identical_history(self):
        spec = NetworkSpec(
            (LayerSpec(2, 4, activation="tanh", dropout_rate=0.2), LayerSpec(4, 1))
        )
        x = np.random.default_rng(1).standard_normal((40, 2))
        y = x[:, :1]
        runs = []
        for _ in range(2):
            net = init_network(spec, seed=7)
            runs.append(train(net, x, y, TrainConfig(epochs=5), seed=3))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "spec, cfg, seed",
        [
            (build_propensity_net(3), TrainConfig(epochs=3, batch_size=16), 4),
            (build_propensity_net(3), TrainConfig(epochs=2, batch_size=1), 15),
            (build_propensity_net(3), TrainConfig(epochs=3, batch_size=200), 16),
            (autoencoder_spec(3, 2), TrainConfig(epochs=6), 5),
            (autoencoder_spec(3, 2, hidden=(4,)), TrainConfig(epochs=6), 11),
            (autoencoder_spec(3, 2), TrainConfig(epochs=2, batch_size=1), 6),
            (autoencoder_spec(3, 2), TrainConfig(epochs=8, batch_size=200), 7),
            (autoencoder_spec(3, 2), TrainConfig(epochs=6, batch_size=50), 8),
            (NetworkSpec((
                LayerSpec(3, 6, activation="relu", dropout_rate=0.25),
                LayerSpec(6, 5, activation="sigmoid", dropout_rate=0.4),
                LayerSpec(5, 3, activation="sigmoid"),
            )), TrainConfig(epochs=4, batch_size=16), 9),
            (NetworkSpec((LayerSpec(3, 2, activation="tanh"), LayerSpec(2, 3, activation="tanh"))),
             TrainConfig(epochs=6, batch_size=7), 10),
            (autoencoder_spec(3, 2, hidden=(32, 16)), TrainConfig(epochs=3), 13),
            (autoencoder_spec(3, 2), TrainConfig(epochs=4, batch_size=149), 14),
        ],
        ids=["propensity_net_dropout", "classifier_batch_size_1", "classifier_batch_size_above_n",
             "autoencoder_default", "autoencoder_hidden", "batch_size_1",
             "batch_size_above_n", "batch_size_divides_n", "relu_sigmoid_dropout",
             "tanh_final_mse", "autoencoder_hidden_32_16", "remainder_batch_of_one"],
    )
    def test_flat_training_bit_identical_to_per_tensor_loop(self, spec, cfg, seed):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((150, 3))
        if spec.loss == "mse":
            y = x
        else:
            y = np.eye(2)[(x[:, 0] + 0.5 * rng.standard_normal(150) > 0).astype(int)]
        flat, per_tensor = init_network(spec, seed=2), init_network(spec, seed=2)
        history = train(flat, x, y, cfg, seed)
        assert history == train_per_tensor(per_tensor, x, y, cfg, seed)
        assert (flat.theta == per_tensor.theta).all()
        for w, b in zip(flat.weights, flat.biases):
            assert np.shares_memory(w, flat.theta) and np.shares_memory(b, flat.theta)

    def test_nothing_built_for_one_fit_leaks_into_the_next(self):
        # each fit builds its own steps: a fit of another spec and batch length
        # between two equal fits leaves the second with the first's bits
        x = np.random.default_rng(13).standard_normal((70, 3))
        other = NetworkSpec((LayerSpec(3, 6, activation="relu", dropout_rate=0.25),
                             LayerSpec(6, 3, activation="sigmoid")))
        runs = []
        for spec, cfg in [(autoencoder_spec(3, 2), TrainConfig(epochs=4)),
                          (other, TrainConfig(epochs=3, batch_size=9)),
                          (autoencoder_spec(3, 2), TrainConfig(epochs=4))]:
            net = init_network(spec, seed=2)
            runs.append((train(net, x, x, cfg, seed=5), net.theta))
        assert runs[2][0] == runs[0][0]
        assert (runs[2][1] == runs[0][1]).all()

    @pytest.mark.parametrize(
        "spec, inputs, targets, message",
        [
            (autoencoder_spec(3, 2), (40, 5), (40, 3),
             "training inputs must be an n x 3 matrix, got shape (40, 5)"),
            (autoencoder_spec(3, 2), (40, 3), (40, 4),
             "training targets must be an n x 3 matrix, got shape (40, 4)"),
            (autoencoder_spec(3, 2), (20, 3), (20, 2),
             "training targets must be an n x 3 matrix, got shape (20, 2)"),
            (build_propensity_net(3), (40, 3), (40, 3),
             "training targets must be an n x 2 matrix, got shape (40, 3)"),
        ],
        ids=["input_width", "target_width", "target_width_one_batch", "classifier_target_width"],
    )
    def test_wrong_widths_rejected_before_any_step(self, monkeypatch, spec, inputs, targets,
                                                   message):
        net = init_network(spec, seed=0)
        theta = net.theta.copy()
        steps = []
        monkeypatch.setattr(network, "adadelta_step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            train(net, np.ones(inputs), np.ones(targets), TrainConfig(epochs=1), seed=0)
        assert steps == [] and np.array_equal(net.theta, theta)

    def test_bottleneck_reconstruction_loss_drops(self):
        x = plane_points(n=200, seed=10, scale=0.5)
        spec = NetworkSpec(
            (LayerSpec(3, 2, activation="tanh"), LayerSpec(2, 3))
        )
        net = init_network(spec, seed=10)
        history = train(net, x, x, TrainConfig(epochs=500), seed=10)
        assert history[-1] < 0.1 * history[0]

    def test_divergence_aborts_with_epoch(self):
        spec = NetworkSpec((LayerSpec(1, 1),))
        net = init_network(spec, seed=0)
        x = np.full((4, 1), 1e200)  # the squared residual overflows
        y = np.zeros((4, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="epoch 0"):
                train(net, x, y, TrainConfig(epochs=50), seed=0)

    def test_row_mismatch_rejected(self):
        net = init_network(NetworkSpec((LayerSpec(2, 1),)), seed=0)
        with pytest.raises(ValueError, match="rows"):
            train(net, np.zeros((3, 2)), np.zeros((4, 1)), TrainConfig(epochs=1), seed=0)

    def test_empty_or_non_finite_data_rejected_at_entry(self):
        # bad data is not divergence: it fails before any step, warning-free
        net = init_network(NetworkSpec((LayerSpec(2, 1),)), seed=0)
        theta = net.theta.copy()
        x, y = np.ones((4, 2)), np.ones((4, 1))
        nan_x, inf_y = x.copy(), y.copy()
        nan_x[1, 0], inf_y[2, 0] = np.nan, np.inf
        for inputs, targets in [(x[:0], y[:0]), (nan_x, y), (x, inf_y)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    train(net, inputs, targets, TrainConfig(epochs=1), seed=0)
        assert np.array_equal(net.theta, theta)
