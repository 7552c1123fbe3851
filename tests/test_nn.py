import zlib

import numpy as np
import pytest

from survrnc.nn import (
    MlpSpec,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    params_from_dict,
    params_to_dict,
)


def straight_line_forward(params, x):
    """Independent re-implementation of the affine/activation chain."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i < last:
            if params.spec.activation == "relu":
                h = np.maximum(h, 0.0)
            else:
                h = np.tanh(h)
    return h


class TestInitParams:
    def test_deterministic_given_seed(self):
        a = init_params(MlpSpec((4, 3), seed=9))
        b = init_params(MlpSpec((4, 3), seed=9))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        p = init_params(MlpSpec((4, 3)))
        assert p.weights[0].shape == (3, 4)
        assert p.biases[0].shape == (3,)

    def test_different_seeds_differ(self):
        a = init_params(MlpSpec((4, 3), seed=1))
        b = init_params(MlpSpec((4, 3), seed=2))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_uniform_bound_and_zero_bias(self):
        p = init_params(MlpSpec((16, 8, 2), seed=0))
        assert np.abs(p.weights[0]).max() <= 1 / np.sqrt(16)
        assert np.abs(p.weights[1]).max() <= 1 / np.sqrt(8)
        assert np.all(p.biases[0] == 0) and np.all(p.biases[1] == 0)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))
        with pytest.raises(ValueError):
            MlpSpec((4, 0))
        with pytest.raises(ValueError):
            MlpSpec((4, 3), activation="sigmoid")


class TestForward:
    def test_zero_params_zero_output(self):
        p = init_params(MlpSpec((3, 2)))
        p.weights[0][:] = 0.0
        out, _ = forward(p, np.ones((4, 3)))
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        p = init_params(MlpSpec((3, 3)))
        p.weights[0][:] = np.eye(3)
        x = np.arange(12.0).reshape(4, 3)
        out, _ = forward(p, x)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("widths,act", [
        ((3, 5, 2), "relu"), ((3, 5, 2), "tanh"), ((3, 4, 4, 2), "tanh"),
    ])
    def test_matches_straight_line_evaluator(self, widths, act):
        p = init_params(MlpSpec(widths, act, seed=3))
        x = np.random.default_rng(0).standard_normal((6, widths[0]))
        out, _ = forward(p, x)
        assert np.allclose(out, straight_line_forward(p, x), atol=0, rtol=0)

    def test_batch_order_equivariant(self):
        p = init_params(MlpSpec((3, 4, 2), seed=1))
        x = np.random.default_rng(1).standard_normal((5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        out, _ = forward(p, x)
        out_perm, _ = forward(p, x[perm])
        assert np.array_equal(out[perm], out_perm)

    def test_shape_mismatch(self):
        p = init_params(MlpSpec((3, 2)))
        with pytest.raises(ValueError, match=r"expected \(B, 3\) inputs, got \(4, 5\)"):
            forward(p, np.ones((4, 5)))


def finite_difference_param_grads(params, x, upstream, h=1e-6):
    def loss(ps):
        out = straight_line_forward(ps, x)
        return float((out * upstream).sum())

    grads_w, grads_b = [], []
    for li in range(len(params.weights)):
        gw = np.zeros_like(params.weights[li])
        for idx in np.ndindex(*params.weights[li].shape):
            plus = [w.copy() for w in params.weights]
            minus = [w.copy() for w in params.weights]
            plus[li][idx] += h
            minus[li][idx] -= h
            p_plus = type(params)(params.spec, plus, [b.copy() for b in params.biases])
            p_minus = type(params)(params.spec, minus, [b.copy() for b in params.biases])
            gw[idx] = (loss(p_plus) - loss(p_minus)) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[li])
        for idx in np.ndindex(*params.biases[li].shape):
            plus = [b.copy() for b in params.biases]
            minus = [b.copy() for b in params.biases]
            plus[li][idx] += h
            minus[li][idx] -= h
            p_plus = type(params)(params.spec, [w.copy() for w in params.weights], plus)
            p_minus = type(params)(params.spec, [w.copy() for w in params.weights], minus)
            gb[idx] = (loss(p_plus) - loss(p_minus)) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        p = init_params(MlpSpec((3, 4, 2), seed=2))
        x = np.random.default_rng(2).standard_normal((5, 3))
        out, tape = forward(p, x)
        gw, gb, gx = backward(p, tape, np.zeros_like(out))
        assert all(np.all(g == 0) for g in gw)
        assert all(np.all(g == 0) for g in gb)
        assert np.all(gx == 0)

    def test_single_affine_closed_form(self):
        p = init_params(MlpSpec((3, 2), seed=4))
        x = np.random.default_rng(4).standard_normal((6, 3))
        out, tape = forward(p, x)
        g = np.random.default_rng(5).standard_normal(out.shape)
        gw, gb, gx = backward(p, tape, g)
        assert np.allclose(gw[0], g.T @ x, atol=1e-12)
        assert np.allclose(gb[0], g.sum(axis=0), atol=1e-12)
        assert np.allclose(gx, g @ p.weights[0], atol=1e-12)

    @pytest.mark.parametrize("widths", [(3, 2), (3, 5, 2), (3, 4, 4, 2)])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_finite_difference_agreement(self, widths, act):
        rng = np.random.default_rng(zlib.crc32(repr((widths, act)).encode()))
        p = init_params(MlpSpec(widths, act, seed=6))
        # keep relu pre-activations away from the kink so central
        # differences stay valid
        x = rng.standard_normal((5, widths[0])) + 0.05
        out, tape = forward(p, x)
        if act == "relu":
            # each layer's pre-activation is the affine map of its input
            assert min(np.abs(h @ w.T + b).min() for h, w, b in
                       zip(tape.layer_inputs, p.weights, p.biases)) > 1e-4
        upstream = rng.standard_normal(out.shape)
        gw, gb, _ = backward(p, tape, upstream)
        fw, fb = finite_difference_param_grads(p, x, upstream)
        for a, b in zip(gw + gb, fw + fb):
            scale = max(np.abs(b).max(), 1e-8)
            assert np.abs(a - b).max() / scale < 1e-4

    def test_tape_mismatch(self):
        p = init_params(MlpSpec((3, 2), seed=1))
        _, tape = forward(p, np.ones((4, 3)))
        with pytest.raises(ValueError, match=r"upstream shape \(4, 5\) does not match "
                                             r"output \(4, 2\)"):
            backward(p, tape, np.ones((4, 5)))


class TestAdamStep:
    def test_zero_grads_zero_decay_is_identity(self):
        p = init_params(MlpSpec((3, 2), seed=0))
        state = init_adam_state(p)
        zero_w = [np.zeros_like(w) for w in p.weights]
        zero_b = [np.zeros_like(b) for b in p.biases]
        p2, _ = adam_step(p, zero_w, zero_b, state, lr=1e-2, weight_decay=0.0)
        assert all(np.array_equal(a, b) for a, b in zip(p.weights, p2.weights))

    def test_decoupled_decay_scales_params(self):
        p = init_params(MlpSpec((3, 2), seed=0))
        state = init_adam_state(p)
        zero_w = [np.zeros_like(w) for w in p.weights]
        zero_b = [np.zeros_like(b) for b in p.biases]
        lr, wd = 1e-2, 0.1
        p2, _ = adam_step(p, zero_w, zero_b, state, lr=lr, weight_decay=wd)
        assert np.allclose(p2.weights[0], p.weights[0] * (1 - lr * wd), atol=1e-15)

    def test_constant_gradient_step_approaches_lr(self):
        # scalar simulation of the update recurrence
        p = init_params(MlpSpec((1, 1), seed=0))
        state = init_adam_state(p)
        g_w = [np.array([[0.37]])]
        g_b = [np.array([0.0])]
        lr = 1e-3
        prev = p.weights[0][0, 0]
        for _ in range(300):
            p, state = adam_step(p, g_w, g_b, state, lr=lr, weight_decay=0.0)
        step = prev - p.weights[0][0, 0]
        # after bias correction settles, each step has magnitude ~ lr
        last = p.weights[0][0, 0]
        p, state = adam_step(p, g_w, g_b, state, lr=lr, weight_decay=0.0)
        assert abs(last - p.weights[0][0, 0]) == pytest.approx(lr, rel=1e-3)

    def test_pure_functional(self):
        p = init_params(MlpSpec((2, 2), seed=0))
        state = init_adam_state(p)
        snapshot = [w.copy() for w in p.weights]
        g_w = [np.ones_like(w) for w in p.weights]
        g_b = [np.ones_like(b) for b in p.biases]
        adam_step(p, g_w, g_b, state, lr=1e-3)
        assert all(np.array_equal(a, b) for a, b in zip(p.weights, snapshot))
        assert state.step == 0


class TestCheckpointRoundTrip:
    def test_round_trip_exact(self):
        import json

        p = init_params(MlpSpec((5, 4, 3), "tanh", seed=13))
        blob = json.dumps(params_to_dict(p))
        q = params_from_dict(json.loads(blob))
        assert q.spec == p.spec
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)

    def test_rejects_mismatched_shapes(self):
        p = init_params(MlpSpec((5, 4), seed=0))
        d = params_to_dict(p)
        d["spec"]["layer_widths"] = [5, 3]
        with pytest.raises(ValueError, match="checkpoint weights do not match spec"):
            params_from_dict(d)
