import numpy as np
import pytest

from uorolab import rnn
from uorolab.errors import ShapeError, UnsupportedCutError
from uorolab.rnn import (
    BernoulliHead,
    CutVertex,
    RnnParams,
    SoftmaxHead,
    dense_jacobians,
    init_params,
    jvp_cut,
    jvp_state,
    loss_grad,
    run_episode,
    step,
    vjp_cut,
    vjp_params,
    vjp_state,
    vjp_to_cut,
)

from helpers import make_instance


def scalar_params(w=0.5, wx=0.0, b=0.0, kind=rnn.VANILLA_TANH):
    return RnnParams(np.array([[w, wx, b]]), kind, 1, 1)


def random_cache(rng, cell_kind=rnn.VANILLA_TANH, hidden=4, inputs_dim=2):
    params, inputs, _, _ = make_instance(
        rng, cell_kind=cell_kind, hidden=hidden, inputs_dim=inputs_dim, length=1
    )
    state = 0.7 * rng.standard_normal(params.state_size)
    _, cache = step(params, state, inputs[0])
    return params, cache


class TestStep:
    def test_zero_weights_give_zero_state(self):
        params = RnnParams(np.zeros((3, 6)), rnn.VANILLA_TANH, 3, 2)
        h, _ = step(params, np.ones(3), np.ones(2))
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_scalar_tanh_value(self):
        h, _ = step(scalar_params(), np.array([1.0]), np.array([0.0]))
        assert h[0] == pytest.approx(np.tanh(0.5), abs=1e-12)
        assert h[0] == pytest.approx(0.46212, abs=1e-5)

    def test_lstm_state_shape(self):
        rng = np.random.default_rng(0)
        params = init_params(rnn.LSTM, 50, 28, rng)
        state, cache = step(params, np.zeros(100), rng.standard_normal(28))
        assert cache.h.shape == (50,)
        assert state.shape == (100,)

    def test_dimension_mismatch(self):
        params = scalar_params()
        with pytest.raises(ShapeError):
            step(params, np.zeros(2), np.zeros(1))
        with pytest.raises(ShapeError):
            step(params, np.zeros(1), np.zeros(3))

    def test_forget_gate_bias_init(self):
        rng = np.random.default_rng(1)
        params = init_params(rnn.LSTM, 4, 3, rng)
        np.testing.assert_array_equal(params.weights[4:8, -1], np.ones(4))
        # recurrent blocks are orthogonal
        block = params.weights[:4, :4]
        np.testing.assert_allclose(block @ block.T, np.eye(4), atol=1e-12)


class TestLossHeads:
    def test_uniform_logits_loss_is_log_k(self):
        head = SoftmaxHead(np.zeros((7, 5)))
        loss, grad = loss_grad(np.zeros(4), 3, head)
        assert loss == pytest.approx(np.log(7), rel=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_saturated_correct_logit(self):
        w = np.zeros((3, 3))
        w[1, -1] = 50.0  # huge bias on the correct class
        head = SoftmaxHead(w)
        loss, grad = loss_grad(np.zeros(2), 1, head)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_target_out_of_range(self):
        head = SoftmaxHead(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            loss_grad(np.zeros(2), 5, head)

    @pytest.mark.parametrize("head_kind", ["softmax", "bernoulli"])
    def test_grad_matches_finite_differences(self, head_kind):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(6)
        if head_kind == "softmax":
            head = SoftmaxHead(rng.standard_normal((4, 7)))
            target = 2
        else:
            head = BernoulliHead(rng.standard_normal((2, 7)))
            target = np.array([1.0, 0.0])
        _, grad = loss_grad(h, target, head)
        eps = 1e-5
        fd = np.zeros_like(h)
        for i in range(h.size):
            bump = np.zeros_like(h)
            bump[i] = eps
            up, _ = loss_grad(h + bump, target, head)
            down, _ = loss_grad(h - bump, target, head)
            fd[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("head_kind", ["softmax", "bernoulli"])
    def test_one_row_equals_a_batch_of_one(self, head_kind):
        """An unbatched h takes its own path: it gives bit for bit what the
        same row gives as a batch of one, supervised or masked, down to
        saturated logits."""
        rng = np.random.default_rng(9)
        for scale in (0.5, 40.0):
            if head_kind == "softmax":
                head = SoftmaxHead(scale * rng.standard_normal((4, 6)))
                targets = [0, 3, None]
            else:
                head = BernoulliHead(scale * rng.standard_normal((3, 6)))
                targets = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), None]
            for target in targets:
                h = rng.standard_normal(5)
                loss, grad = loss_grad(h, target, head)
                losses, grads = loss_grad(h[None], [target], head)
                assert type(loss) is float and loss == losses[0]
                np.testing.assert_array_equal(grad, grads[0])
                np.testing.assert_array_equal(head.param_grad(h, target),
                                              head.param_grad(h[None], [target])[0])

    def test_masked_step_is_silent(self):
        head = BernoulliHead(np.ones((1, 4)))
        loss, grad = loss_grad(np.ones(3), None, head)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))


class TestJacobianProducts:
    def test_scalar_state_jacobian_value(self):
        _, cache = (
            scalar_params(),
            step(scalar_params(), np.array([1.0]), np.array([0.0]))[1],
        )
        j = rnn.dense_state_jacobian(cache)
        expected = (1 - np.tanh(0.5) ** 2) * 0.5
        assert j[0, 0] == pytest.approx(expected, rel=1e-12)
        assert j[0, 0] == pytest.approx(0.39322, abs=1e-5)

    def test_state_cut_is_identity(self):
        rng = np.random.default_rng(3)
        _, cache = random_cache(rng)
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(jvp_cut(cache, CutVertex.STATE, v), v)

    def test_preactivation_theta_jacobian_is_kron(self):
        rng = np.random.default_rng(4)
        params, cache = random_cache(rng)
        j_theta = rnn.dense_theta_jacobian(cache, CutVertex.PREACTIVATION)
        np.testing.assert_array_equal(
            j_theta, np.kron(np.eye(params.preactivation_size), cache.a[None, :])
        )
        v = rng.standard_normal(params.preactivation_size)
        np.testing.assert_allclose(
            vjp_cut(cache, CutVertex.PREACTIVATION, v),
            np.outer(v, cache.a).reshape(-1),
            atol=1e-14,
        )

    def test_zero_vector_maps_to_zero(self):
        rng = np.random.default_rng(6)
        _, cache = random_cache(rng)
        np.testing.assert_array_equal(jvp_state(cache, np.zeros(4)), np.zeros(4))
        np.testing.assert_array_equal(
            vjp_cut(cache, CutVertex.PREACTIVATION, np.zeros(4)), np.zeros(4 * 7)
        )

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    @pytest.mark.parametrize("cut", [CutVertex.STATE, CutVertex.PREACTIVATION])
    def test_products_match_dense_contractions(self, cell, cut):
        if cell == rnn.LSTM and cut == CutVertex.STATE:
            pytest.skip("state cut is vanilla-only")
        rng = np.random.default_rng(8)
        params, cache = random_cache(rng, cell_kind=cell)
        j_state, j_cut, j_theta = dense_jacobians(cache, cut)
        s, n_z = params.state_size, params.cut_size(cut)
        for _ in range(3):
            v = rng.standard_normal(s)
            np.testing.assert_allclose(jvp_state(cache, v), j_state @ v, atol=1e-10)
            np.testing.assert_allclose(vjp_state(cache, v), v @ j_state, atol=1e-10)
            np.testing.assert_allclose(vjp_to_cut(cache, cut, v), v @ j_cut, atol=1e-10)
            np.testing.assert_allclose(vjp_params(cache, v), v @ (j_cut @ j_theta), atol=1e-10)
            w = rng.standard_normal(n_z)
            np.testing.assert_allclose(jvp_cut(cache, cut, w), j_cut @ w, atol=1e-10)
            np.testing.assert_allclose(vjp_cut(cache, cut, w), w @ j_theta, atol=1e-10)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_dense_jacobians_match_finite_differences(self, cell):
        rng = np.random.default_rng(9)
        params, inputs, _, _ = make_instance(
            rng, cell_kind=cell, hidden=3, inputs_dim=2, length=1
        )
        state0 = 0.5 * rng.standard_normal(params.state_size)
        _, cache = step(params, state0, inputs[0])
        j_state = rnn.dense_state_jacobian(cache)
        eps = 1e-6
        fd = np.zeros_like(j_state)
        for j in range(params.state_size):
            bump = np.zeros(params.state_size)
            bump[j] = eps
            up, _ = step(params, state0 + bump, inputs[0])
            down, _ = step(params, state0 - bump, inputs[0])
            fd[:, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(j_state, fd, rtol=1e-6, atol=1e-8)

        theta = params.theta()
        full_theta = rnn.dense_cut_jacobian(cache, CutVertex.PREACTIVATION) @ \
            rnn.dense_theta_jacobian(cache, CutVertex.PREACTIVATION)
        fd_theta = np.zeros_like(full_theta)
        for j in range(theta.size):
            bump = np.zeros_like(theta)
            bump[j] = eps
            up, _ = step(params.with_theta(theta + bump), state0, inputs[0])
            down, _ = step(params.with_theta(theta - bump), state0, inputs[0])
            fd_theta[:, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(full_theta, fd_theta, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_transpose_duality(self, cell):
        rng = np.random.default_rng(10)
        params, cache = random_cache(rng, cell_kind=cell)
        s = params.state_size
        for _ in range(5):
            u = rng.standard_normal(s)
            v = rng.standard_normal(s)
            lhs = u @ jvp_state(cache, v)
            rhs = vjp_state(cache, u) @ v
            assert lhs == pytest.approx(rhs, abs=1e-10)
            w = rng.standard_normal(params.preactivation_size)
            lhs = u @ jvp_cut(cache, CutVertex.PREACTIVATION, w)
            rhs = vjp_to_cut(cache, CutVertex.PREACTIVATION, u) @ w
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_parameter_cut_jvp_unsupported(self):
        rng = np.random.default_rng(12)
        params, cache = random_cache(rng)
        with pytest.raises(UnsupportedCutError):
            jvp_cut(cache, CutVertex.PARAMETER, np.zeros(params.num_params))

    def test_state_cut_rejected_for_lstm(self):
        rng = np.random.default_rng(14)
        params, cache = random_cache(rng, cell_kind=rnn.LSTM)
        with pytest.raises(UnsupportedCutError):
            vjp_to_cut(cache, CutVertex.STATE, np.zeros(params.state_size))

    def test_outputs_finite_for_bounded_weights(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            w = rng.standard_normal((4, 7))
            w *= 10.0 / max(np.linalg.norm(w), 10.0)
            params = RnnParams(w, rnn.VANILLA_TANH, 4, 2)
            _, cache = step(params, rng.standard_normal(4), rng.standard_normal(2))
            v = rng.standard_normal(4)
            assert np.all(np.isfinite(jvp_state(cache, v)))
            assert np.all(np.isfinite(vjp_params(cache, v)))


class TestEpisode:
    def test_run_episode_records_everything(self):
        rng = np.random.default_rng(16)
        params, inputs, targets, head = make_instance(rng, length=5)
        tape = run_episode(params, inputs, targets, head)
        assert tape.length == 5
        assert tape.losses.shape == (5,)
        assert tape.loss_grads.shape == (5, 4)
        assert all(c.a.shape == (7,) for c in tape.caches)

    def test_empty_episode_rejected(self):
        rng = np.random.default_rng(17)
        params, _, _, head = make_instance(rng)
        with pytest.raises(ShapeError):
            run_episode(params, np.zeros((0, 2)), [], head)
