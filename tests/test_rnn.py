import warnings

import numpy as np
import pytest

from uorolab import rnn
from uorolab.errors import NumericOverflowError, ShapeError, UnsupportedCutError
from uorolab.estimators import reinforce_episode
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import (
    BernoulliHead,
    CutVertex,
    RnnParams,
    SoftmaxHead,
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

from helpers import make_instance, row_rel


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

    def test_unknown_cell_kind_refused_when_params_are_built(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="'vanilla'.*vanilla-tanh, "
                                             "vanilla-linear, lstm"):
            init_params("vanilla", 3, 2, rng)
        with pytest.raises(ValueError, match="unknown cell kind 'gru'"):
            RnnParams(np.zeros((3, 6)), "gru", 3, 2)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.VANILLA_LINEAR, rnn.LSTM])
    def test_out_writes_the_bits_of_a_fresh_step(self, cell):
        rng = np.random.default_rng(19)
        params, _, _, head = make_instance(rng, cell_kind=cell, hidden=3)
        inputs = rng.standard_normal((2, 5, 2))
        targets = [[int(rng.integers(3)) for _ in range(5)] for _ in range(2)]
        tape = run_episode(params, inputs, targets, head)
        state = 0.5 * rng.standard_normal((2, params.state_size))
        fresh_state, fresh = step(params, state, inputs[:, 3])
        out_state, out = step(params, state, inputs[:, 3], out=tape.steps[3])
        np.testing.assert_array_equal(out_state, fresh_state)
        assert np.shares_memory(out.a, tape.steps.a)
        for name, x in vars(fresh).items():
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(getattr(tape.steps, name)[3], x)
            else:
                assert getattr(out, name) is x

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
        """An unbatched h gives bit for bit what the same row gives as a
        batch of one, supervised or masked, down to saturated logits."""
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

    def test_non_integer_label_is_refused(self):
        head = SoftmaxHead(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="label 2.7 is not an integer"):
            loss_grad(np.zeros(2), 2.7, head)
        with pytest.raises(ValueError, match="label 0.5 is not an integer"):
            loss_grad(np.zeros((3, 2)), [1, None, 0.5], head)
        # an integral label of float type is that class
        head.weights[:] = np.arange(9.0).reshape(3, 3)
        loss, grad = loss_grad(np.ones(2), 2.0, head)
        assert loss == loss_grad(np.ones(2), 2, head)[0]
        np.testing.assert_array_equal(grad, loss_grad(np.ones(2), 2, head)[1])

    def test_soft_bernoulli_target_is_valid(self):
        head = BernoulliHead(np.array([[0.0, 0.0, 0.0]]))
        loss, grad = loss_grad(np.zeros(2), np.array([0.5]), head)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        np.testing.assert_array_equal(grad, 0.0)

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
        j_state = rnn.dense_state_jacobian(cache)
        j_cut = rnn.dense_cut_jacobian(cache, cut)
        j_theta = rnn.dense_theta_jacobian(cache, cut)
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

    def test_parameter_cut_refused(self):
        """The cut vertices are the state and the preactivations; the
        parameter vector is none, by name or in any product."""
        assert [cut.value for cut in CutVertex] == ["state", "preactivation"]
        with pytest.raises(ValueError):
            CutVertex("parameter")
        rng = np.random.default_rng(12)
        params, cache = random_cache(rng)
        for product, size in ((jvp_cut, params.num_params),
                              (vjp_to_cut, params.state_size),
                              (vjp_cut, params.num_params)):
            with pytest.raises(ValueError):
                product(cache, "parameter", np.zeros(size))
        with pytest.raises(ValueError):
            params.cut_size("parameter")

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



class TestScaledJvpState:
    """jvp_state(cache, v, scale=s) folds s into the step's per-row factors;
    it equals s times the product, to roundoff: 1e-15 of each row's norm
    (an LSTM entry that sums gate terms to near 0 moves further relative
    to itself)."""

    @staticmethod
    def layouts(rng, params):
        """(name, cache, stacked rows v, per-row scales) for one episode, a
        batch of 3 episodes and 4 seeds on one tape."""
        length, k, s = 3, 5, params.state_size
        inputs = rng.standard_normal((3, length, params.input_size))
        targets = [[int(rng.integers(3)) for _ in range(length)] for _ in range(3)]
        head = SoftmaxHead(rng.standard_normal((3, params.hidden_size + 1)))
        tape = run_episode(params, inputs, targets, head)
        one = tape.episode(0).steps[1]
        return [
            ("one episode", one, rng.standard_normal((k, s)), rng.uniform(0.1, 3.0)),
            ("batch", tape.steps[1], rng.standard_normal((k, 3, s)),
             rng.uniform(0.1, 3.0, 3)),
            ("seeds on one tape", one, rng.standard_normal((k, 4, s)),
             rng.uniform(0.1, 3.0, 4)),
        ]

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.VANILLA_LINEAR, rnn.LSTM])
    def test_equals_scaled_product(self, cell):
        rng = np.random.default_rng(81)
        params, _, _, _ = make_instance(rng, cell_kind=cell, hidden=4)
        for name, cache, v, per_row in self.layouts(rng, params):
            plain = jvp_state(cache, v)
            for scale in (1.7, per_row):
                expected = np.asarray(scale)[..., None] * plain
                out = np.empty_like(plain)
                for got in (jvp_state(cache, v, scale=scale),
                            jvp_state(cache, v, out=out, scale=scale)):
                    assert got.shape == expected.shape, name
                    assert row_rel(got, expected) <= 1e-15, name
                assert np.shares_memory(jvp_state(cache, v, out=out, scale=scale), out)
            np.testing.assert_array_equal(jvp_state(cache, v, scale=1.0), plain)

    def test_scale_leaves_the_cache_alone(self):
        rng = np.random.default_rng(82)
        params, _, _, _ = make_instance(rng, cell_kind=rnn.LSTM, hidden=3)
        _, cache, v, per_row = self.layouts(rng, params)[1]
        before = {name: x.copy() for name, x in vars(cache).items()
                  if isinstance(x, np.ndarray)}
        jvp_state(cache, v, scale=per_row)
        for name, x in before.items():
            np.testing.assert_array_equal(getattr(cache, name), x, err_msg=name)


class TestEpisode:
    def test_run_episode_records_everything(self):
        rng = np.random.default_rng(16)
        params, inputs, targets, head = make_instance(rng, length=5)
        tape = run_episode(params, inputs, targets, head)
        assert tape.length == 5
        assert tape.losses.shape == (5,)
        assert tape.loss_grads.shape == (5, 4)
        assert tape.steps.a.shape == (5, 7)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_batched_steps_are_one_array_per_field(self, cell):
        rng = np.random.default_rng(20)
        params, _, _, head = make_instance(rng, cell_kind=cell, hidden=3)
        inputs = rng.standard_normal((4, 5, 2))
        targets = [[int(rng.integers(3)) for _ in range(5)] for _ in range(4)]
        tape = run_episode(params, inputs, targets, head)
        steps = tape.steps
        assert steps.batch_shape == (5, 4)
        assert steps.a.shape == (5, 4, params.augmented_size)
        assert steps.h.shape == (5, 4, 3)
        if cell == rnn.LSTM:
            assert steps.d is None
            assert steps.dz.shape == (5, 4, 12)
            assert steps.c.shape == steps.f.shape == steps.dh_dc.shape == (5, 4, 3)
        else:
            assert steps.d.shape == (5, 4, 3)
        for name, x in vars(steps).items():
            if not isinstance(x, np.ndarray):
                continue
            step_view = getattr(steps[2], name)
            episode_view = getattr(tape.episode(1).steps, name)
            assert step_view.shape == x.shape[1:] and episode_view.shape == (5, x.shape[-1])
            assert np.shares_memory(step_view, x) and np.shares_memory(episode_view, x)
            np.testing.assert_array_equal(step_view, x[2])
            np.testing.assert_array_equal(episode_view, x[:, 1])

    def test_empty_episode_rejected(self):
        rng = np.random.default_rng(17)
        params, _, _, head = make_instance(rng)
        with pytest.raises(ShapeError):
            run_episode(params, np.zeros((0, 2)), [], head)


class TestSweep:
    @pytest.mark.parametrize("cell", rnn.CELL_KINDS)
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("with_offsets", [False, True])
    def test_equals_a_loop_of_steps(self, cell, batch, with_offsets):
        """One sweep fills the same steps, offset states and final state as
        a loop of rnn.step that adds each step's offset to its new state."""
        rng = np.random.default_rng(37)
        params, _, _, _ = make_instance(rng, cell_kind=cell, hidden=3)
        inputs = rng.standard_normal((6, *batch, 2))
        state = 0.5 * rng.standard_normal((*batch, params.state_size))
        offsets = 0.1 * rng.standard_normal((6, *batch, params.state_size))
        swept_offsets = offsets.copy() if with_offsets else None
        steps = rnn.empty_steps(params, (6, *batch))
        final = rnn.sweep(params, state, inputs, steps, swept_offsets)
        looped = rnn.empty_steps(params, (6, *batch))
        for t in range(6):
            state, _ = step(params, state, inputs[t], out=looped[t])
            if with_offsets:
                state = state + offsets[t]
                assert np.array_equal(swept_offsets[t], state)
        assert np.array_equal(final, state)
        for name, x in vars(looped).items():
            if isinstance(x, np.ndarray):
                assert np.array_equal(getattr(steps, name), x), name

    def test_checks_shapes_before_a_step(self):
        rng = np.random.default_rng(38)
        params, _, _, _ = make_instance(rng, hidden=3)
        inputs = rng.standard_normal((6, 2, 2))
        state = np.zeros((2, 3))
        with pytest.raises(ShapeError, match="steps of shape"):
            rnn.sweep(params, state, inputs, rnn.empty_steps(params, (5, 2)))
        with pytest.raises(ShapeError, match="offsets shape"):
            rnn.sweep(params, state, inputs, rnn.empty_steps(params, (6, 2)),
                      np.zeros((6, 3, 3)))
        with pytest.raises(ShapeError, match="at least one step"):
            rnn.sweep(params, state, inputs[:0], rnn.empty_steps(params, (0, 2)))

    @staticmethod
    def blowup():
        """A vanilla-linear cell that scales its state 1e100-fold a step and
        adds the input: from inputs of 1 the state first overflows at step
        4 (1e400), from inputs of 1e100 at step 3."""
        w = np.array([[1e100, 0.0, 1.0, 0.0], [0.0, 1e100, 1.0, 0.0]])
        params = RnnParams(w, rnn.VANILLA_LINEAR, 2, 1)
        inputs = np.ones((2, 6, 1))
        inputs[1] = 1e100
        return params, inputs, [[0] * 6] * 2, SoftmaxHead(np.zeros((2, 3)))

    def test_run_episode_names_the_first_non_finite_step(self):
        params, inputs, targets, head = self.blowup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(NumericOverflowError,
                               match="step 4 produced non-finite state"):
                run_episode(params, inputs[0], targets[0], head)
            with pytest.raises(NumericOverflowError,
                               match="step 3 produced non-finite state"):
                run_episode(params, inputs, targets, head)

    def test_reinforce_names_the_first_non_finite_step(self):
        params, inputs, targets, head = self.blowup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError,
                               match="step 4 produced non-finite state"):
                reinforce_episode(params, inputs[0], targets[0], head, 1e-3,
                                  episode_noise(39, 0, 6, 2))
            with pytest.raises(NumericOverflowError,
                               match="step 3 produced non-finite state"):
                reinforce_episode(params, inputs, targets, head, 1e-3,
                                  episode_noises(39, range(2), 6, 2))
