import numpy as np
import pytest

from uorolab import rnn
from uorolab.errors import ShapeError, SizeGuardError, UnsupportedCutError
from uorolab.exact import (
    DENSE_GUARD,
    bptt_gradient,
    episode_tensors,
    rtrl_jacobians,
    suffix_rows,
)
from uorolab.rnn import CutVertex, RnnParams, SoftmaxHead, run_episode, vjp_params

from helpers import (
    dense_cut_jacobian,
    dense_theta_jacobian,
    dense_theta_jacobians,
    episode_tensors_oracle,
    finite_difference_gradient,
    finite_difference_loss_at_cut,
    forbid_steps,
    make_instance,
    rtrl_by_dense_recursion,
    vjp_state,
)


class LastStateHead:
    """L = sum of h at supervised rows; gives a simple analytic loss for the
    linear cell."""

    def loss_and_grad(self, h, target):
        return np.sum(h, axis=-1) * target.mask, np.ones_like(h) * target.mask[..., None]


class TestBptt:
    def test_single_step_has_no_recursion(self):
        rng = np.random.default_rng(21)
        params, inputs, targets, head = make_instance(rng, length=1)
        tape = run_episode(params, inputs, targets, head)
        grad = bptt_gradient(tape).g
        direct = vjp_params(tape.steps[0], tape.loss_grad_full(0))
        np.testing.assert_allclose(grad, direct, atol=1e-14)

    def test_scalar_linear_cell_analytic_value(self):
        # h_t = w h_{t-1} + x_t, h_0 = 1, x = 0, w = 0.5, loss = h_2:
        # dL/dw = h_1 + w h_0 = 1.0
        params = RnnParams(np.array([[0.5, 0.0, 0.0]]), rnn.VANILLA_LINEAR, 1, 1)
        inputs = np.zeros((2, 1))
        targets = [None, 1.0]
        tape = run_episode(params, inputs, targets, LastStateHead(),
                           initial_state=np.array([1.0]))
        grad = bptt_gradient(tape).g
        assert grad[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_matches_finite_differences(self, cell):
        rng = np.random.default_rng(22)
        params, inputs, targets, head = make_instance(
            rng, cell_kind=cell, hidden=6 if cell != rnn.LSTM else 3, length=10
        )
        tape = run_episode(params, inputs, targets, head)
        grad = bptt_gradient(tape).g
        fd = finite_difference_gradient(params, inputs, targets, head)
        scale = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / scale < 1e-5

    def test_empty_tape_rejected(self):
        rng = np.random.default_rng(23)
        params, inputs, targets, head = make_instance(rng, length=1)
        tape = run_episode(params, inputs, targets, head)
        tape.steps = tape.steps[:0]
        with pytest.raises(ShapeError):
            bptt_gradient(tape)


class TestRtrl:
    def test_first_jacobian_is_immediate_influence(self):
        rng = np.random.default_rng(24)
        params, inputs, targets, head = make_instance(rng, length=1)
        tape = run_episode(params, inputs, targets, head)
        jacobians, _ = rtrl_jacobians(tape)
        cache = tape.steps[0]
        expected = dense_cut_jacobian(cache, CutVertex.PREACTIVATION) @ \
            dense_theta_jacobian(cache, CutVertex.PREACTIVATION)
        np.testing.assert_allclose(jacobians[0], expected, atol=1e-12)

    def test_agrees_with_bptt(self):
        rng = np.random.default_rng(25)
        params, inputs, targets, head = make_instance(rng, hidden=6, length=10)
        tape = run_episode(params, inputs, targets, head)
        _, fwd = rtrl_jacobians(tape)
        rev = bptt_gradient(tape)
        scale = max(np.linalg.norm(rev.g), 1e-12)
        assert np.linalg.norm(fwd.g - rev.g) / scale < 1e-8

    def test_zero_weights_leave_only_immediate_term(self):
        params = RnnParams(np.zeros((3, 6)), rnn.VANILLA_TANH, 3, 2)
        rng = np.random.default_rng(26)
        inputs = rng.standard_normal((4, 2))
        targets = [int(rng.integers(3)) for _ in range(4)]
        head = SoftmaxHead(rng.standard_normal((3, 4)))
        tape = run_episode(params, inputs, targets, head)
        jacobians, _ = rtrl_jacobians(tape)
        for t, jac in enumerate(jacobians):
            # tanh'(0) = 1, so the influence is exactly the Kronecker block
            expected = np.kron(np.eye(3), tape.steps[t].a[None, :])
            np.testing.assert_allclose(jac, expected, atol=1e-12)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.VANILLA_LINEAR, rnn.LSTM])
    @pytest.mark.parametrize("length", [1, 5, 20])
    def test_influence_matrices_equal_dense_recursion(self, cell, length):
        """The rows that jvp_state advances are the dense recursion's G_t at
        every step, to 1e-12 of its largest entry, and give its gradient."""
        rng = np.random.default_rng(27)
        for hidden in (2, 6):
            params, inputs, targets, head = make_instance(
                rng, cell_kind=cell, hidden=hidden, length=length)
            tape = run_episode(params, inputs, targets, head)
            jacobians, fwd = rtrl_jacobians(tape)
            expected, grad = rtrl_by_dense_recursion(tape)
            assert len(jacobians) == length
            for t, (jac, ref) in enumerate(zip(jacobians, expected)):
                assert jac.shape == (params.state_size, params.num_params)
                assert np.abs(jac - ref).max() <= 1e-12 * np.abs(ref).max(), \
                    f"H={hidden}, step {t}"
            assert np.abs(fwd.g - grad).max() <= 1e-12 * np.abs(grad).max()

    def test_refusals_come_before_any_step(self, monkeypatch):
        """An empty tape, a batched tape and an influence matrix past
        DENSE_GUARD are refused before any product runs."""
        rng = np.random.default_rng(28)
        params, inputs, targets, head = make_instance(rng, length=3)
        empty = run_episode(params, inputs, targets, head)
        empty.steps = empty.steps[:0]
        batched = run_episode(params, np.stack([inputs, inputs]), [targets] * 2, head)
        wide, inputs, targets, head = make_instance(rng, hidden=220, length=1)
        assert wide.num_params * wide.state_size > DENSE_GUARD  # 220 * 223 * 220
        big = run_episode(wide, inputs, targets, head)

        def fail(*args, **kwargs):
            raise AssertionError("a product ran before the tape was checked")

        forbid_steps(monkeypatch)  # jvp_state among them
        monkeypatch.setattr(rnn, "vjp_params", fail)
        with pytest.raises(ShapeError, match="empty tape"):
            rtrl_jacobians(empty)
        with pytest.raises(ShapeError, match=r"tape\.episode\(i\)"):
            rtrl_jacobians(batched)
        with pytest.raises(SizeGuardError):
            rtrl_jacobians(big)


class TestEpisodeTensors:
    """The dense adjoints b[t, s] = dL_t/dz_s of the test oracle
    (helpers.episode_tensors_oracle), against finite differences, single
    step chains and BPTT; and exact.episode_tensors, one episode's suffix
    rows."""

    @pytest.mark.parametrize("cut", [CutVertex.PREACTIVATION, CutVertex.STATE])
    def test_is_one_episodes_suffix_rows(self, cut):
        rng = np.random.default_rng(26)
        params, inputs, targets, head = make_instance(rng, length=5)
        tape = run_episode(params, inputs, targets, head)
        rows = episode_tensors(tape, cut)
        expected = suffix_rows(tape, cut)
        assert rows.rows.tobytes() == expected.rows.tobytes()
        assert np.shares_memory(rows.a, tape.steps.a)
        np.testing.assert_array_equal(rows.a_norms, expected.a_norms)

    def test_causality_zero_block(self):
        rng = np.random.default_rng(27)
        params, inputs, targets, head = make_instance(rng, length=5)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors_oracle(tape, CutVertex.PREACTIVATION)
        for t in range(5):
            for s in range(t + 1, 5):
                np.testing.assert_array_equal(tensors.b[t, s], np.zeros(4))

    def test_diagonal_is_single_step_chain(self):
        rng = np.random.default_rng(28)
        params, inputs, targets, head = make_instance(rng, length=4)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors_oracle(tape, CutVertex.PREACTIVATION)
        for t in range(4):
            expected = rnn.vjp_to_cut(
                tape.steps[t], CutVertex.PREACTIVATION, tape.loss_grad_full(t)
            )
            np.testing.assert_allclose(tensors.b[t, t], expected, atol=1e-14)

    @pytest.mark.parametrize("cut", [CutVertex.PREACTIVATION, CutVertex.STATE])
    def test_finite_difference_spot_checks(self, cut):
        rng = np.random.default_rng(29)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=6)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors_oracle(tape, cut)
        pairs = [(5, 2), (4, 4), (3, 0), (2, 1), (5, 5)]
        for t, s in pairs:
            direction = rng.standard_normal(tensors.cut_dim)
            fd = finite_difference_loss_at_cut(tape, cut, t, s, direction, head)
            assert tensors.b[t, s] @ direction == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_total_gradient_identity(self):
        rng = np.random.default_rng(30)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=7)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors_oracle(tape, CutVertex.PREACTIVATION)
        exact = bptt_gradient(tape).g
        total = tensors.total_gradient()
        scale = max(np.linalg.norm(exact), 1e-12)
        assert np.linalg.norm(total - exact) / scale < 1e-8

    def test_state_cut_total_gradient_against_dense_jacobians(self):
        """At the state cut J_theta is diag(f'(z_s)) (I (x) a_s^T), carried as
        the tape's d: the total gradient equals sum_s (sum_t b[t,s]) J_s with
        J_s formed densely from the tape's steps, and the BPTT gradient."""
        rng = np.random.default_rng(31)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=3)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors_oracle(tape, CutVertex.STATE)
        np.testing.assert_array_equal(tensors.d, tape.steps.d)
        jacobians = dense_theta_jacobians(tape.steps, CutVertex.STATE)
        dense = sum(tensors.b[s:, s].sum(axis=0) @ j for s, j in enumerate(jacobians))
        exact = bptt_gradient(tape).g
        total = tensors.total_gradient()
        np.testing.assert_allclose(total, dense, rtol=0, atol=1e-14 * np.abs(dense).max())
        np.testing.assert_allclose(
            total, exact, atol=1e-10 * max(np.linalg.norm(exact), 1)
        )
        for s, j in enumerate(jacobians):
            assert tensors.theta_frob_sq(s) == pytest.approx(np.sum(j**2), rel=1e-14)

    def test_size_guard(self):
        rng = np.random.default_rng(32)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        tape.steps = tape.steps[np.arange(160000) % 4]  # absurd tape length
        with pytest.raises(SizeGuardError):
            episode_tensors(tape, CutVertex.PREACTIVATION)


# Every (cell, cut) pair that episode_tensors supports.
CELL_CUTS = [
    (rnn.VANILLA_TANH, CutVertex.STATE),
    (rnn.VANILLA_TANH, CutVertex.PREACTIVATION),
    (rnn.VANILLA_LINEAR, CutVertex.STATE),
    (rnn.VANILLA_LINEAR, CutVertex.PREACTIVATION),
    (rnn.LSTM, CutVertex.PREACTIVATION),
]


class TestOneSweepTensors:
    def test_lstm_state_cut_rejected(self):
        rng = np.random.default_rng(35)
        params, inputs, targets, head = make_instance(rng, cell_kind=rnn.LSTM)
        tape = run_episode(params, inputs, targets, head)
        with pytest.raises(UnsupportedCutError):
            episode_tensors(tape, CutVertex.STATE)

    def test_stacked_vjps_match_row_by_row(self):
        rng = np.random.default_rng(36)
        for cell, cut in CELL_CUTS:
            params, inputs, targets, head = make_instance(rng, cell_kind=cell, length=2)
            cache = run_episode(params, inputs, targets, head).steps[1]
            rows = rng.standard_normal((2, 3, params.state_size))
            stacked_state = vjp_state(cache, rows)
            stacked_cut = rnn.vjp_to_cut(cache, cut, rows)
            for i in range(2):
                for j in range(3):
                    np.testing.assert_allclose(
                        stacked_state[i, j], vjp_state(cache, rows[i, j]),
                        rtol=1e-13, atol=1e-15)
                    np.testing.assert_allclose(
                        stacked_cut[i, j], rnn.vjp_to_cut(cache, cut, rows[i, j]),
                        rtol=1e-13, atol=1e-15)
            with pytest.raises(ShapeError):
                vjp_state(cache, rows[..., :-1])
            with pytest.raises(ShapeError):
                rnn.vjp_to_cut(cache, cut, rows[..., :-1])


class TestCrossEngineAgreement:
    def test_twenty_random_instances(self):
        rng = np.random.default_rng(33)
        for i in range(20):
            hidden = int(rng.choice([2, 6]))
            length = int(rng.choice([1, 5, 20]))
            params, inputs, targets, head = make_instance(
                rng, hidden=hidden, length=length
            )
            tape = run_episode(params, inputs, targets, head)
            rev = bptt_gradient(tape).g
            _, fwd = rtrl_jacobians(tape)
            scale = max(np.linalg.norm(rev), 1e-12)
            assert np.linalg.norm(fwd.g - rev) / scale < 1e-8, f"instance {i}"

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_suffix_rows_diagonal_gives_the_gradient(self, cell, cut):
        """The third engine of the cross-engine identity: the diagonal suffix
        rows v_ss = sum_{t>=s} dL_t/dz_s give the total gradient
        sum_s vec((f_s . v_ss) a_s^T), equal to BPTT's and RTRL's."""
        rng = np.random.default_rng(37)
        for length in (1, 4, 9):
            params, inputs, targets, head = make_instance(
                rng, cell_kind=cell, hidden=4, inputs_dim=3, length=length)
            tape = run_episode(params, inputs, targets, head)
            rows = suffix_rows(tape, cut)
            s = np.arange(length)
            coeff = rows.rows[s * (s + 1) // 2 + s]
            if rows.d is not None:
                coeff = coeff * rows.d
            total = np.einsum("si,sj->ij", coeff, rows.a).reshape(-1)
            rev = bptt_gradient(tape).g
            _, fwd = rtrl_jacobians(tape)
            scale = np.abs(rev).max()
            assert np.abs(total - rev).max() <= 1e-12 * scale
            assert np.abs(total - fwd.g).max() <= 1e-10 * scale
