"""run_preuoro adds the immediate term of each step at the nonzeros of J_cut
and takes its greedy norms from scalars; replayed step by step with the
dense one-step form (J_cut on the identity basis, dense norms), it must give
the same estimates and realized coefficients to roundoff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab import estimators, rnn
from uorolab.errors import NumericOverflowError
from uorolab.estimators import FIXED_ALPHA, GIR, ScalingSchedule, run_preuoro
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import CutVertex, RnnParams, SoftmaxHead, run_episode

from helpers import make_instance, preuoro_replay, row_rel

RTOL = 1e-12

CELLS = [rnn.VANILLA_TANH, rnn.VANILLA_LINEAR, rnn.LSTM]
MODES = ["gir", "fixed", "ones"]


def schedule_for(mode, length, rng):
    if mode == "gir":
        return ScalingSchedule(GIR)
    alpha = np.ones(length) if mode == "ones" else rng.uniform(0.5, 2.0, length)
    return ScalingSchedule(FIXED_ALPHA, alpha=alpha)


def assert_matches_replay(tape, noise, schedule, where=""):
    report = run_preuoro(tape, noise, schedule)
    estimate, gammas, betas = preuoro_replay(tape, noise, schedule)
    assert row_rel(report.estimate, estimate) <= RTOL, where
    np.testing.assert_allclose(report.realized_gamma, gammas, rtol=RTOL, err_msg=where)
    np.testing.assert_allclose(report.realized_beta, betas, rtol=RTOL, err_msg=where)
    return report


def layouts(rng, params, length, head):
    """(name, tape, noise) for one episode, a batched tape of 3 episodes and
    4 seeds on one tape."""
    inputs = rng.standard_normal((3, length, params.input_size))
    targets = [[int(rng.integers(3)) for _ in range(length)] for _ in range(3)]
    batched = run_episode(params, inputs, targets, head)
    single = batched.episode(0)
    h = params.hidden_size
    return [
        ("one episode", single, episode_noise(71, 0, length, h)),
        ("batched tape", batched, episode_noises(71, range(3), length, h)),
        ("seeds on one tape", single,
         episode_noises(72, range(4), length, h, tau_kind="gaussian")),
    ]


class TestStructuredMatchesDenseReplay:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_replay(self, cell, mode):
        rng = np.random.default_rng(70)
        params, _, _, head = make_instance(rng, cell_kind=cell, hidden=4, length=6)
        schedule = schedule_for(mode, 6, rng)
        for name, tape, noise in layouts(rng, params, 6, head):
            assert_matches_replay(tape, noise, schedule, name)

    @settings(max_examples=60, deadline=None)
    @given(
        cell=st.sampled_from(CELLS),
        mode=st.sampled_from(MODES),
        hidden=st.integers(1, 6),
        length=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_replay(self, cell, mode, hidden, length, seed):
        rng = np.random.default_rng(seed)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell,
                                                      hidden=hidden, length=length)
        schedule = schedule_for(mode, length, rng)
        tape = run_episode(params, inputs, targets, head)
        noises = episode_noises(seed % 1000, range(3), length, hidden)
        assert_matches_replay(tape, noises, schedule)

    def test_no_identity_pushed_through_jvp_cut(self, monkeypatch):
        """The immediate term comes from the nonzeros of J_cut: neither the
        identity basis nor jvp_cut runs inside run_preuoro."""
        rng = np.random.default_rng(73)

        def fail(*args, **kwargs):
            raise AssertionError("J_cut was applied to basis rows")

        for cell in (rnn.VANILLA_TANH, rnn.LSTM):
            params, inputs, targets, head = make_instance(rng, cell_kind=cell,
                                                          hidden=3, length=4)
            tape = run_episode(params, inputs, targets, head)
            noises = episode_noises(74, range(2), 4, 3)
            with monkeypatch.context() as patched:
                patched.setattr(rnn, "jvp_cut", fail)
                patched.setattr(rnn, "basis_rows", fail)
                for schedule in (ScalingSchedule(GIR), schedule_for("fixed", 4, rng)):
                    run_preuoro(tape, noises, schedule)


class TestCutNonzeros:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("batched", [False, True], ids=["one", "batch"])
    def test_entries_equal_dense_cut_jacobian(self, cell, batched):
        rng = np.random.default_rng(75)
        params, _, _, _ = make_instance(rng, cell_kind=cell, hidden=4)
        batch = (3,) if batched else ()
        state = rng.standard_normal((*batch, params.state_size))
        _, cache = rnn.step(params, state, rng.standard_normal((*batch, 2)))
        state_index, cut_index, values = rnn.preactivation_cut_nonzeros(cache)
        assert values.shape == (*batch, state_index.size)
        assert len(set(zip(state_index, cut_index))) == state_index.size
        built = np.zeros((*batch, params.state_size, params.preactivation_size))
        built[..., state_index, cut_index] = values
        np.testing.assert_array_equal(
            built, rnn.dense_cut_jacobian(cache, CutVertex.PREACTIVATION))
        assert state_index.size == (7 if cell == rnn.LSTM else 1) * params.hidden_size


def identity_episode():
    """A linear cell with identity recurrence, zero biases and input weights
    (1, 0): inputs x_0 = 1, x_1 = 0 give h_0 = (1, 0), so a_0 = (0, 0, 1, 1)
    and a_1 = (1, 0, 0, 1) have the same norm.  Then gamma_1 = beta_0 = beta_1 = 1
    exactly, and with tau_1 = -tau_0 the sketch H~_1 = tau_0 I + tau_1 I
    cancels while w~_1 = tau_0 (a_0 - a_1) does not."""
    w = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    params = RnnParams(w, rnn.VANILLA_LINEAR, 2, 1)
    head = SoftmaxHead(np.array([[0.3, 0.1, 0.2], [-0.2, 0.4, -0.5]]))
    tape = run_episode(params, np.array([[1.0], [0.0], [0.5]]), [0, 1, 0], head)
    noise = episode_noise(76, 0, 3, 2)
    tau = noise.tau.copy()
    tau[1] = -tau[0]
    vars(noise)["tau"] = tau  # the cached stream, set by hand
    return tape, noise


class TestCancellation:
    def test_cancelled_sketch_is_zeroed_like_the_dense_rule(self):
        tape, noise = identity_episode()
        report = assert_matches_replay(tape, noise, ScalingSchedule(GIR))
        assert report.realized_beta[1] == report.realized_beta[0] == 1.0
        assert report.realized_gamma[2] == 1.0  # J_state H~_1 = 0

    def test_formula_norm_below_the_gram_tolerance_is_taken_densely(self):
        """A formula norm within GRAM_NORM_RTOL of the scale cannot decide
        the rule: the row's dense norm does.  Rows above that stay as they
        are, whatever their dense norm."""
        rows = np.ones((2, 3, 4))
        rows[:, 0] = 1e-20  # cancelled to roundoff: dense norm 4e-20
        rows[:, 1] = 1e-9  # small, but not roundoff: dense norm 4e-9
        scale = np.ones(3)
        formula = np.array([1e-14, 1e-14, 1e-14])**2
        estimators._zero_cancelled_rows(rows, formula, scale, 1.0)
        np.testing.assert_array_equal(rows[:, 0], 0.0)
        np.testing.assert_array_equal(rows[:, 1], 1e-9)
        np.testing.assert_array_equal(rows[:, 2], 1.0)
        far = np.full((2, 3, 4), 1e-20)
        estimators._zero_cancelled_rows(far, np.ones(3), scale, 1.0)
        np.testing.assert_array_equal(far, 1e-20)
        # the dense norm is of H~ = factor * rows: 1e-12 * 4e-9 is roundoff
        held = np.full((2, 3, 4), 1e-9)
        estimators._zero_cancelled_rows(held, formula, scale, np.array([1.0, 1e-12, 1.0]))
        np.testing.assert_array_equal(held[:, 1], 0.0)
        np.testing.assert_array_equal(held[:, [0, 2]], 1e-9)


class TestOverflow:
    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_fixed_alpha_overflow_names_the_step(self, cell):
        rng = np.random.default_rng(77)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=3,
                                                      length=3)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(78, 0, 3, 3)
        # tau_1 / beta_1 = +-1 / 1e-310 leaves the float range at step 1
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.array([1.0, 1e-310, 1.0]))
        with pytest.raises(NumericOverflowError, match="step 1"):
            preuoro_replay(tape, noise, schedule)
        with pytest.raises(NumericOverflowError, match="step 1"):
            run_preuoro(tape, noise, schedule)

    def test_overflowed_sketch_is_not_taken_for_cancellation(self):
        """An infinite scale, the summed norms of two terms whose squares
        overflowed, is no roundoff of a cancellation: neither rule zeroes a
        sketch of 1e300 entries under it, so the step's finiteness check
        raises instead of the sketch being zeroed."""
        sketch = np.full((2, 3), 1e300)
        estimators._zero_cancelled(sketch, np.full(2, np.inf), np.full(2, np.inf))
        np.testing.assert_array_equal(sketch, 1e300)
        rows = np.full((2, 3, 4), 1e300)
        estimators._zero_cancelled_rows(rows, np.full(3, np.inf), np.full(3, np.inf),
                                        1.0)
        np.testing.assert_array_equal(rows, 1e300)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_greedy_run_with_overflowing_norms_names_the_step(self, cell):
        """tau scaled by 1e300 puts entries of about 1e300 into H~ at step 0:
        finite, but with an infinite norm for the next coefficients."""
        rng = np.random.default_rng(80)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=3,
                                                      length=3)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(81, 0, 3, params.preactivation_size)
        noise.tau *= 1e300
        block = episode_noises(81, range(2), 3, params.preactivation_size)
        block.tau *= 1e300
        schedule = ScalingSchedule(GIR)
        with pytest.raises(NumericOverflowError, match="step 0"):
            preuoro_replay(tape, noise, schedule)
        with pytest.raises(NumericOverflowError, match="step 0"):
            run_preuoro(tape, noise, schedule)
        with pytest.raises(NumericOverflowError, match="step 0"):
            run_preuoro(tape, block, schedule)

