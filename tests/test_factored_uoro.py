"""run_uoro carries w~ as coefficients over its rank-one terms; replayed step
by step with the dense one-step form (uoro_step + uoro_contribution), it
must give the same estimates and realized coefficients to roundoff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab import estimators, rnn
from uorolab.errors import NumericOverflowError, ShapeError
from uorolab.estimators import (
    CONTRIBUTION_CURRENT,
    CONTRIBUTIONS,
    FIXED_ALPHA,
    GIR,
    ScalingSchedule,
    run_preuoro,
    run_spatial,
    run_uoro,
)
from uorolab.exact import episode_tensors
from uorolab.noise import NoiseBlock, episode_noise, episode_noises
from uorolab.rnn import CutVertex, RnnParams, SoftmaxHead, run_episode
from uorolab.training import realized_alpha
from uorolab.variance import estimate_B_online, offline_total_estimate

from helpers import forbid_steps, make_instance, row_rel, uoro_replay

RTOL = 1e-12

CELL_CUTS = [
    (rnn.VANILLA_TANH, CutVertex.PREACTIVATION),
    (rnn.VANILLA_TANH, CutVertex.STATE),
    (rnn.VANILLA_LINEAR, CutVertex.PREACTIVATION),
    (rnn.VANILLA_LINEAR, CutVertex.STATE),
    (rnn.LSTM, CutVertex.PREACTIVATION),
]


def schedule_for(mode, length, rng, q0=None):
    if mode == "gir":
        return ScalingSchedule(GIR, Q0=q0)
    alpha = np.ones(length) if mode == "ones" else rng.uniform(0.5, 2.0, length)
    return ScalingSchedule(FIXED_ALPHA, Q0=q0, alpha=alpha)


def general_q0(rng, n):
    """A well-conditioned Q0 that is not symmetric, so Q0 and Q0^T differ."""
    return rng.standard_normal((n, n)) + 3.0 * np.eye(n)


def assert_matches_replay(tape, cut, noise, schedule, contribution, where=""):
    report = run_uoro(tape, cut, noise, schedule, contribution)
    estimate, gammas, betas = uoro_replay(tape, cut, noise, schedule, contribution)
    assert row_rel(report.estimate, estimate) <= RTOL, where
    np.testing.assert_allclose(report.realized_gamma, gammas, rtol=RTOL, err_msg=where)
    np.testing.assert_allclose(report.realized_beta, betas, rtol=RTOL, err_msg=where)
    return report


def layouts(rng, params, length, n_z, head):
    """(name, tape, noise, single-episode tapes) for one episode, a batched
    tape of 3 episodes, and 4 seeds on one tape."""
    inputs = rng.standard_normal((3, length, params.input_size))
    targets = [[int(rng.integers(3)) for _ in range(length)] for _ in range(3)]
    batched = run_episode(params, inputs, targets, head)
    single = batched.episode(0)
    return [
        ("one episode", single, episode_noise(61, 0, length, n_z), [single]),
        ("batched tape", batched, episode_noises(61, range(3), length, n_z),
         [batched.episode(j) for j in range(3)]),
        ("seeds on one tape", single,
         episode_noises(62, range(4), length, n_z), [single] * 4),
    ]


class TestFactoredMatchesDenseReplay:
    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    @pytest.mark.parametrize("mode", ["gir", "fixed", "ones"])
    @pytest.mark.parametrize("use_q0", [False, True], ids=["identity", "general-Q0"])
    def test_matches_replay_and_offline(self, cell, cut, mode, use_q0):
        rng = np.random.default_rng(60)
        params, _, _, head = make_instance(rng, cell_kind=cell, hidden=4, length=6)
        n_z = params.cut_size(cut)
        schedule = schedule_for(mode, 6, rng, general_q0(rng, n_z) if use_q0 else None)
        for name, tape, noise, episodes in layouts(rng, params, 6, n_z, head):
            for contribution in CONTRIBUTIONS:
                where = f"{name}/{contribution}"
                report = assert_matches_replay(tape, cut, noise, schedule,
                                               contribution, where)
                if contribution != CONTRIBUTION_CURRENT:
                    continue
                noises = noise if isinstance(noise, NoiseBlock) else [noise]
                alpha = realized_alpha(report).reshape(6, -1)
                estimate = report.estimate.reshape(len(noises), -1)
                for j, (episode, n) in enumerate(zip(episodes, noises)):
                    offline = offline_total_estimate(
                        episode_tensors(episode, cut), n.u, alpha[:, j], schedule.Q0)
                    assert row_rel(estimate[j], offline) <= RTOL, f"{where}/offline {j}"

    @settings(max_examples=80, deadline=None)
    @given(
        cell_cut=st.sampled_from(CELL_CUTS),
        mode=st.sampled_from(["gir", "fixed", "ones"]),
        contribution=st.sampled_from(CONTRIBUTIONS),
        use_q0=st.booleans(),
        hidden=st.integers(1, 6),
        length=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_replay(self, cell_cut, mode, contribution, use_q0,
                                     hidden, length, seed):
        cell, cut = cell_cut
        rng = np.random.default_rng(seed)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell,
                                                      hidden=hidden, length=length)
        n_z = params.cut_size(cut)
        schedule = schedule_for(mode, length, rng,
                                general_q0(rng, n_z) if use_q0 else None)
        tape = run_episode(params, inputs, targets, head)
        noises = episode_noises(seed % 1000, range(3), length, n_z)
        assert_matches_replay(tape, cut, noises, schedule, contribution)

    def test_no_parameter_length_products(self, monkeypatch):
        """The factored sketch forms no P-long vector before the final
        contraction: the products that build one must not run."""
        rng = np.random.default_rng(63)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        noises = episode_noises(64, range(2), 4, 3)

        def fail(*args, **kwargs):
            raise AssertionError("a P-long product ran")

        for name in ("vjp_cut", "vjp_params", "outer_rows"):
            monkeypatch.setattr(rnn, name, fail)
        monkeypatch.setattr(estimators, "outer_rows", fail)
        for contribution in CONTRIBUTIONS:
            for schedule in (ScalingSchedule(GIR), schedule_for("fixed", 4, rng)):
                run_uoro(tape, CutVertex.PREACTIVATION, noises, schedule, contribution)


def cancelling_episode(seed):
    """Two units whose recurrent weights swap them, zero input weights and
    biases, and x_0 = x_1: the states stay at zero, so a_0 = a_1 and f' = 1,
    and ||J_state h~_0|| = ||h~_0|| exactly, so gamma_1 = 1 and beta_1 =
    beta_0.  With u_1 = -u_0 the new term of w~_1 is exactly minus the old
    one, while h~_1 = beta_0 (swap(u_0) - u_0) stays nonzero."""
    params = RnnParams(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
                       rnn.VANILLA_TANH, 2, 1)
    head = SoftmaxHead(np.array([[0.3, 0.1, 0.2], [-0.2, 0.4, -0.5]]))
    tape = run_episode(params, np.array([[1.0], [1.0], [0.5], [-1.0]]), [0, 1, 0, 1],
                       head)
    noise = episode_noise(seed, 0, 4, 2)
    u = noise.u.copy()
    u[1] = -u[0]
    vars(noise)["u"] = u  # the cached stream, set by hand
    return tape, noise


def with_first_column(noise, seed):
    """A block of episodes 0 and 1 of seed whose column 0 has the u stream
    of the one-episode noise, set by hand."""
    block = episode_noises(seed, range(2), noise.length, noise.dim)
    u = block.u.copy()
    u[:, 0] = noise.u
    vars(block)["u"] = u
    return block


class TestGramCancellation:
    def test_exact_cancellation_falls_back_like_the_dense_rule(self):
        """The Gram of the terms gives ||w~_1||^2 only to about eps times the
        squared scale, here about 1e-8 of the scale in the norm, which would
        pick gamma_2 far from 1; the row is formed densely, cancels under
        the rule, and gamma_2 falls back to exactly 1 as in the replay."""
        tape, noise = cancelling_episode(7)
        schedule = ScalingSchedule(GIR)
        estimate, gammas, _ = uoro_replay(tape, CutVertex.PREACTIVATION, noise,
                                          schedule)
        assert gammas[2] == 1.0
        report = assert_matches_replay(tape, CutVertex.PREACTIVATION, noise,
                                       schedule, CONTRIBUTION_CURRENT)
        assert report.realized_gamma[2] == 1.0
        batched = run_uoro(tape, CutVertex.PREACTIVATION, with_first_column(noise, 7),
                           schedule)
        assert batched.realized_gamma[2, 0] == 1.0
        assert row_rel(batched.estimate[0], estimate) <= RTOL

    def test_cancelled_row_keeps_no_coefficients(self):
        """A row that cancels under the rule is zeroed in its coefficients,
        not only in its tracked norm, so no residual of the old terms is
        carried on."""
        left = np.array([[0.3, -1.2], [-0.3, 1.2]])
        a = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        gram = estimators._gram(left) * estimators._gram(a)
        out_norm = np.linalg.norm(left[0]) * np.linalg.norm(a[0])
        # rows c_0 = (1 / beta) and c_1 = (c_0 / gamma, 1 / beta), as
        # run_uoro's step loop writes them
        coefficients = np.array([[1.0 / 0.7, 0.0], [1.0 / 0.7, 1.0 / 0.7]])
        w_sq = estimators._w_norm_sq(coefficients, 0, 1.0, 0.7, 0.0, gram,
                                     out_norm / 0.7, left, a)
        assert coefficients[0, 0] == 1.0 / 0.7
        w_sq = estimators._w_norm_sq(coefficients, 1, 1.0, 0.7, w_sq, gram,
                                     np.sqrt(w_sq) + out_norm / 0.7, left, a)
        assert w_sq == 0.0
        np.testing.assert_array_equal(coefficients[1], 0.0)


class TestOverflowAndLength:
    def test_coefficient_overflow_names_the_step(self):
        rng = np.random.default_rng(65)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=3)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(66, 0, 3, 3)
        # 1 / beta_1 = 1 / 1e-310 leaves the float range at step 1
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.array([1.0, 1e-310, 1.0]))
        with np.errstate(divide="ignore", over="ignore"):
            assert not np.isfinite(1.0 / schedule.fixed_coefficients(1)[1])
        with pytest.raises(NumericOverflowError, match="step 1"):
            uoro_replay(tape, CutVertex.PREACTIVATION, noise, schedule)
        with pytest.raises(NumericOverflowError, match="step 1"):
            run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_greedy_norm_overflow_names_the_step(self, cell):
        """Noise scaled by 1e300 puts entries of about 1e300 into h~ at step
        0: finite, but with an infinite norm, which is overflow and not the
        cancellation that an infinite scale would otherwise pass for."""
        rng = np.random.default_rng(69)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=3,
                                                      length=3)
        tape = run_episode(params, inputs, targets, head)
        n_z = params.preactivation_size
        noise = episode_noise(70, 0, 3, n_z)
        noise.block.u *= 1e300
        block = episode_noises(70, range(2), 3, n_z)
        block.u *= 1e300
        schedule = ScalingSchedule(GIR)
        with pytest.raises(NumericOverflowError, match="step 0"):
            uoro_replay(tape, CutVertex.PREACTIVATION, noise, schedule)
        with pytest.raises(NumericOverflowError, match="step 0"):
            run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule)
        with pytest.raises(NumericOverflowError, match="step 0"):
            run_uoro(tape, CutVertex.PREACTIVATION, block, schedule)

    def test_alpha_shorter_than_tape_rejected(self):
        rng = np.random.default_rng(67)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(3))
        with pytest.raises(ShapeError, match="alpha"):
            run_uoro(tape, CutVertex.PREACTIVATION, episode_noise(68, 0, 4, 3),
                     schedule)

    @pytest.mark.parametrize("estimator", ["uoro", "preuoro", "spatial", "online B"])
    def test_noise_shorter_than_tape_rejected_before_a_step(self, monkeypatch,
                                                            estimator):
        rng = np.random.default_rng(72)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(4))
        run = {
            "uoro": lambda n: run_uoro(tape, CutVertex.PREACTIVATION, n, schedule),
            "preuoro": lambda n: run_preuoro(tape, n, schedule),
            "spatial": lambda n: run_spatial(tape, CutVertex.PREACTIVATION, n),
            "online B": lambda n: estimate_B_online(tape, n, schedule),
        }[estimator]
        noises = [episode_noise(73, 0, 3, 3)]
        if estimator != "spatial":  # the spatial estimator runs one episode
            noises.append(episode_noises(73, range(2), 3, 3))
        forbid_steps(monkeypatch)
        for noise in noises:
            with pytest.raises(ShapeError, match="noise of 3 steps for an episode of 4"):
                run(noise)

    def test_longer_noise_drives_its_first_steps(self):
        """A noise longer than the tape gives the bits of one of the tape's
        length, whose streams are its first steps."""
        rng = np.random.default_rng(74)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        fixed = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(4))
        cut = CutVertex.PREACTIVATION
        runs = [
            lambda n: run_uoro(tape, cut, n, ScalingSchedule(GIR)).estimate,
            lambda n: run_uoro(tape, cut, n, fixed).estimate,
            lambda n: run_preuoro(tape, n, ScalingSchedule(GIR)).estimate,
            lambda n: estimate_B_online(tape, n, fixed),
        ]
        for run in runs:
            for longer, shorter in ((episode_noise(75, 0, 7, 3),
                                     episode_noise(75, 0, 4, 3)),
                                    (episode_noises(75, range(3), 5, 3),
                                     episode_noises(75, range(3), 4, 3))):
                assert np.array_equal(run(longer), run(shorter))
