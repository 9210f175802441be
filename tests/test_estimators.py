import numpy as np
import pytest

from uorolab import rnn
from uorolab.errors import ShapeError
from uorolab.estimators import (
    CONTRIBUTION_SPLIT,
    CONTRIBUTION_STALE_W,
    FIXED_ALPHA,
    GIR,
    ScalingSchedule,
    reinforce_episode,
    run_preuoro,
    run_spatial,
    run_uoro,
)
from uorolab.exact import bptt_gradient, episode_tensors, rtrl_jacobians
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import CutVertex, run_episode
from uorolab.variance import offline_total_estimate

from helpers import (
    ConstantHead,
    RankOneState,
    dense_cut_jacobian,
    dense_state_jacobian,
    episode_tensors_oracle,
    make_instance,
    uoro_contribution,
    uoro_step,
    vjp_cut,
)


def fixed_schedule(length, Q0=None, alpha=None):
    if alpha is None:
        alpha = np.ones(length)
    return ScalingSchedule(FIXED_ALPHA, Q0=Q0, alpha=alpha)


def mc_mean_matrix(sample_fn, n_seeds):
    """Mean and per-entry standard error of a matrix-valued sampler."""
    total = None
    total_sq = None
    for i in range(n_seeds):
        x = sample_fn(i)
        if total is None:
            total = np.zeros_like(x)
            total_sq = np.zeros_like(x)
        total += x
        total_sq += x * x
    mean = total / n_seeds
    var = total_sq / n_seeds - mean**2
    se = np.sqrt(np.maximum(var, 0.0) / n_seeds)
    return mean, se


def gir_step(state, cache, cut, u):
    """(gamma, beta) of one greedy step of the rank-one sketch."""
    _, gamma, beta = uoro_step(state, cache, cut, u, ScalingSchedule(GIR), 0)
    return gamma, beta


class TestGirCoefficients:
    def test_direct_formula(self):
        rng = np.random.default_rng(41)
        params, inputs, _, _ = make_instance(rng, length=1)
        _, cache = rnn.step(params, np.zeros(4), inputs[0])
        # engineer ||w~|| = 4 against a forwarded norm of 1
        h_tilde = rng.standard_normal(4)
        forwarded = rnn.jvp_state(cache, h_tilde)
        h_tilde /= np.linalg.norm(forwarded)
        w_tilde = rng.standard_normal(params.num_params)
        w_tilde *= 4.0 / np.linalg.norm(w_tilde)
        state = RankOneState(h_tilde, w_tilde)
        gamma, _ = gir_step(state, cache, CutVertex.PREACTIVATION,
                            rng.standard_normal(4))
        assert gamma == pytest.approx(2.0, rel=1e-12)

    def test_first_step_fallback(self):
        rng = np.random.default_rng(42)
        params, inputs, _, _ = make_instance(rng, length=1)
        _, cache = rnn.step(params, np.zeros(4), inputs[0])
        state = RankOneState(np.zeros(4), np.zeros(params.num_params))
        gamma, beta = gir_step(state, cache, CutVertex.PREACTIVATION,
                               rng.standard_normal(4))
        assert gamma == 1.0
        assert beta > 0

    def test_cross_terms_equalized(self):
        rng = np.random.default_rng(43)
        params, inputs, _, _ = make_instance(rng, length=1)
        _, cache = rnn.step(params, 0.3 * rng.standard_normal(4), inputs[0])
        state = RankOneState(
            rng.standard_normal(4), rng.standard_normal(params.num_params)
        )
        u = rng.standard_normal(4)
        cut = CutVertex.PREACTIVATION
        gamma, beta = gir_step(state, cache, cut, u)
        fwd = np.linalg.norm(rnn.jvp_state(cache, state.h_tilde))
        out = np.linalg.norm(vjp_cut(cache, cut, u))
        inn = np.linalg.norm(rnn.jvp_cut(cache, cut, u))
        wno = np.linalg.norm(state.w_tilde)
        lhs = (gamma / beta) ** 2 * (fwd * out) ** 2
        rhs = (beta / gamma) ** 2 * (inn * wno) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestUoroUnbiasedness:
    def test_single_step_sketch_mean_is_immediate_influence(self):
        rng = np.random.default_rng(44)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=1)
        tape = run_episode(params, inputs, targets, head)
        jacobians, _ = rtrl_jacobians(tape)
        schedule = fixed_schedule(1)

        def sample(i):
            noise = episode_noise(777, i, 1, 3)
            state = RankOneState(np.zeros(3), np.zeros(params.num_params))
            state, _, _ = uoro_step(state, tape.steps[0], CutVertex.PREACTIVATION,
                                    noise.u[0], schedule, 0)
            return np.outer(state.h_tilde, state.w_tilde)

        mean, se = mc_mean_matrix(sample, 20000)
        z = np.abs(mean - jacobians[0]) / np.maximum(se, 1e-12)
        assert z.max() < 4.0

    def test_sketch_mean_tracks_influence_matrix_at_t3(self):
        rng = np.random.default_rng(45)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=3)
        tape = run_episode(params, inputs, targets, head)
        jacobians, _ = rtrl_jacobians(tape)
        schedule = fixed_schedule(3)

        def sample(i):
            noise = episode_noise(778, i, 3, 4)
            state = RankOneState(np.zeros(4), np.zeros(params.num_params))
            for t in range(3):
                state, _, _ = uoro_step(state, tape.steps[t],
                                        CutVertex.PREACTIVATION,
                                        noise.u[t], schedule, t)
            return np.outer(state.h_tilde, state.w_tilde)

        mean, se = mc_mean_matrix(sample, 30000)
        z = np.abs(mean - jacobians[2]) / np.maximum(se, 1e-12)
        assert z.max() < 4.5

    def test_contribution_mean_matches_per_step_gradient(self):
        rng = np.random.default_rng(46)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=5)
        tape = run_episode(params, inputs, targets, head)
        # oracle: dL_5/dtheta from the dense adjoints at the parameter level
        tensors = episode_tensors_oracle(tape, CutVertex.PREACTIVATION)
        t_last = 4
        oracle = np.zeros(params.num_params)
        for s in range(t_last + 1):
            oracle += np.outer(tensors.b[t_last, s], tensors.a[s]).reshape(-1)
        schedule = fixed_schedule(5)

        def sample(i):
            noise = episode_noise(779, i, 5, 4)
            state = RankOneState(np.zeros(4), np.zeros(params.num_params))
            for t in range(5):
                state, _, _ = uoro_step(state, tape.steps[t],
                                        CutVertex.PREACTIVATION,
                                        noise.u[t], schedule, t)
            return uoro_contribution(state, tape.loss_grad_full(t_last))[None, :]

        mean, se = mc_mean_matrix(sample, 30000)
        z = np.abs(mean[0] - oracle) / np.maximum(se[0], 1e-12)
        assert z.max() < 4.5

    def test_zero_loss_grad_contributes_zero(self):
        state = RankOneState(np.ones(3), np.ones(6))
        np.testing.assert_array_equal(uoro_contribution(state, np.zeros(3)), np.zeros(6))

    def test_zero_noise_keeps_only_forwarded_term(self):
        rng = np.random.default_rng(47)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=1)
        tape = run_episode(params, inputs, targets, head)
        state = RankOneState(rng.standard_normal(3), rng.standard_normal(params.num_params))
        schedule = fixed_schedule(1, alpha=np.array([2.0]))
        new, gamma, _ = uoro_step(state, tape.steps[0], CutVertex.PREACTIVATION,
                                  np.zeros(3), schedule, 0)
        np.testing.assert_allclose(
            new.h_tilde, gamma * rnn.jvp_state(tape.steps[0], state.h_tilde),
            atol=1e-14,
        )


class TestOnlineOfflineEquality:
    @pytest.mark.parametrize("mode", ["fixed", "gir"])
    @pytest.mark.parametrize("use_q0", [False, True])
    def test_accumulated_equals_offline_formula(self, mode, use_q0):
        rng = np.random.default_rng(48)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=6)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors(tape, CutVertex.PREACTIVATION)
        q0 = None
        if use_q0:
            m = rng.standard_normal((4, 4))
            q0 = m @ m.T + 2.0 * np.eye(4)
        if mode == "fixed":
            alpha = rng.uniform(0.5, 2.0, size=6)
            schedule = ScalingSchedule(FIXED_ALPHA, Q0=q0, alpha=alpha)
        else:
            schedule = ScalingSchedule(GIR, Q0=q0)
        noise = episode_noise(901, 3, 6, 4)
        report = run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule)
        if mode == "fixed":
            realized_alpha = alpha
        else:
            # reconstruct the overall per-step scalings from the recursion
            realized_alpha = np.array([
                report.realized_beta[s] * np.prod(report.realized_gamma[s + 1:])
                for s in range(6)
            ])
        offline = offline_total_estimate(tensors, noise.u, realized_alpha, q0)
        scale = max(np.linalg.norm(offline), 1e-12)
        assert np.linalg.norm(report.estimate - offline) / scale < 1e-9

    def test_q_invariance_of_expectation(self):
        rng = np.random.default_rng(49)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        exact = bptt_gradient(tape).g
        q_list = [None, np.diag([1.0, 2.0, 3.0])]
        m = rng.standard_normal((3, 3))
        q_list.append(m @ m.T + 2.0 * np.eye(3))
        for q0 in q_list:
            schedule = fixed_schedule(4, Q0=q0)
            total = np.zeros(params.num_params)
            total_sq = np.zeros(params.num_params)
            n = 20000
            for i in range(n):
                noise = episode_noise(902, i, 4, 3)
                est = run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule).estimate
                total += est
                total_sq += est * est
            mean = total / n
            se = np.sqrt(np.maximum(total_sq / n - mean**2, 0) / n)
            z = np.abs(mean - exact) / np.maximum(se, 1e-12)
            assert z.max() < 4.5, f"Q0={q0}"


class TestContributionModes:
    def test_stale_w_uses_previous_vector(self):
        rng = np.random.default_rng(50)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=1)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(51, 0, 1, 3)
        schedule = fixed_schedule(1)
        stale = run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule,
                         contribution=CONTRIBUTION_STALE_W)
        # a one-step tape has only the first-step contribution, zero: w~_0 = 0
        np.testing.assert_array_equal(stale.estimate, np.zeros(params.num_params))

    def test_split_mode_exact_at_t1(self):
        rng = np.random.default_rng(52)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=1)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(53, 0, 1, 3)
        schedule = fixed_schedule(1)
        split = run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule,
                         contribution=CONTRIBUTION_SPLIT)
        exact = bptt_gradient(tape).g
        np.testing.assert_allclose(split.estimate, exact, atol=1e-12)


class TestPreUoro:
    def test_gir_formulas(self):
        """The greedy coefficients of a two-step run from dense Jacobians:
        beta_t^2 = ||a_t|| / ||J_cut(t)||_F, gamma_0 = 1 on the zero sketch,
        and gamma_1^2 = ||w~_0|| / ||J_state(1) H~_0||, with
        H~_0 = beta_0 tau_0 J_cut(0) and w~_0 = (tau_0 / beta_0) a_0."""
        rng = np.random.default_rng(54)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=2)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(54, 0, 2, 3, tau_kind="gaussian")
        report = run_preuoro(tape, noise, ScalingSchedule(GIR))
        jzt = [dense_cut_jacobian(tape.steps[t], CutVertex.PREACTIVATION)
               for t in range(2)]
        betas = [np.sqrt(np.linalg.norm(tape.steps[t].a) / np.linalg.norm(jzt[t]))
                 for t in range(2)]
        np.testing.assert_allclose(report.realized_beta, betas, rtol=1e-10)
        tau = noise.tau
        fwd = dense_state_jacobian(tape.steps[1]) @ (betas[0] * tau[0] * jzt[0])
        w_tilde = tau[0] / betas[0] * tape.steps[0].a
        assert report.realized_gamma[0] == 1.0
        assert report.realized_gamma[1]**2 == pytest.approx(
            np.linalg.norm(w_tilde) / np.linalg.norm(fwd), rel=1e-10
        )

    def test_single_step_sign_noise_is_exact(self):
        rng = np.random.default_rng(55)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=1)
        tape = run_episode(params, inputs, targets, head)
        exact = bptt_gradient(tape).g
        for i in range(5):
            noise = episode_noise(56, i, 1, 4, tau_kind="sign")
            report = run_preuoro(tape, noise, fixed_schedule(1))
            np.testing.assert_allclose(report.estimate, exact, atol=1e-12)

    def test_mc_mean_matches_exact_gradient(self):
        rng = np.random.default_rng(57)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=5)
        tape = run_episode(params, inputs, targets, head)
        exact = bptt_gradient(tape).g
        schedule = fixed_schedule(5)
        n = 20000
        total = np.zeros(params.num_params)
        total_sq = np.zeros(params.num_params)
        for i in range(n):
            noise = episode_noise(58, i, 5, 4)
            est = run_preuoro(tape, noise, schedule).estimate
            total += est
            total_sq += est * est
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean**2, 0) / n)
        z = np.abs(mean - exact) / np.maximum(se, 1e-12)
        assert z.max() < 4.5

    def test_rejects_q0(self):
        # Q0 is legal on the schedule itself; the projection-free sketch rejects it
        rng = np.random.default_rng(59)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=1)
        tape = run_episode(params, inputs, targets, head)
        schedule = ScalingSchedule(FIXED_ALPHA, Q0=np.eye(3), alpha=np.ones(1))
        with pytest.raises(ValueError, match="Q0"):
            run_preuoro(tape, episode_noise(59, 0, 1, 3), schedule)


class TestSpatial:
    def test_mc_mean_matches_exact_gradient(self):
        rng = np.random.default_rng(60)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        exact = bptt_gradient(tape).g
        n = 8000
        total = np.zeros(params.num_params)
        total_sq = np.zeros(params.num_params)
        for i in range(n):
            noise = episode_noise(61, i, 4, 3)
            est = run_spatial(tape, CutVertex.PREACTIVATION, noise).estimate
            total += est
            total_sq += est * est
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean**2, 0) / n)
        z = np.abs(mean - exact) / np.maximum(se, 1e-12)
        assert z.max() < 4.5


class TestReinforce:
    def test_constant_loss_gives_zero_mean(self):
        rng = np.random.default_rng(62)
        params, inputs, _, _ = make_instance(rng, hidden=3, length=3)

        targets = [0, 0, 0]
        n = 4000
        total = np.zeros(params.num_params)
        total_sq = np.zeros(params.num_params)
        for i in range(n):
            noise = episode_noise(63, i, 3, 3)
            est = reinforce_episode(params, inputs, targets, ConstantHead(),
                                    sigma=0.5, noise=noise,
                                    baseline="none").estimate
            total += est
            total_sq += est * est
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean**2, 0) / n)
        z = np.abs(mean) / np.maximum(se, 1e-12)
        assert z.max() < 4.5

    def test_rejects_nonpositive_sigma(self):
        rng = np.random.default_rng(64)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=2)
        noise = episode_noise(65, 0, 2, 3)
        with pytest.raises(ValueError):
            reinforce_episode(params, inputs, targets, head, sigma=0.0, noise=noise)

    def test_noise_dim_checked(self):
        rng = np.random.default_rng(66)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=2)
        noise = episode_noise(67, 0, 2, 5)
        with pytest.raises(ShapeError):
            reinforce_episode(params, inputs, targets, head, sigma=0.1, noise=noise)


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(68)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=5)
        tape = run_episode(params, inputs, targets, head)
        schedule = ScalingSchedule(GIR)
        a = run_uoro(tape, CutVertex.PREACTIVATION,
                     episode_noise(70, 4, 5, 4), schedule)
        b = run_uoro(tape, CutVertex.PREACTIVATION,
                     episode_noise(70, 4, 5, 4), schedule)
        np.testing.assert_array_equal(a.estimate, b.estimate)


class TestReinforceTargets:
    """The list form of the targets and the Targets pair give one result."""

    @pytest.mark.parametrize("masked", [False, True], ids=["every-step", "masked"])
    def test_list_and_targets_pair_agree(self, masked):
        rng = np.random.default_rng(71)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=5)
        if masked:
            targets[1] = None
        noise = episode_noise(72, 0, 5, 3)
        pair = rnn.episode_targets(targets, (), 5)
        assert pair.mask.sum() == (4 if masked else 5)
        for baseline in ("noise-free", "none"):
            from_list = reinforce_episode(params, inputs, targets, head, 0.1, noise,
                                          baseline=baseline).estimate
            from_pair = reinforce_episode(params, inputs, pair, head, 0.1, noise,
                                          baseline=baseline).estimate
            np.testing.assert_array_equal(from_list, from_pair)

    def test_batched_list_and_targets_pair_agree(self):
        rng = np.random.default_rng(73)
        params, _, _, head = make_instance(rng, hidden=3, length=4)
        inputs = rng.standard_normal((3, 4, params.input_size))
        targets = [[int(rng.integers(3)) for _ in range(4)] for _ in range(3)]
        targets[2][0] = None
        block = episode_noises(74, range(3), 4, 3)
        pair = rnn.episode_targets(targets, (3,), 4)
        from_list = reinforce_episode(params, inputs, targets, head, 0.1, block).estimate
        from_pair = reinforce_episode(params, inputs, pair, head, 0.1, block).estimate
        np.testing.assert_array_equal(from_list, from_pair)
