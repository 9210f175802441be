import warnings

import numpy as np
import pytest

from uorolab import variance
from uorolab.errors import ShapeError, SingularMatrixError, UnsupportedCutError
from uorolab.estimators import (
    FIXED_ALPHA,
    GIR,
    ScalingSchedule,
    alpha_to_beta_gamma,
    run_preuoro,
    run_uoro,
)
from uorolab.exact import bptt_gradient, suffix_rows
from uorolab.linalg import psd_frac_power, trace
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import LSTM, VANILLA_TANH, CutVertex, run_episode
from uorolab.training import SEED_BLOCK
from uorolab.variance import (
    alpha_closed_form_rank1,
    check_minimizer,
    compute_B,
    compute_B_partial,
    compute_C,
    covariance_closed,
    covariance_closed_trace,
    empirical_variance,
    estimate_B_online,
    minimal_trace_product,
    minimize_trace_product,
    offline_total_estimate,
    optimal_Q0,
    predicted_VQ,
    quartic_moment_closed,
    solve_alpha_newton,
    trace_product_c,
)

from helpers import (
    EpisodeTensors,
    balanced_alpha,
    dense_theta_jacobians,
    episode_tensors_oracle,
    greedy_coefficients,
    make_instance,
    minst_B,
    newton_allocating_oracle,
    newton_oracle,
    offline_total_estimate_oracle,
    online_B_replay,
    predicted_VQ_oracle,
    row_rel,
)


def draw_u(rng, n, dim, kappa):
    if kappa == 0.0:
        return rng.standard_normal((n, dim))
    assert kappa == -2.0
    return rng.integers(0, 2, size=(n, dim)) * 2.0 - 1.0


def random_pd(rng, n, floor=0.5):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


def make_tensors(seed, hidden=3, length=4, cut=CutVertex.PREACTIVATION, **kw):
    rng = np.random.default_rng(seed)
    params, inputs, targets, head = make_instance(rng, hidden=hidden, length=length, **kw)
    tape = run_episode(params, inputs, targets, head)
    return tape, episode_tensors_oracle(tape, cut)


def make_rows(seed, hidden=3, length=4, cut=CutVertex.PREACTIVATION, **kw):
    """(tape, rows, tensors): the instance of make_tensors, its suffix rows,
    and its dense tensors, whose b the oracles read."""
    tape, tensors = make_tensors(seed, hidden, length, cut, **kw)
    return tape, suffix_rows(tape, cut), tensors


class TestQuarticMoment:
    def test_identity_gaussian(self):
        out = quartic_moment_closed(np.eye(3), np.eye(3), np.eye(3), np.eye(3), 0.0)
        np.testing.assert_allclose(out, 5.0 * np.eye(3), atol=1e-14)

    def test_identity_sign_noise(self):
        out = quartic_moment_closed(np.eye(3), np.eye(3), np.eye(3), np.eye(3), -2.0)
        np.testing.assert_allclose(out, 3.0 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("kappa", [0.0, -2.0])
    def test_against_monte_carlo(self, kappa):
        rng = np.random.default_rng(71)
        d = 4
        a, b, c, dd = (rng.standard_normal((d, d)) for _ in range(4))
        closed = quartic_moment_closed(a, b, c, dd, kappa)
        n = 200000
        u = draw_u(rng, n, d, kappa)
        s = np.einsum("ni,ij,nj->n", u, b @ c, u)
        mean = a @ (np.einsum("n,ni,nj->ij", s, u, u) / n) @ dd
        second = np.einsum("n,ni,nj->ij", s * s, u * u, u * u) / n
        # elementwise standard error of A (s u u^T) D is bounded by the SE of
        # the inner matrix propagated through |A|, |D|
        inner_se = np.sqrt(
            np.maximum(second - (np.einsum("n,ni,nj->ij", s, u, u) / n) ** 2, 0) / n
        )
        se = np.abs(a) @ inner_se @ np.abs(dd) + 1e-12
        z = np.abs(closed - mean) / se
        assert z.max() < 4.0


class TestCovarianceClosed:
    def test_orthogonal_vectors_identity_maps(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 2.0])
        out = covariance_closed(x, y, np.eye(2), np.eye(2), 0.0)
        # orthogonal vectors leave only the rank-one cross term y x^T
        np.testing.assert_allclose(out, np.outer(y, x), atol=1e-14)

    def test_equal_basis_vectors(self):
        e1 = np.array([1.0, 0.0, 0.0])
        out = covariance_closed(e1, e1, np.eye(3), np.eye(3), 0.0)
        np.testing.assert_allclose(out, np.eye(3) + np.outer(e1, e1), atol=1e-14)

    @pytest.mark.parametrize("kappa", [0.0, -2.0])
    def test_against_monte_carlo(self, kappa):
        rng = np.random.default_rng(72)
        d = 3
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        v, w = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        closed = covariance_closed(x, y, v, w, kappa)
        n = 200000
        u = draw_u(rng, n, d, kappa)
        left = (u @ x)[:, None] * (u @ v)  # rows: x^T u u^T V
        right = (u @ y)[:, None] * (u @ w)
        prod = np.einsum("ni,nj->ij", left, right) / n
        mean_cov = prod - np.outer(x @ v, y @ w)
        second = np.einsum("ni,nj->ij", left**2, right**2) / n
        se = np.sqrt(np.maximum(second - prod**2, 0) / n) + 1e-12
        z = np.abs(closed - mean_cov) / se
        assert z.max() < 4.5
        assert covariance_closed_trace(x, y, v, w, kappa) == pytest.approx(
            trace(closed), rel=1e-12
        )


class TestComputeC:
    def test_zero_adjoints_give_zero(self):
        _, rows, _ = make_rows(73)
        rows.rows[:] = 0.0
        np.testing.assert_array_equal(compute_C(rows), np.zeros((4, 4)))

    def test_single_step(self):
        _, rows, tensors = make_rows(74, length=1)
        c = compute_C(rows)
        b11 = tensors.b[0, 0]
        expected = (b11 @ b11) * tensors.theta_frob_sq(0)
        assert c[0, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("use_q0", [False, True])
    def test_brute_force_four_fold_sum(self, use_q0):
        rng = np.random.default_rng(75)
        _, rows, tensors = make_rows(75, hidden=3, length=4)
        q0 = None
        qq = np.eye(3)
        if use_q0:
            q0 = random_pd(rng, 3, floor=1.0)
            qq = q0 @ q0.T
        qq_inv = np.linalg.inv(qq)
        t_len = 4
        j_dense = [
            np.kron(np.eye(3), tensors.a[s][None, :]) for s in range(t_len)
        ]
        brute = np.zeros((t_len, t_len))
        for q in range(t_len):
            for r in range(t_len):
                for s in range(t_len):
                    for t in range(t_len):
                        if s < q or t < q:
                            continue  # the truncation blocks S_q
                        left = trace(np.outer(tensors.b[s, r], tensors.b[t, r]) @ qq)
                        right = trace(j_dense[q] @ j_dense[q].T @ qq_inv)
                        brute[q, r] += left * right
        np.testing.assert_allclose(compute_C(rows, q0), brute, rtol=1e-9, atol=1e-12)

    def test_precomputed_inverse_gives_same_C(self):
        rng = np.random.default_rng(94)
        _, rows, _ = make_rows(94)
        q0 = random_pd(rng, 3)
        np.testing.assert_array_equal(
            compute_C(rows, q0, np.linalg.inv(q0)), compute_C(rows, q0))

    def test_singular_q0_rejected(self):
        _, rows, _ = make_rows(76)
        with pytest.raises(SingularMatrixError):
            compute_C(rows, np.zeros((3, 3)))

    @pytest.mark.parametrize("name", ["compute_C", "offline_total_estimate",
                                      "predicted_VQ"])
    def test_ill_conditioned_q0_rejected_like_schedule(self, name):
        """A Q0 beyond estimators.MAX_Q0_CONDITION, which ScalingSchedule and
        reinforce_episode refuse, is refused by the variance functions too,
        not inverted into entries near 1e18."""
        _, rows, _ = make_rows(76)
        q0 = np.diag([1.0, 1e-9, 1.0])
        with pytest.raises(SingularMatrixError, match="condition"):
            ScalingSchedule(GIR, Q0=q0)
        calls = {
            "compute_C": lambda: compute_C(rows, q0),
            "offline_total_estimate": lambda: offline_total_estimate(
                rows, np.ones((4, 3)), np.ones(4), q0),
            "predicted_VQ": lambda: predicted_VQ(rows, np.ones(4), q0),
        }
        with pytest.raises(SingularMatrixError, match="condition"):
            calls[name]()


class TestAlphaNewton:
    def test_symmetric_c_already_stationary(self):
        rng = np.random.default_rng(77)
        m = rng.uniform(0.5, 2.0, size=(6, 6))
        c = m + m.T
        sol = solve_alpha_newton(c)
        np.testing.assert_allclose(sol.zeta, np.zeros(6), atol=1e-9)
        assert sol.converged

    def test_rank_one_recovers_closed_form(self):
        # separable objective (sum_r m_r a_r^2)(sum_q n_q / a_q^2)
        m = np.array([1.0, 4.0])
        n = np.array([1.0, 1.0])
        c = np.outer(n, m)
        sol = solve_alpha_newton(c)
        assert sol.alpha[1] / sol.alpha[0] == pytest.approx(0.25**0.25, rel=1e-8)
        assert sol.alpha[1] / sol.alpha[0] == pytest.approx(0.70711, abs=1e-5)

    def test_objective_not_worse_than_uniform(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            c = rng.uniform(0.1, 3.0, size=(10, 10))
            sol = solve_alpha_newton(c)
            uniform = float(np.sum(c))
            assert sol.objective <= uniform + 1e-9 * uniform

    def test_residual_criterion(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            c = rng.uniform(0.05, 5.0, size=(8, 8))
            sol = solve_alpha_newton(c)
            assert sol.converged
            assert sol.residual <= 1e-8  # relative to max entry of C

    def test_hessian_is_psd(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            c = rng.uniform(0.0, 1.0, size=(7, 7))
            zeta = rng.standard_normal(7)
            cbar = c * np.exp(zeta[None, :] - zeta[:, None])
            s = cbar + cbar.T
            hess = np.diag(s.sum(axis=1)) - s
            for _ in range(5):
                v = rng.standard_normal(7)
                assert v @ hess @ v >= -1e-12

    def test_diagonal_similarity_shifts_solution(self):
        rng = np.random.default_rng(81)
        c = rng.uniform(0.2, 2.0, size=(5, 5))
        d = rng.uniform(0.5, 2.0, size=5)
        c_scaled = c / d[:, None] * d[None, :]  # D^{-1} C D
        base = solve_alpha_newton(c)
        moved = solve_alpha_newton(c_scaled)
        shift = moved.zeta + np.log(d) - base.zeta
        assert np.ptp(shift) < 1e-6  # constant vector: pure gauge

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_alpha_newton(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            solve_alpha_newton(-np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_c_before_any_work(self, bad):
        c = np.ones((3, 3))
        c[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="C must be finite"):
                solve_alpha_newton(c)


class TestAlphaNewtonStoppingRule:
    def test_unresolvable_decrement_counts_as_converged(self):
        # Newton reaches a gradient of ~1e-7 here, where the objective can no
        # longer resolve the step; the solve must stop there, converged.
        rng = np.random.default_rng(21)
        c = np.exp(rng.uniform(np.log(0.139), np.log(266), (28, 28)))
        sol = solve_alpha_newton(c)
        assert sol.converged
        assert sol.iterations < 200
        reference = balanced_alpha(c)
        log_ratio = np.log(sol.alpha / reference)
        assert np.max(np.abs(np.expm1(log_ratio - log_ratio.mean()))) <= 1e-6


def newton_exit_cases():
    """(name, C) reaching each exit of solve_alpha_newton: the tolerance, the
    decrement the objective cannot resolve, a line search that finds no
    descent (the test makes every trial's objective NaN, as the solver
    refuses a C with a NaN entry), a 1 x 1 C (stationary at once) and a
    rank-one C."""
    tolerance = np.random.default_rng(0).uniform(0.05, 5.0, size=(8, 8))
    resolved = np.exp(np.random.default_rng(21).uniform(
        np.log(0.139), np.log(266), (28, 28)))
    stalled = np.arange(1.0, 10.0).reshape(3, 3)
    rng = np.random.default_rng(0)
    rank_one = np.outer(rng.uniform(0.5, 4.0, size=6), rng.uniform(0.5, 4.0, size=6))
    return [("tolerance", tolerance), ("resolved", resolved), ("stalled", stalled),
            ("one-by-one", np.array([[2.5]])), ("rank-one", rank_one)]


class TestAlphaNewtonOracle:
    """solve_alpha_newton keeps the matrix its line search accepted instead of
    rescaling C again; every field of its solution is the oracle's (the solver
    that rescaled at each iteration head), bit for bit, at every exit."""

    @pytest.mark.parametrize("name,c", newton_exit_cases(),
                             ids=[name for name, _ in newton_exit_cases()])
    def test_solution_and_rescales_match_the_oracle(self, monkeypatch, name, c):
        calls = []

        def rescaled(matrix, zeta, out=None):
            calls.append(None)
            if name == "stalled" and zeta.any():  # a trial step: no descent
                return np.full_like(matrix, np.nan)
            return rescale(matrix, zeta, out)

        rescale = variance._rescaled
        monkeypatch.setattr(variance, "_rescaled", rescaled)
        expected = newton_oracle(c)
        oracle_calls = len(calls)
        calls.clear()
        solution = solve_alpha_newton(c)
        for field in ("zeta", "alpha", "residual", "objective", "iterations",
                      "converged"):
            got, want = getattr(solution, field), getattr(expected, field)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field
        # the oracle rescales once per iteration head, once per line-search
        # trial and once after the loop
        trials = oracle_calls - expected.iterations - 1
        resolved = name == "resolved"  # its full step is a trial without search
        assert len(calls) == 1 + trials + resolved
        exits = {"tolerance": solution.residual <= variance.NEWTON_TOL and trials > 0,
                 "resolved": solution.converged and trials > 0,
                 "stalled": not solution.converged and solution.iterations == 1
                 and trials == 50,
                 "one-by-one": solution.iterations == 1 and trials == 0,
                 "rank-one": solution.residual <= variance.NEWTON_TOL}
        assert exits[name]


class TestAlphaClosedForm:
    def test_equal_vectors_give_ones(self):
        np.testing.assert_array_equal(
            alpha_closed_form_rank1(np.array([2.0, 3.0]), np.array([2.0, 3.0])),
            np.ones(2),
        )

    def test_fourth_root(self):
        out = alpha_closed_form_rank1(np.array([1.0, 16.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.5], atol=1e-14)

    def test_newton_agreement(self):
        rng = np.random.default_rng(82)
        m = rng.uniform(0.5, 4.0, size=6)
        n = rng.uniform(0.5, 4.0, size=6)
        closed = alpha_closed_form_rank1(m, n)
        sol = solve_alpha_newton(np.outer(n, m))
        np.testing.assert_allclose(
            sol.alpha / sol.alpha[0], closed / closed[0], rtol=1e-6
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha_closed_form_rank1(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestGreedyCoefficients:
    def test_beta_identity_for_identity_q0(self):
        tape, tensors = make_tensors(83, hidden=3, length=4)
        beta, _ = greedy_coefficients(tensors, tape.steps)
        for s in range(4):
            own = tensors.b[s, s]
            expected = (3 * tensors.a_norms[s] ** 2 / (own @ own)) ** 0.25
            assert beta[s] == pytest.approx(expected, rel=1e-10)

    def test_first_gamma_falls_back_to_one(self):
        tape, tensors = make_tensors(84)
        _, gamma = greedy_coefficients(tensors, tape.steps)
        assert gamma[0] == 1.0

    def test_direct_sum_oracle_at_t3(self):
        tape, tensors = make_tensors(85, hidden=3, length=3)
        beta, gamma = greedy_coefficients(tensors, tape.steps)
        w = np.array([tensors.theta_frob_sq(q) for q in range(3)])
        # step 3 (index 2): overall_q = beta_q * gamma_{q+1..2}
        overall = np.array([beta[0] * gamma[1], beta[1], 0.0])
        num = w[0] / overall[0] ** 2 + w[1] / overall[1] ** 2
        den = overall[0] ** 2 * (tensors.b[2, 0] @ tensors.b[2, 0]) + \
            overall[1] ** 2 * (tensors.b[2, 1] @ tensors.b[2, 1])
        assert gamma[2] == pytest.approx((num / den) ** 0.25, rel=1e-10)


class TestComputeB:
    def test_zero_adjoints(self):
        _, rows, _ = make_rows(86)
        rows.rows[:] = 0.0
        np.testing.assert_array_equal(
            compute_B(rows, np.ones(4)), np.zeros((3, 3))
        )

    def test_single_step(self):
        _, rows, tensors = make_rows(87, length=1)
        b = compute_B(rows, np.ones(1))
        expected = tensors.a_norms[0] ** 2 * np.outer(tensors.b[0, 0], tensors.b[0, 0])
        np.testing.assert_allclose(b, expected, atol=1e-12)

    def test_dual_formulas_agree(self):
        rng = np.random.default_rng(88)
        _, rows, tensors = make_rows(88, hidden=3, length=4)
        alpha = rng.uniform(0.5, 2.0, size=4)
        qr = compute_B(rows, alpha)
        minst = minst_B(tensors, alpha)
        scale = max(np.abs(qr).max(), 1e-12)
        assert np.abs(qr - minst).max() <= 1e-9 * scale

    def test_partial_at_full_length_is_B(self):
        rng = np.random.default_rng(91)
        _, rows, _ = make_rows(91, hidden=3, length=5)
        alpha = rng.uniform(0.5, 2.0, size=5)
        full = compute_B(rows, alpha)
        partial = compute_B_partial(rows, alpha, 5)
        assert np.abs(partial - full).max() <= 1e-12 * np.abs(full).max()

    def test_lstm_matches_minst_and_double_loop(self):
        rng = np.random.default_rng(92)
        _, rows, tensors = make_rows(92, hidden=50, length=5, cell_kind=LSTM)
        assert tensors.cut_dim == 200
        alpha = rng.uniform(0.5, 2.0, size=5)
        a_sq = tensors.a_norms**2
        brute = np.zeros((200, 200))
        for q in range(5):
            for r in range(5):
                v = tensors.b[q:, r].sum(axis=0)
                brute += (alpha[r] ** 2 / alpha[q] ** 2) * a_sq[q] * np.outer(v, v)
        scale = np.abs(brute).max()
        assert np.abs(compute_B(rows, alpha) - brute).max() <= 1e-12 * scale
        minst = minst_B(tensors, alpha)
        assert np.abs(minst - brute).max() <= 1e-12 * scale

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_partial_is_minst_B_of_truncated_episode(self, k):
        rng = np.random.default_rng(93)
        _, rows, tensors = make_rows(93, hidden=3, length=6)
        alpha = rng.uniform(0.5, 2.0, size=6)
        truncated = EpisodeTensors(cut=tensors.cut, b=tensors.b[:k, :k],
                                   a=tensors.a[:k], a_norms=tensors.a_norms[:k])
        expected = minst_B(truncated, alpha[:k])
        partial = compute_B_partial(rows, alpha, k)
        assert np.abs(partial - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_result_is_psd(self):
        _, rows, _ = make_rows(89, hidden=4, length=5)
        b = compute_B(rows, np.ones(5))
        eigs = np.linalg.eigvalsh(b)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    def test_requires_preactivation_cut(self):
        _, rows, _ = make_rows(90, cut=CutVertex.STATE)
        with pytest.raises(UnsupportedCutError):
            compute_B(rows, np.ones(4))


class TestOptimalQ0:
    def test_identity(self):
        np.testing.assert_allclose(optimal_Q0(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_fourth_root(self):
        out = optimal_Q0(np.diag([1.0, 16.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-12)
        b = np.diag([1.0, 16.0])
        v_opt = trace(psd_frac_power(b, 0.5)) ** 2
        assert v_opt == pytest.approx(25.0, rel=1e-12)
        assert v_opt <= trace(b) * 2

    def test_stationarity_identity(self):
        rng = np.random.default_rng(91)
        b = random_pd(rng, 5)
        q0 = optimal_Q0(b)
        qq = q0 @ q0.T
        lhs = b @ qq
        rhs = np.linalg.inv(qq)
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()

    def test_damping_blends_toward_identity(self):
        b = np.diag([1.0, 100.0])
        undamped = optimal_Q0(b)
        damped = optimal_Q0(b, damping=100.0)
        ratio_u = undamped[0, 0] / undamped[1, 1]
        ratio_d = damped[0, 0] / damped[1, 1]
        assert abs(ratio_d - 1.0) < abs(ratio_u - 1.0)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            b = random_pd(rng, n, floor=0.1)
            lhs = trace(psd_frac_power(b, 0.5)) ** 2
            rhs = trace(b) * n
            assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_b_bar(self, bad):
        b = np.eye(3)
        b[0, 2] = b[2, 0] = bad
        with pytest.raises(ValueError, match="b_bar must be finite"):
            optimal_Q0(b)


class TestPredictedVQ:
    def test_zero_gradients(self):
        _, rows, _ = make_rows(93)
        rows.rows[:] = 0.0
        assert predicted_VQ(rows, np.ones(4)) == 0.0

    def test_identity_q0_is_trace_times_dim(self):
        _, rows, _ = make_rows(94, hidden=4, length=5)
        alpha = np.ones(5)
        b = compute_B(rows, alpha)
        assert predicted_VQ(rows, alpha) == pytest.approx(trace(b) * 4, rel=1e-12)

    @pytest.mark.parametrize("use_q0", [False, True])
    def test_equals_the_trace_pair_of_B(self, use_q0):
        """At the preactivation cut the alpha objective at Q0 is
        tr(B Q0 Q0^T) tr((Q0 Q0^T)^{-1}), the form Q0 minimizes, and the
        double time sum over the tensors' b with dense J_theta."""
        rng = np.random.default_rng(95)
        tape, rows, tensors = make_rows(95, hidden=3, length=5)
        alpha = rng.uniform(0.5, 2.0, size=5)
        q0 = random_pd(rng, 3, floor=1.0) if use_q0 else None
        qq = np.eye(3) if q0 is None else q0 @ q0.T
        value = predicted_VQ(rows, alpha, q0)
        pair = trace(compute_B(rows, alpha) @ qq) * trace(np.linalg.inv(qq))
        assert value == pytest.approx(pair, rel=1e-12)
        assert value == pytest.approx(
            predicted_VQ_oracle(tensors, tape.steps, alpha, q0), rel=1e-12)

    def test_projection_free_prediction_is_uoro_over_cut_dim(self):
        rng = np.random.default_rng(96)
        _, rows, _ = make_rows(96, hidden=4, length=5)
        alpha = rng.uniform(0.5, 2.0, size=5)
        uoro = predicted_VQ(rows, alpha)
        pre = trace(compute_B(rows, alpha))
        assert uoro / pre == pytest.approx(4.0, rel=1e-12)

    def test_supports_the_state_cut(self):
        tape, rows, tensors = make_rows(97, cut=CutVertex.STATE)
        v = predicted_VQ(rows, np.ones(4))
        assert v > 0
        assert v == pytest.approx(
            predicted_VQ_oracle(tensors, tape.steps, np.ones(4)), rel=1e-12)

    @pytest.mark.parametrize("use_q0", [False, True])
    def test_at_the_state_cut_against_dense_jacobians(self, use_q0):
        """The double time sum with its weights ||Q0^{-1} J_q||_F^2 taken
        from J_q formed densely from the tape's steps."""
        rng = np.random.default_rng(98)
        tape, rows, tensors = make_rows(98, cut=CutVertex.STATE)
        alpha = rng.uniform(0.5, 2.0, size=4)
        q0 = random_pd(rng, 3, floor=1.0) if use_q0 else np.eye(3)
        q0_inv = np.linalg.inv(q0)
        weights = [np.sum((q0_inv @ j) ** 2)
                   for j in dense_theta_jacobians(tape.steps, CutVertex.STATE)]
        shaped = tensors.b @ q0
        expected = sum(
            alpha[r] ** 2 * (shaped[t, r] @ shaped[s, r])
            * sum(weights[q] / alpha[q] ** 2 for q in range(min(s, t) + 1))
            for s in range(4) for t in range(4) for r in range(4))
        value = predicted_VQ(rows, alpha, q0 if use_q0 else None)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_alpha_of_another_length_refused(self):
        _, rows, _ = make_rows(99)
        with pytest.raises(ShapeError, match="alpha"):
            predicted_VQ(rows, np.ones(5))


class TestTraceProduct:
    def test_identity_example(self):
        c = trace_product_c(np.eye(3), np.eye(3), np.eye(3))
        assert c == pytest.approx(9.0)
        assert check_minimizer(np.eye(3), np.eye(3), np.eye(3))
        assert minimal_trace_product(np.eye(3), np.eye(3)) == pytest.approx(9.0)

    def test_diagonal_example(self):
        x = np.diag([1.0, 4.0])
        y = np.eye(2)
        a = psd_frac_power(x, -0.5)
        assert trace_product_c(a, x, y) == pytest.approx(9.0, rel=1e-12)
        assert check_minimizer(a, x, y)
        assert minimal_trace_product(x, y) == pytest.approx(9.0, rel=1e-12)

    def test_constructed_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(98)
        x = random_pd(rng, 4)
        y = random_pd(rng, 4)
        a_star = minimize_trace_product(x, y)
        assert check_minimizer(a_star, x, y)
        c_min = trace_product_c(a_star, x, y)
        assert c_min == pytest.approx(minimal_trace_product(x, y), rel=1e-8)
        for _ in range(100):
            perturbation = 0.1 * rng.standard_normal((4, 4))
            candidate = a_star + perturbation @ perturbation.T
            assert trace_product_c(candidate, x, y) >= c_min - 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(99)
        x = random_pd(rng, 3)
        y = random_pd(rng, 3)
        a = random_pd(rng, 3)
        for factor in (0.1, 2.0, 37.5):
            assert trace_product_c(factor * a, x, y) == pytest.approx(
                trace_product_c(a, x, y), rel=1e-10
            )

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            trace_product_c(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))


class TestAlphaToBetaGamma:
    def test_constant_alpha(self):
        beta, gamma = alpha_to_beta_gamma(np.full(4, 2.5))
        np.testing.assert_allclose(gamma, np.ones(3), atol=1e-15)
        np.testing.assert_allclose(beta, np.full(4, 2.5), atol=1e-15)

    def test_geometric_example(self):
        beta, gamma = alpha_to_beta_gamma(np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(gamma, [2.0, 2.0], atol=1e-15)
        assert beta[0] * gamma[0] * gamma[1] == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(100)
        alpha = rng.uniform(0.2, 5.0, size=7)
        beta, gamma = alpha_to_beta_gamma(alpha)
        for s in range(7):
            rebuilt = np.log(beta[s]) + np.sum(np.log(gamma[s:]))
            assert rebuilt == pytest.approx(np.log(alpha[s]), abs=1e-12)

    def test_single_step(self):
        beta, gamma = alpha_to_beta_gamma(np.array([3.0]))
        assert gamma.size == 0
        np.testing.assert_array_equal(beta, [3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_alpha(self, bad):
        with pytest.raises(ValueError, match="alpha entries must be finite"):
            alpha_to_beta_gamma(np.array([1.0, bad, 1.0]))


def fixed_alpha(alpha):
    return ScalingSchedule(FIXED_ALPHA, alpha=alpha)


class TestOnlineB:
    def test_zero_losses_give_zero(self):
        rng = np.random.default_rng(101)
        params, inputs, targets, head = make_instance(rng, hidden=2, length=3)
        tape = run_episode(params, inputs, targets, head)
        tape.loss_grads[:] = 0.0
        noise = episode_noise(102, 0, 3, 2)
        estimates = estimate_B_online(tape, noise, fixed_alpha(np.ones(3)))
        np.testing.assert_array_equal(estimates, np.zeros((3, 2, 2)))

    def test_unit_coefficients_accumulate_a_norms(self):
        """The step-by-step oracle's a~ is sum_t sigma_t ||a_t|| under unit
        coefficients, and the estimator's every step equals the oracle's."""
        rng = np.random.default_rng(103)
        params, inputs, targets, head = make_instance(rng, hidden=2, length=4)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(104, 0, 4, 2)
        schedule = fixed_alpha(np.ones(4))
        replayed, a_tilde = online_B_replay(tape, noise, schedule)
        expected = float(np.sum(noise.sigma * np.linalg.norm(tape.steps.a, axis=-1)))
        assert a_tilde == pytest.approx(expected, rel=1e-12)
        estimates = estimate_B_online(tape, noise, schedule)
        assert row_rel(estimates.reshape(4, -1), replayed.reshape(4, -1)) <= 1e-12

    @pytest.mark.parametrize("eta_zeta", ["ones", "gir"])
    @pytest.mark.parametrize("cell", [VANILLA_TANH, LSTM])
    def test_rows_match_views_and_replay(self, cell, eta_zeta):
        """Each row of a batched call, B episodes of a batched tape under a
        (T, B) alpha or B seeds on one tape, equals the call on that row's
        EpisodeNoise view and the step-by-step oracle, to 1e-12."""
        rng = np.random.default_rng(110)
        params, _, _, head = make_instance(rng, cell_kind=cell, hidden=3, length=5)
        n_z = params.preactivation_size
        inputs = rng.standard_normal((3, 5, params.input_size))
        targets = [[int(rng.integers(3)) for _ in range(5)] for _ in range(3)]
        batched = run_episode(params, inputs, targets, head)
        alpha = rng.uniform(0.5, 2.0, (5, 3))
        layouts = [
            (batched, episode_noises(111, range(3), 5, n_z),
             ScalingSchedule(GIR).with_alpha(alpha), batched.episode,
             lambda j: fixed_alpha(alpha[:, j])),
            (batched.episode(0), episode_noises(112, range(4), 5, n_z, "gaussian"),
             fixed_alpha(alpha[:, 0]), lambda j: batched.episode(0),
             lambda j: fixed_alpha(alpha[:, 0])),
        ]
        for tape, block, schedule, episode, row_schedule in layouts:
            estimates = estimate_B_online(tape, block, schedule, eta_zeta)
            assert estimates.shape == (5, len(block), n_z, n_z)
            for j, view in enumerate(block):
                rows = estimates[:, j].reshape(5, -1)
                one = estimate_B_online(episode(j), view, row_schedule(j), eta_zeta)
                replayed, _ = online_B_replay(episode(j), view, row_schedule(j),
                                              eta_zeta)
                assert row_rel(rows, one.reshape(5, -1)) <= 1e-12, (j, "view")
                assert row_rel(rows, replayed.reshape(5, -1)) <= 1e-12, (j, "replay")

    def test_rejects_bad_schedules_and_modes(self):
        rng = np.random.default_rng(113)
        params, inputs, targets, head = make_instance(rng, hidden=2, length=3)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(114, 0, 3, 2)
        for schedule in (ScalingSchedule(GIR),
                         ScalingSchedule(FIXED_ALPHA, Q0=np.eye(2), alpha=np.ones(3))):
            with pytest.raises(ValueError, match="fixed-alpha"):
                estimate_B_online(tape, noise, schedule)
        with pytest.raises(ValueError, match="eta/zeta"):
            estimate_B_online(tape, noise, fixed_alpha(np.ones(3)), "greedy")
        with pytest.raises(ShapeError, match="alpha"):
            estimate_B_online(tape, noise, fixed_alpha(np.ones(2)))

    @pytest.mark.parametrize("eta_zeta", ["ones", "gir"])
    def test_mc_mean_matches_exact_partial_B(self, eta_zeta):
        rng = np.random.default_rng(105)
        params, inputs, targets, head = make_instance(
            rng, hidden=1, inputs_dim=1, length=2, n_classes=2
        )
        tape = run_episode(params, inputs, targets, head)
        rows = suffix_rows(tape, CutVertex.PREACTIVATION)
        alpha = np.ones(2)
        exact = np.array([compute_B_partial(rows, alpha, k) for k in (1, 2)])
        n = 20000
        sums = np.zeros((2, 1, 1))
        sums_sq = np.zeros((2, 1, 1))
        for start in range(0, n, SEED_BLOCK):
            noises = episode_noises(106, range(start, min(start + SEED_BLOCK, n)), 2, 1)
            estimates = estimate_B_online(tape, noises, fixed_alpha(alpha), eta_zeta)
            sums += estimates.sum(axis=1)
            sums_sq += (estimates ** 2).sum(axis=1)
        mean = sums / n
        se = np.sqrt(np.maximum(sums_sq / n - mean**2, 0) / n)
        z = np.abs(mean - exact) / np.maximum(se, 1e-12)
        for k in range(2):
            assert z[k].max() < 4.0, f"step {k + 1}"


class TestEmpiricalVariance:
    def test_exact_estimator_has_zero_error(self):
        rng = np.random.default_rng(107)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=3)
        tape = run_episode(params, inputs, targets, head)
        exact = bptt_gradient(tape)
        runs = [exact.g.copy() for _ in range(3)]
        out = empirical_variance(runs, exact)
        assert out.actual == 0.0
        assert out.intrinsic == pytest.approx(float(exact.g @ exact.g))

    def test_single_step_sign_preuoro_zero_variance(self):
        rng = np.random.default_rng(108)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=1)
        tape = run_episode(params, inputs, targets, head)
        exact = bptt_gradient(tape)
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(1))
        runs = [
            run_preuoro(tape, episode_noise(109, i, 1, 3, tau_kind="sign"), schedule)
            for i in range(4)
        ]
        out = empirical_variance(runs, exact)
        assert out.actual == pytest.approx(0.0, abs=1e-20)

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            empirical_variance([np.zeros(3)], np.zeros(3))

    def test_measured_vq_tracks_prediction(self):
        rng = np.random.default_rng(110)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=6)
        tape = run_episode(params, inputs, targets, head)
        rows = suffix_rows(tape, CutVertex.PREACTIVATION)
        exact = bptt_gradient(tape)
        alpha = np.ones(6)
        predicted = predicted_VQ(rows, alpha)
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=alpha)
        runs = [
            run_uoro(tape, CutVertex.PREACTIVATION,
                     episode_noise(111, i, 6, 4), schedule)
            for i in range(4000)
        ]
        out = empirical_variance(runs, exact)
        assert out.vq == pytest.approx(predicted, rel=0.15)
        # decomposition: total second moment = V + ||g||^2 (the squared-norm
        # form is the large-scale approximation of the truncated cross sum,
        # hence the loose tolerance)
        assert out.actual == pytest.approx(predicted + out.intrinsic, rel=0.15)

    def test_exact_variance_decomposition(self):
        """The error second moment is exactly V plus the cross sum of
        min(s,t)-truncated per-loss gradients (oracle built here)."""
        rng = np.random.default_rng(113)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=6)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors_oracle(tape, CutVertex.PREACTIVATION)
        exact = bptt_gradient(tape)
        alpha = np.ones(6)
        t_len = 6
        partial = np.zeros((t_len, t_len, params.num_params))
        for t in range(t_len):
            acc = np.zeros(params.num_params)
            for r in range(t_len):
                acc = acc + np.outer(tensors.b[t, r], tensors.a[r]).reshape(-1)
                partial[t, r] = acc
        cross = sum(
            float(partial[s, min(s, t)] @ partial[t, min(s, t)])
            for s in range(t_len) for t in range(t_len)
        )
        expected = predicted_VQ(suffix_rows(tape, CutVertex.PREACTIVATION), alpha) + cross
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=alpha)
        samples = np.array([
            np.sum((run_uoro(tape, CutVertex.PREACTIVATION,
                             episode_noise(114, i, 6, 4), schedule).estimate
                    - exact.g) ** 2)
            for i in range(6000)
        ])
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - expected) < 4 * se


class TestOfflineEstimate:
    def test_zero_noise_gives_zero(self):
        _, rows, _ = make_rows(112)
        out = offline_total_estimate(rows, np.zeros((4, 3)), np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(rows.cut_dim * rows.a.shape[1]))

    @pytest.mark.parametrize("cell,cut", [(VANILLA_TANH, CutVertex.PREACTIVATION),
                                          (VANILLA_TANH, CutVertex.STATE),
                                          (LSTM, CutVertex.PREACTIVATION)])
    @pytest.mark.parametrize("use_q0", [False, True])
    def test_equals_the_b_form(self, cell, cut, use_q0):
        """The suffix-row form equals the b form over the dense adjoints
        (helpers.offline_total_estimate_oracle) to relative 1e-12 of the
        largest entry, for T = 1..8."""
        rng = np.random.default_rng(116)
        for length in range(1, 9):
            tape, rows, tensors = make_rows(int(rng.integers(2**31)), length=length,
                                            cell_kind=cell, cut=cut)
            n_z = rows.cut_dim
            u = rng.standard_normal((length, n_z))
            alpha = rng.uniform(0.3, 3.0, size=length)
            q0 = np.eye(n_z) + 0.4 * rng.standard_normal((n_z, n_z)) if use_q0 else None
            expected = offline_total_estimate_oracle(tensors, u, alpha, q0)
            out = offline_total_estimate(rows, u, alpha, q0)
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_alpha_of_another_length_refused(self):
        _, rows, _ = make_rows(117)
        with pytest.raises(ShapeError, match="alpha shape"):
            offline_total_estimate(rows, np.ones((4, 3)), np.ones(5))

    @pytest.mark.parametrize("cut", [CutVertex.PREACTIVATION, CutVertex.STATE])
    @pytest.mark.parametrize("use_q0", [False, True])
    def test_matches_dense_jacobians(self, cut, use_q0):
        """sum_t (sum_s alpha_s b[t,s]^T Q0 u_s)
        (sum_{r<=t} alpha_r^{-1} u_r^T Q0^{-1} J_r), with each J_r formed
        densely from the tape's steps."""
        rng = np.random.default_rng(115)
        tape, rows, tensors = make_rows(115, cut=cut)
        u = rng.standard_normal((4, 3))
        alpha = rng.uniform(0.5, 2.0, size=4)
        q0 = random_pd(rng, 3, floor=1.0) if use_q0 else np.eye(3)
        terms = np.array([u[r] @ np.linalg.inv(q0) @ j / alpha[r] for r, j in
                          enumerate(dense_theta_jacobians(tape.steps, cut))])
        expected = sum(
            sum(alpha[s] * (tensors.b[t, s] @ q0 @ u[s]) for s in range(4))
            * terms[:t + 1].sum(axis=0) for t in range(4))
        out = offline_total_estimate(rows, u, alpha, q0 if use_q0 else None)
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())


# Inputs of the wrong size for rows of T = 5 steps and cut dim N_z = 4, each
# with the error it must raise: (call on the rows, message naming both shapes).
MISSHAPEN = {
    "B_partial-long-alpha": (lambda rows: compute_B_partial(rows, np.ones(6), 3),
                             r"alpha shape \(6,\) != \(5,\)"),
    "B_partial-short-alpha": (lambda rows: compute_B_partial(rows, np.ones(3), 3),
                              r"alpha shape \(3,\) != \(5,\)"),
    "offline-u-short": (lambda rows: offline_total_estimate(rows, np.ones((4, 4)),
                                                            np.ones(5)),
                        r"u shape \(4, 4\) != \(5, 4\)"),
    "offline-u-long": (lambda rows: offline_total_estimate(rows, np.ones((6, 4)),
                                                           np.ones(5)),
                       r"u shape \(6, 4\) != \(5, 4\)"),
    "offline-u-wide": (lambda rows: offline_total_estimate(rows, np.ones((5, 5)),
                                                           np.ones(5)),
                       r"u shape \(5, 5\) != \(5, 4\)"),
    "C-Q0": (lambda rows: compute_C(rows, np.eye(3)), r"Q0 shape \(3, 3\) != \(4, 4\)"),
    "VQ-Q0": (lambda rows: predicted_VQ(rows, np.ones(5), np.eye(3)),
              r"Q0 shape \(3, 3\) != \(4, 4\)"),
    "offline-Q0": (lambda rows: offline_total_estimate(rows, np.ones((5, 4)),
                                                       np.ones(5), np.eye(3)),
                   r"Q0 shape \(3, 3\) != \(4, 4\)"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_misshapen_input_refused_against_the_rows(monkeypatch, case):
    """alpha, u and Q0 are checked against the rows by one prologue, which
    raises ShapeError naming both shapes before Q0 is inverted or B summed."""
    _, rows, _ = make_rows(118, hidden=4, length=5)
    assert (rows.length, rows.cut_dim) == (5, 4)

    def fail(*args, **kwargs):
        raise AssertionError("work ran before the shapes were checked")

    monkeypatch.setattr(variance, "_checked_q0", fail)
    monkeypatch.setattr(variance, "_qr_B", fail)
    call, message = MISSHAPEN[case]
    with pytest.raises(ShapeError, match=message):
        call(rows)


SOLUTION_FIELDS = ("zeta", "alpha", "residual", "objective", "iterations",
                   "converged")


def assert_same_solution(solution, expected):
    for field in SOLUTION_FIELDS:
        got, want = getattr(solution, field), getattr(expected, field)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field


def digits_shape_cs():
    """The T = 28 C matrices of a block of 4 LSTM episodes at the digits
    shape (H = 50, so N_z = 200), at identity Q0 and at an SPD Q0."""
    rng = np.random.default_rng(230)
    params, _, _, head = make_instance(rng, cell_kind=LSTM, hidden=50, length=28)
    inputs = rng.standard_normal((4, 28, params.input_size))
    targets = [[int(rng.integers(3)) for _ in range(28)] for _ in range(4)]
    rows = suffix_rows(run_episode(params, inputs, targets, head),
                       CutVertex.PREACTIVATION)
    m = rng.standard_normal((rows.cut_dim, rows.cut_dim))
    q0 = np.eye(rows.cut_dim) + m @ m.T / rows.cut_dim
    return [*compute_C(rows), *compute_C(rows, q0)]


class TestAlphaNewtonInPlace:
    """solve_alpha_newton builds its Hessian in place, rescales into two
    alternating buffers and keeps the accepted trial's objective; every
    field of its solution is that of the solver that allocated them
    (helpers.newton_allocating_oracle), bit for bit."""

    def test_digits_shape_solutions_match_the_oracle(self):
        for c in digits_shape_cs():
            assert c.shape == (28, 28)
            assert_same_solution(solve_alpha_newton(c), newton_allocating_oracle(c))

    @pytest.mark.parametrize("name,c", newton_exit_cases(),
                             ids=[name for name, _ in newton_exit_cases()])
    def test_every_exit_matches_the_oracle(self, monkeypatch, name, c):
        rescale = variance._rescaled

        def rescaled(matrix, zeta, out=None):
            if name == "stalled" and zeta.any():  # a trial step: no descent
                return np.full_like(matrix, np.nan)
            return rescale(matrix, zeta, out)

        monkeypatch.setattr(variance, "_rescaled", rescaled)
        expected = newton_allocating_oracle(c)
        assert_same_solution(solve_alpha_newton(c), expected)
        if name == "stalled":
            assert not expected.converged and expected.iterations == 1
