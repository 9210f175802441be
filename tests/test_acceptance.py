"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Tolerances are pinned here and nowhere else.  Monte-Carlo criteria use frozen
base seeds; the noise streams are deterministic, so these tests are exact
reruns, not flaky samplers.
"""

import time

import numpy as np
import pytest

from uorolab import training
from uorolab.config import queue_config
from uorolab.estimators import (
    FIXED_ALPHA,
    ScalingSchedule,
    reinforce_episode,
    run_preuoro,
    run_uoro,
)
from uorolab.exact import bptt_gradient, rtrl_jacobians, suffix_rows
from uorolab.linalg import psd_frac_power, trace
from uorolab.noise import episode_noises
from uorolab.rnn import CutVertex, run_episode
from uorolab.variance import (
    alpha_closed_form_rank1,
    check_minimizer,
    compute_B,
    compute_B_partial,
    compute_C,
    empirical_variance,
    estimate_B_online,
    minimal_trace_product,
    minimize_trace_product,
    moment_lemma_zscores,
    optimal_Q0,
    predicted_VQ,
    solve_alpha_newton,
    trace_product_c,
)

from helpers import finite_difference_gradient, make_instance


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def seed_blocks(n):
    """The seed indices 0..n-1 in ranges of training.SEED_BLOCK."""
    for start in range(0, n, training.SEED_BLOCK):
        yield range(start, min(start + training.SEED_BLOCK, n))


def mc_rows(block_fn, n, dim):
    """n samples drawn training.SEED_BLOCK at a time, as (n, dim) rows:
    block_fn(indices) returns the samples of those seed indices as rows."""
    rows = np.empty((n, dim))
    for seeds in seed_blocks(n):
        rows[seeds.start:seeds.stop] = block_fn(seeds)
    return rows


def mc_stats(block_fn, n, dim):
    """Mean and standard error of n samples drawn as in mc_rows, without
    keeping them."""
    total = np.zeros(dim)
    total_sq = np.zeros(dim)
    for seeds in seed_blocks(n):
        x = block_fn(seeds)
        total += x.sum(axis=0)
        total_sq += np.einsum("ij,ij->j", x, x)
    mean = total / n
    se = np.sqrt(np.maximum(total_sq / n - mean**2, 0.0) / n)
    return mean, se


def noises(base_seed, indices):
    """The noise of the given seed indices on the H=4, T=6 instances, as one
    block."""
    return episode_noises(base_seed, indices, 6, 4)


@pytest.fixture(scope="module")
def h4t6_instance():
    """The frozen H=4, T=6 measurement instance with per-step losses."""
    rng = np.random.default_rng(233)
    params, inputs, targets, head = make_instance(
        rng, hidden=4, length=6, weight_scale=0.45
    )
    tape = run_episode(params, inputs, targets, head)
    rows = suffix_rows(tape, CutVertex.PREACTIVATION)
    exact = bptt_gradient(tape)
    return params, inputs, targets, head, tape, rows, exact


def test_criterion_01_exact_engine_agreement():
    started = time.monotonic()
    rng = np.random.default_rng(33)
    worst_pair = 0.0
    worst_fd = 0.0
    for _ in range(20):
        hidden = int(rng.choice([2, 6]))
        length = int(rng.choice([1, 5, 20]))
        params, inputs, targets, head = make_instance(rng, hidden=hidden, length=length)
        tape = run_episode(params, inputs, targets, head)
        rev = bptt_gradient(tape).g
        _, fwd = rtrl_jacobians(tape)
        fd = finite_difference_gradient(params, inputs, targets, head)
        scale = max(np.linalg.norm(rev), 1e-12)
        worst_pair = max(worst_pair, np.linalg.norm(fwd.g - rev) / scale)
        worst_fd = max(
            worst_fd,
            np.linalg.norm(rev - fd) / max(np.linalg.norm(fd), 1e-12),
            np.linalg.norm(fwd.g - fd) / max(np.linalg.norm(fd), 1e-12),
        )
    elapsed = time.monotonic() - started
    ok = worst_pair < 1e-8 and worst_fd < 1e-5 and elapsed < 10.0
    report(1, "reverse/forward agreement + finite differences", ok,
           f"max pair rel {worst_pair:.2e}, max fd rel {worst_fd:.2e}, {elapsed:.1f}s")


def test_criterion_02_unbiasedness(h4t6_instance):
    started = time.monotonic()
    params, inputs, targets, head, tape, _, exact = h4t6_instance
    n = 100_000
    p = params.num_params
    clean_losses = tape.losses.copy()
    qm = np.random.default_rng(7).standard_normal((4, 4))
    q_pd = qm @ qm.T + 2.0 * np.eye(4)
    sched_i = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(6))
    sched_q = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(6), Q0=q_pd)
    arms = {
        "uoro(Q0=I)": lambda seeds: run_uoro(
            tape, CutVertex.PREACTIVATION, noises(10, seeds), sched_i
        ).estimate,
        "uoro(Q0=PD)": lambda seeds: run_uoro(
            tape, CutVertex.PREACTIVATION, noises(11, seeds), sched_q
        ).estimate,
        "preuoro": lambda seeds: run_preuoro(
            tape, noises(12, seeds), sched_i
        ).estimate,
        "reinforce": lambda seeds: reinforce_episode(
            params, inputs, targets, head, 1e-3, noises(13, seeds),
            baseline=clean_losses
        ).estimate,
    }
    detail = []
    worst = 0.0
    for name, fn in arms.items():
        mean, se = mc_stats(fn, n, p)
        z = float(np.max(np.abs(mean - exact.g) / np.maximum(se, 1e-300)))
        worst = max(worst, z)
        detail.append(f"{name} max|z|={z:.2f}")
    elapsed = time.monotonic() - started
    ok = worst < 4.0 and elapsed < 300.0
    report(2, "unbiasedness at 1e5 seeds", ok,
           "; ".join(detail) + f", {elapsed:.0f}s")


def test_criterion_03_moment_lemmas():
    started = time.monotonic()
    zscores = moment_lemma_zscores(np.random.default_rng(71), 1_000_000)
    worst = max(z for *_, z in zscores)
    elapsed = time.monotonic() - started
    ok = worst < 4.0 and elapsed < 120.0
    report(3, "fourth-moment closed forms vs 1e6-sample MC", ok,
           f"worst |z| = {worst:.2f}, {elapsed:.0f}s")


def test_criterion_04_variance_prediction(h4t6_instance):
    params, inputs, targets, head, tape, rows, exact = h4t6_instance
    alpha = np.ones(6)
    predicted = predicted_VQ(rows, alpha)
    schedule = ScalingSchedule(FIXED_ALPHA, alpha=alpha)
    n = 10_000
    estimates = mc_rows(lambda seeds: run_uoro(tape, CutVertex.PREACTIVATION,
                                               noises(0, seeds), schedule).estimate,
                        n, params.num_params)
    measured = empirical_variance(estimates, exact)
    rel = abs(measured.vq / predicted - 1.0)
    ok = rel <= 0.05
    report(4, "measured V within 5% of structured prediction", ok,
           f"predicted {predicted:.2f}, measured {measured.vq:.2f}, rel {rel:.3f}")


def test_criterion_05_variance_reduction_ordering():
    wins = 0
    pred_ok = True
    cs_ok = True
    n_seeds = 2000
    for k in range(20):
        rng = np.random.default_rng(300 + k)
        params, inputs, targets, head = make_instance(
            rng, hidden=3, length=5, weight_scale=0.5
        )
        tape = run_episode(params, inputs, targets, head)
        rows = suffix_rows(tape, CutVertex.PREACTIVATION)
        exact = bptt_gradient(tape)
        solution = solve_alpha_newton(compute_C(rows, None))
        b_mat = compute_B(rows, solution.alpha)
        q0 = optimal_Q0(b_mat)
        predicted_opt = predicted_VQ(rows, solution.alpha, q0)
        target = trace(psd_frac_power(b_mat, 0.5)) ** 2
        pred_ok &= abs(predicted_opt - target) <= 1e-6 * target
        cs_ok &= target <= trace(b_mat) * b_mat.shape[0] * (1 + 1e-12)
        sched_base = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(5))
        sched_opt = ScalingSchedule(FIXED_ALPHA, alpha=solution.alpha, Q0=q0)

        def both(seeds):  # both schedules on the same noise
            block = episode_noises(400 + k, seeds, 5, 3)
            return np.hstack([run_uoro(tape, CutVertex.PREACTIVATION, block,
                                       schedule).estimate
                              for schedule in (sched_base, sched_opt)])

        p = params.num_params
        rows = mc_rows(both, n_seeds, 2 * p)
        base, opt = rows[:, :p], rows[:, p:]
        if empirical_variance(opt, exact).vq < empirical_variance(base, exact).vq:
            wins += 1
    ok = wins >= 18 and pred_ok and cs_ok
    report(5, "optimized (Q0, alpha) beats the defaults", ok,
           f"wins {wins}/20, predicted==tr(B^1/2)^2: {pred_ok}, "
           f"Cauchy-Schwarz bound: {cs_ok}")


def test_criterion_06_projection_free_ratio(h4t6_instance):
    params, inputs, targets, head, tape, _, exact = h4t6_instance
    alpha = np.ones(6)
    schedule = ScalingSchedule(FIXED_ALPHA, alpha=alpha)
    n = 20_000
    eu = mc_rows(lambda seeds: run_uoro(
        tape, CutVertex.PREACTIVATION,
        episode_noises(100, seeds, 6, 4, tau_kind="sign"), schedule).estimate,
        n, params.num_params)
    ep = mc_rows(lambda seeds: run_preuoro(
        tape, episode_noises(200, seeds, 6, 4, tau_kind="gaussian"),
        schedule).estimate, n, params.num_params)
    ratio = empirical_variance(eu, exact).vq / empirical_variance(ep, exact).vq
    n_z = params.preactivation_size
    ok = abs(ratio / n_z - 1.0) <= 0.25
    report(6, "spatial projection multiplies variance by the cut dimension",
           ok, f"measured ratio {ratio:.2f} vs dimension {n_z}")


def test_criterion_07_alpha_machinery():
    rng = np.random.default_rng(79)
    residual_ok = True
    worst_resid = 0.0
    for _ in range(50):
        size = int(rng.integers(3, 13))
        c = rng.uniform(0.05, 5.0, size=(size, size))
        solution = solve_alpha_newton(c)
        worst_resid = max(worst_resid, solution.residual)
        residual_ok &= solution.converged and solution.residual <= 1e-8
    m = rng.uniform(0.5, 4.0, size=8)
    n_vec = rng.uniform(0.5, 4.0, size=8)
    closed = alpha_closed_form_rank1(m, n_vec)
    newton = solve_alpha_newton(np.outer(n_vec, m)).alpha
    gap = float(np.max(np.abs(newton / newton[0] - closed / closed[0])))
    ok = residual_ok and gap <= 1e-6
    report(7, "equilibration solver: residuals and rank-one closed form", ok,
           f"worst residual {worst_resid:.2e}, rank-one gap {gap:.2e}")


def test_criterion_08_trace_product_theorem():
    rng = np.random.default_rng(98)
    ok = True
    worst_gap = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        x = rng.standard_normal((dim, dim))
        x = x @ x.T + 0.5 * np.eye(dim)
        y = rng.standard_normal((dim, dim))
        y = y @ y.T + 0.5 * np.eye(dim)
        a_star = minimize_trace_product(x, y)
        ok &= check_minimizer(a_star, x, y)
        c_min = trace_product_c(a_star, x, y)
        target = minimal_trace_product(x, y)
        worst_gap = max(worst_gap, abs(c_min - target) / target)
        ok &= abs(c_min - target) <= 1e-8 * target
        for _ in range(100):
            bump = 0.2 * rng.standard_normal((dim, dim))
            candidate = a_star + bump @ bump.T
            ok &= trace_product_c(candidate, x, y) >= c_min - 1e-9
    report(8, "trace-product minimizer certificate", ok,
           f"worst relative optimum gap {worst_gap:.2e}")


def test_criterion_09_online_B_estimator():
    rng = np.random.default_rng(105)
    params, inputs, targets, head = make_instance(
        rng, hidden=1, inputs_dim=1, length=2, n_classes=2
    )
    tape = run_episode(params, inputs, targets, head)
    rows = suffix_rows(tape, CutVertex.PREACTIVATION)
    alpha = np.ones(2)
    exact = np.array([compute_B_partial(rows, alpha, k) for k in (1, 2)])
    schedule = ScalingSchedule(FIXED_ALPHA, alpha=alpha)
    n = 100_000
    # per seed, the estimates of steps 1 and 2 as one row
    mean, se = mc_stats(lambda seeds: estimate_B_online(
        tape, episode_noises(106, seeds, 2, 1), schedule).swapaxes(0, 1).reshape(
            len(seeds), -1), n, exact.size)
    worst = float((np.abs(mean - exact.ravel()) / np.maximum(se, 1e-300)).max())
    ok = worst < 4.0
    report(9, "online second-moment estimator unbiased at every step", ok,
           f"worst |z| = {worst:.2f} over 1e5 seeds")


def test_criterion_10_score_function_limit():
    rng = np.random.default_rng(501)
    params, inputs, targets, head = make_instance(
        rng, hidden=4, length=6, weight_scale=0.5
    )
    tape = run_episode(params, inputs, targets, head)
    clean_losses = tape.losses.copy()
    schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(6))
    sigmas = [1e-1, 1e-2, 1e-3]
    n = 400
    mean_diffs = []
    variances = []
    common = noises(600, range(n))  # common noise across sigmas
    blocks = [slice(start, start + training.SEED_BLOCK)
              for start in range(0, n, training.SEED_BLOCK)]
    for sigma in sigmas:
        diff_sum = np.zeros(params.num_params)
        no_baseline = np.empty((n, params.num_params))
        for block in blocks:
            corrected = reinforce_episode(params, inputs, targets, head, sigma,
                                          common[block], baseline=clean_losses)
            same_noise = run_uoro(tape, CutVertex.STATE, common[block], schedule)
            diff_sum += np.sum(corrected.estimate - same_noise.estimate, axis=0)
            no_baseline[block] = reinforce_episode(params, inputs, targets, head,
                                                   sigma, common[block],
                                                   baseline="none").estimate
        mean_diffs.append(float(np.linalg.norm(diff_sum / n)))
        variances.append(float(np.mean(np.var(no_baseline, axis=0))))
    logs = np.log10(sigmas)
    slope_diff = float(np.polyfit(logs, np.log10(mean_diffs), 1)[0])
    slope_var = float(np.polyfit(logs, np.log10(variances), 1)[0])
    ok = abs(slope_diff - 1.0) <= 0.2 and abs(slope_var + 2.0) <= 0.3
    report(10, "score-function estimator anneals to the rank-one sketch", ok,
           f"difference slope {slope_diff:.3f}, no-baseline variance slope "
           f"{slope_var:.3f}")


def test_criterion_11_queue_training_ordering():
    finals = {"neither": [], "temporal": [], "both": []}
    for estimator in finals:
        for seed in range(10):
            cfg = queue_config(estimator, stream_length=24, updates=100,
                               base_seed=seed + 1, data_seed=1000 + seed)
            summary = training.run_training(cfg)
            finals[estimator].append(summary["final_loss"])
    means = {name: float(np.mean(vals)) for name, vals in finals.items()}
    threshold_ok = means["neither"] < 0.1
    ordering_ok = means["neither"] <= means["temporal"] <= means["both"]
    ok = threshold_ok and ordering_ok
    report(11, "queue task: exact-gradient threshold and ablation ordering",
           ok,
           f"mean final losses: neither {means['neither']:.4f}, "
           f"temporal {means['temporal']:.4f}, both {means['both']:.4f}")
