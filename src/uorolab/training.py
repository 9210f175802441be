"""Experiment orchestration: training loops, variance reports, estimator
comparisons.

The per-episode protocol with the optimal spatial matrix follows the
exact-computation recipe: hold a running average Bbar across minibatches,
set Q0 = (Bbar + damping * mean-eig * I)^{-1/4} for the next minibatch,
solve for alpha exactly per episode where requested, and fold the episode's
exact B (computed with the alpha actually used) back into Bbar, but for the
last update, whose Bbar would set no later Q0.  A minibatch is one forward,
one noise block and one sketch call, whose schedule holds each episode's
alpha as a column; only the sweeps for the episodes' causal suffix rows
(their C, alpha and B) run in blocks of TENSOR_BLOCK episodes.
"""

import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, as_dict, canonical_estimator
from .errors import UnsupportedCutError
from .estimators import (
    GIR,
    ScalingSchedule,
    _preuoro_factors,
    _uoro_factors,
    reinforce_episode,
    run_preuoro,
    run_spatial,
    run_uoro,
)
from .exact import bptt_gradient, episode_tensors, suffix_rows
from .noise import episode_noises
from .optim import AdamState, adam_update
from .reports import write_json_summary, write_metrics_csv
from .rnn import BernoulliHead, CutVertex, SoftmaxHead, init_params, run_episode
from .tasks import QueueSpec, load_rowwise_digits, make_queue_episode, queue_block
from .variance import (
    compute_B,
    compute_C,
    empirical_variance,
    offline_total_estimate,
    optimal_Q0,
    predicted_VQ,
    solve_alpha_newton,
)

EXACT_ESTIMATORS = ("bptt", "rtrl")

# Episodes per suffix-row sweep of the exact alpha / Q0 protocol, which also
# sums its estimates, head gradients and losses per block of this many (the
# run files' bytes depend on it).  A block's suffix rows, T(T+1)/2 x N_z
# floats per episode (0.65 MB at the digits shape), live in one buffer beside
# the minibatch's tape.  perfbench digits-q0 (LSTM, N_z = 200, T = 28, 50
# episodes per update; one Xeon core) read round_ms / peak_rss_mb of 222 /
# 61.7, against 283 / 62.2 with the last update's B, a B sum per episode,
# Newton's repeated rescalings and a copying pullback.
TENSOR_BLOCK = 8


@dataclass
class TaskBundle:
    """Everything the loops need to draw episodes for one task."""

    input_size: int
    make_head: callable
    # (data_seed, index) -> (inputs, targets list): one episode, for the report
    # instance
    episode: callable
    block: callable  # (data_seed, indices) -> (inputs (B, T, X), Targets (T, B))


def build_task(config: ExperimentConfig) -> TaskBundle:
    if config.task == "queue":
        spec = QueueSpec(delay=config.delay, length=config.stream_length)

        def episode(seed, index):
            return make_queue_episode(spec, seed, index)

        def block(seed, indices):
            return queue_block(spec, seed, indices)

        def make_head(rng):
            return BernoulliHead(0.1 * rng.standard_normal((1, config.hidden + 1)))

        return TaskBundle(
            input_size=1,
            make_head=make_head,
            episode=episode,
            block=block,
        )
    if config.task == "rowwise-digits":
        data = load_rowwise_digits(
            source=config.digits_source,
            images_path=config.idx_images or None,
            labels_path=config.idx_labels or None,
            limit=config.digits_limit,
            seed=config.data_seed,
        )

        def episode(seed, index):
            return data.episode((seed + index) % len(data))

        def block(seed, indices):
            return data.block((seed + np.asarray(indices)) % len(data))

        def make_head(rng):
            return SoftmaxHead(0.1 * rng.standard_normal((10, config.hidden + 1)))

        return TaskBundle(
            input_size=data.images.shape[2],
            make_head=make_head,
            episode=episode,
            block=block,
        )
    raise ValueError(f"unknown task {config.task!r}")


def realized_alpha(report) -> np.ndarray:
    """Overall per-step scalings beta_s * gamma_{s+1} ... gamma_T of a run,
    shaped (T, [B]) like its realized coefficients."""
    gammas = report.realized_gamma
    suffix = np.cumprod(gammas[::-1], axis=0)[::-1]
    suffix = np.concatenate([suffix[1:], np.ones_like(suffix[:1])])
    return report.realized_beta * suffix


def _estimate_batch(config, params, head, tape, noises):
    """Gradient estimates (B, P) of the exact and the other non-sketch
    engines (bptt, rtrl, spatial, reinforce) for the B episodes of a batched
    tape, whose noise is the NoiseBlock noises, each in one call.  The exact
    arms are one batched BPTT sweep (the tests check RTRL's equal gradient),
    and spatial is that sweep with each cut adjoint projected onto its noise;
    reinforce takes the tape's losses as its noise-free baseline."""
    estimator = canonical_estimator(config.estimator)
    if estimator in EXACT_ESTIMATORS:
        return bptt_gradient(tape).g
    if estimator == "reinforce":
        baseline = tape.losses if config.baseline == "noise-free" else config.baseline
        return reinforce_episode(params, tape.inputs, tape.targets, head,
                                 config.sigma, noises, baseline=baseline).estimate
    return run_spatial(tape, CutVertex(config.cut), noises).estimate


def _rank_one_batch(config, tape, noises, schedule, b_sum):
    """uoro or preuoro on the B episodes of a minibatch tape, whose noise is
    the NoiseBlock noises, in one call, and the exact protocol around it.

    schedule is the GIR ScalingSchedule of the update, with its Q0 (none
    for preuoro) checked and inverted once.  Under alpha "ours" the sweeps
    (_suffix_sweeps) give each episode's C, solved alpha and, unless b_sum
    is None, B, and are freed before the sketch runs; otherwise the sketch
    runs first and, unless b_sum is None, the sweeps follow with its
    realized alphas.  The episodes' exact B are added into b_sum.  Returns
    the sketch's factors and the alphas (T, B).
    """
    cut = CutVertex(config.cut)
    alphas = None
    run_schedule = schedule
    if config.alpha_mode == "ours":
        alphas = _suffix_sweeps(config, tape, schedule, b_sum)
        run_schedule = schedule.with_alpha(alphas)
    elif config.alpha_mode == "ones":
        run_schedule = schedule.with_alpha(np.ones(tape.length))
    if canonical_estimator(config.estimator) == "uoro":
        factors = _uoro_factors(tape, cut, noises, run_schedule, config.contribution)
    else:
        factors = _preuoro_factors(tape, noises, run_schedule)
    if alphas is None:
        alphas = (realized_alpha(factors) if config.alpha_mode == "gir"
                  else np.ones(factors.realized_beta.shape))
        if b_sum is not None:
            _suffix_sweeps(config, tape, schedule, b_sum, alphas)
    return factors, alphas


def _suffix_sweeps(config, tape, schedule, b_sum, alphas=None):
    """One suffix-row sweep (suffix_rows) per block of TENSOR_BLOCK episodes
    of a minibatch tape, into one rows buffer that every block reuses.  An
    episode's rows give its C and solved alpha, unless the alphas (T, B) are
    given, and its B under its alpha, added into b_sum unless that is None
    (compute_B's out).  Returns the alphas."""
    cut = CutVertex(config.cut)
    n = tape.batch_shape[0]
    solve = alphas is None
    if solve:
        alphas = np.empty((tape.length, n))
    buffer = None
    for start in range(0, n, TENSOR_BLOCK):
        block = range(start, min(start + TENSOR_BLOCK, n))
        rows = suffix_rows(tape.episode(slice(block.start, block.stop)), cut,
                           out=None if buffer is None else buffer[:, :len(block)])
        if buffer is None:
            buffer = rows.rows
        for j, index in enumerate(block):
            episode = rows.episode(j)
            if solve:
                alphas[:, index] = solve_alpha_newton(
                    compute_C(episode, schedule.Q0, schedule.Q0_inv)).alpha
            if b_sum is not None:
                compute_B(episode, alphas[:, index], out=b_sum)
    return alphas


def run_training(config: ExperimentConfig, out_dir=None) -> dict:
    """Train per the config; returns the summary dict and, if out_dir is
    given, writes metrics.csv and summary.json (without the wall clock)
    there."""
    started = time.monotonic()
    task = build_task(config)
    rng = np.random.default_rng(config.base_seed)
    params = init_params(config.cell, config.hidden, task.input_size, rng)
    head = task.make_head(rng)
    w_state = AdamState.zeros_like(params.theta())
    head_state = AdamState.zeros_like(head.weights)
    rows, losses = [], []
    b_bar = None
    q0 = None  # identity until a Bbar exists
    for update in range(config.updates):
        first = update * config.minibatch
        inputs, targets = task.block(config.data_seed,
                                     range(first, first + config.minibatch))
        grad, head_grad, mean_loss, b_bar, q0, audit = _update(
            config, params, head, inputs, targets, update, b_bar, q0
        )
        if audit is not None:
            rows.append((update, config.base_seed, "audit_offline_rel_err", audit))
        params = params.with_theta(
            adam_update(params.theta(), grad, w_state, config.learning_rate,
                        config.momentum, config.beta2, config.eps)
        )
        head.weights = adam_update(head.weights, head_grad, head_state,
                                   config.learning_rate, config.momentum,
                                   config.beta2, config.eps)
        losses.append(mean_loss)
        rows.append((update, config.base_seed, "loss", mean_loss))
        rows.append((update, config.base_seed, "grad_norm",
                     float(np.linalg.norm(grad))))

    summary = {
        "config": as_dict(config),
        "final_loss": losses[-1] if losses else None,
        "min_loss": min(losses) if losses else None,
        "updates": config.updates,
    }
    if out_dir is not None:
        write_metrics_csv(f"{out_dir}/metrics.csv", rows)
        write_json_summary(f"{out_dir}/summary.json", summary)
    summary["wall_clock_s"] = round(time.monotonic() - started, 3)
    return summary


def _update(config, params, head, inputs, targets, update, b_bar, q0):
    """One minibatch update, for every estimator and for the optimal-Q0 /
    exact-alpha protocol, on the minibatch's inputs (B, T, X) and Targets
    (T, B).  Returns the mean gradient, head gradient and loss per
    supervised step, the updated Bbar (the last update leaves it) and Q0,
    and the largest online/offline audit error (None if none was audited).
    """
    if config.q0_mode == "ours" and b_bar is not None:
        q0 = optimal_Q0(b_bar, damping=config.damping)
    tape = run_episode(params, inputs, targets, head)
    sums, b_sum, audited = _summed_estimates(config, params, head, tape, update, q0)
    n = inputs.shape[0]
    if b_sum is not None:  # each B is symmetric as formed: one pass for the sum
        b_mean = 0.5 * (b_sum + b_sum.T) / n
        b_bar = b_mean if b_bar is None else (
            config.bbar_decay * b_bar + (1.0 - config.bbar_decay) * b_mean
        )
    # the audits build their adjoint tensors once the sketch and noise are freed
    audits = []
    for j, u, alpha, schedule, estimate in audited:
        offline = offline_total_estimate(
            episode_tensors(tape.episode(j), CutVertex(config.cut)), u, alpha,
            schedule.Q0, schedule.Q0_inv)
        scale = max(np.linalg.norm(offline), 1e-300)
        audits.append(float(np.linalg.norm(estimate - offline) / scale))
    audit = max(audits) if audits else None
    grad_sum, head_grad_sum, loss_sum = sums
    return grad_sum / n, head_grad_sum / n, loss_sum / n, b_bar, q0, audit


def _summed_estimates(config, params, head, tape, update, q0):
    """The estimates, head gradients and losses per supervised step of the
    B episodes of a minibatch tape, summed, from one noise block and one
    estimator call.  When the config needs each episode's exact C or B
    (alpha or Q0 "ours" with a rank-one sketch) they are summed per block of
    TENSOR_BLOCK episodes, the estimates contracted from the sketch's
    factors a block at a time, so no (B, P) estimate is formed.  Returns the
    sums, the sum of the exact B (None unless Q0 is "ours" and the update
    is not the last), and each audited episode's
    position, noise u, alphas, schedule and estimate: the "current" uoro
    runs, whose estimate offline_total_estimate is.
    """
    estimator = canonical_estimator(config.estimator)
    n = tape.batch_shape[0]
    first = update * config.minibatch
    dim = (params.hidden_size if estimator == "reinforce"
           else params.cut_size(CutVertex(config.cut)))
    noises = episode_noises(config.base_seed, range(first, first + n),
                            tape.length, dim, config.tau_kind)
    b_sum = None
    audited = []
    if estimator in ("uoro", "preuoro"):
        # q0 is fixed for the whole update: check and invert it once here
        # (the config allows Q0 "ours" with uoro only)
        schedule = ScalingSchedule(GIR, Q0=q0)
        if config.q0_mode == "ours" and update + 1 < config.updates:
            b_sum = np.zeros((dim, dim))
        factors, alphas = _rank_one_batch(config, tape, noises, schedule, b_sum)
        estimates = factors.estimate
        if estimator == "uoro" and config.contribution == "current":
            audited = [(j, noises.u[:, j].copy(), alphas[:, j], schedule,
                        factors.estimate(slice(j, j + 1))[0])
                       for j, index in enumerate(noises.indices)
                       if config.audit_every and index % config.audit_every == 0]
    else:
        estimates = _estimate_batch(config, params, head, tape, noises).__getitem__
    del noises  # freed before the sums: the audits keep their own columns
    exact = config.alpha_mode == "ours" or config.q0_mode == "ours"
    size = TENSOR_BLOCK if exact else n
    counts = np.maximum(tape.targets.mask.sum(axis=0), 1.0)
    grad_sum = head_grad_sum = loss_sum = 0.0
    for start in range(0, n, size):
        rows = slice(start, start + size)
        block = tape.episode(rows)
        block_estimates = estimates(rows)
        block_estimates /= counts[rows, None]
        grad_sum = grad_sum + np.sum(block_estimates, axis=0)
        head_grads = head.param_grad(block.steps.h, block.targets)
        head_grad_sum = head_grad_sum + np.sum(
            head_grads.sum(axis=0) / counts[rows, None, None], axis=0)
        loss_sum += float(np.sum(block.total_loss() / counts[rows]))
    return (grad_sum, head_grad_sum, loss_sum), b_sum, audited


# ---------------------------------------------------------------------------
# Variance reports
# ---------------------------------------------------------------------------

def build_report_instance(config: ExperimentConfig):
    """A fixed desk-scale instance, (params, tape): one episode tape on which
    estimator variance can be measured against exact predictions."""
    task = build_task(config)
    rng = np.random.default_rng(config.base_seed)
    params = init_params(config.cell, config.hidden, task.input_size, rng)
    head = task.make_head(rng)
    inputs, targets = task.episode(config.data_seed, 0)
    return params, run_episode(params, inputs, targets, head)


# Seeds per batched call of the rank-one estimators on a fixed tape: a block
# holds SEED_BLOCK estimate rows of P floats.
SEED_BLOCK = 64


def _block_reports(config, tape, estimator, schedule, n_seeds, seed_offset=0):
    """(rows, report) per NoiseBlock of SEED_BLOCK seeds, seed_offset + i for
    i < n_seeds: the GradientReport of uoro, preuoro or spatial on a fixed
    tape, and the slice of the n_seeds estimates it holds."""
    estimator = canonical_estimator(estimator)
    cut = CutVertex(config.cut)
    if estimator not in ("uoro", "preuoro", "spatial"):
        raise ValueError(f"estimator {estimator!r} not measurable here")
    for start in range(0, n_seeds, SEED_BLOCK):
        rows = slice(start, min(start + SEED_BLOCK, n_seeds))
        seeds = range(seed_offset + rows.start, seed_offset + rows.stop)
        noises = episode_noises(config.base_seed, seeds, tape.length,
                                tape.params.cut_size(cut), config.tau_kind)
        if estimator == "uoro":
            yield rows, run_uoro(tape, cut, noises, schedule,
                                 contribution=config.contribution)
        elif estimator == "preuoro":
            yield rows, run_preuoro(tape, noises, schedule)
        else:
            yield rows, run_spatial(tape, cut, noises)


def measure_estimator(config, params, tape, tensors, estimator, schedule,
                      n_seeds, seed_offset=0):
    """Collect n_seeds estimates of uoro, preuoro or spatial on a fixed tape,
    one call per NoiseBlock of SEED_BLOCK seeds (tensors is not read)."""
    estimates = np.empty((n_seeds, params.num_params))
    for rows, report in _block_reports(config, tape, estimator, schedule,
                                       n_seeds, seed_offset):
        estimates[rows] = report.estimate
    return estimates


def _grid_cell(config, params, tape, suffix, q0_mode, alpha_mode, n_seeds,
               exact_g):
    """One cell of the {Q0} x {alpha} grid: predicted and measured variance."""
    # Resolve alpha at identity Q0 first, then the optimal Q0 from its B.
    if alpha_mode == "ours":
        alpha0 = solve_alpha_newton(compute_C(suffix, None)).alpha
    else:
        alpha0 = None
    if q0_mode == "ours":
        probe_alpha = alpha0 if alpha0 is not None else np.ones(suffix.length)
        q0 = optimal_Q0(compute_B(suffix, probe_alpha), damping=config.damping)
    else:
        q0 = None
    schedule = ScalingSchedule(GIR, Q0=q0)
    if alpha_mode == "ours":
        alpha = solve_alpha_newton(
            compute_C(suffix, schedule.Q0, schedule.Q0_inv)).alpha
        schedule = schedule.with_alpha(alpha)
        predicted = predicted_VQ(suffix, alpha, schedule.Q0, Q0_inv=schedule.Q0_inv)
    else:
        predicted = None  # resolved below from realized alphas (upper estimate)
    estimates = np.empty((n_seeds, params.num_params))
    for rows, report in _block_reports(config, tape, "uoro", schedule, n_seeds):
        estimates[rows] = report.estimate
        if predicted is None:
            # noise-dependent coefficients: average the per-seed predictions
            # over the first block's realized alphas
            predicted = float(np.mean([
                predicted_VQ(suffix, a, schedule.Q0, Q0_inv=schedule.Q0_inv)
                for a in realized_alpha(report).T]))
    measured = empirical_variance(estimates, exact_g)
    se = float(np.std(np.sum((estimates - exact_g) ** 2, axis=1), ddof=1)
               / np.sqrt(n_seeds))
    return {
        "q0": q0_mode,
        "alpha": alpha_mode,
        "predicted_vq": float(predicted),
        "measured_vq": measured.vq,
        "measured_actual": measured.actual,
        "intrinsic": measured.intrinsic,
        "seeds": n_seeds,
        "standard_error": se,
    }


def _ablation(config, params, tape, exact):
    """Measured variance and mean-estimate error of each ablation arm
    {neither, spatial, temporal, both} on the report instance, whose exact
    gradient is exact; the exact arm neither takes no seeds."""
    rows = []
    for name in ("neither", "spatial", "temporal", "both"):
        estimator = canonical_estimator(name)
        if estimator in EXACT_ESTIMATORS:
            rows.append({"estimator": name, "measured_vq": 0.0,
                         "measured_actual": 0.0,
                         "intrinsic": float(exact.g @ exact.g),
                         "mean_error": 0.0, "seeds": 1})
            continue
        estimates = measure_estimator(config, params, tape, None, estimator,
                                      ScalingSchedule(GIR), config.num_seeds)
        measured = empirical_variance(estimates, exact)
        rows.append({
            "estimator": name,
            "measured_vq": measured.vq,
            "measured_actual": measured.actual,
            "intrinsic": measured.intrinsic,
            "mean_error": float(np.linalg.norm(estimates.mean(axis=0) - exact.g)),
            "seeds": config.num_seeds,
        })
    return rows


def run_variance_report(config: ExperimentConfig, out_dir=None) -> dict:
    """The four-cell {Q0} x {alpha} grid plus the estimator-ablation grid
    {neither, spatial, temporal, both}, on one fixed instance.  The grid's
    Q0 "ours" cells need B, so a cut other than the preactivation cut is
    refused before any work."""
    if config.cut != CutVertex.PREACTIVATION:
        raise UnsupportedCutError(f"the variance report needs the preactivation "
                                  f"cut for its Q0 'ours' cells, not {config.cut!r}")
    params, tape = build_report_instance(config)
    suffix = suffix_rows(tape, CutVertex.PREACTIVATION)
    exact = bptt_gradient(tape)
    cells = [_grid_cell(config, params, tape, suffix, q0_mode, alpha_mode,
                        config.num_seeds, exact.g)
             for q0_mode in ("identity", "ours") for alpha_mode in ("gir", "ours")]
    ablation = _ablation(config, params, tape, exact)
    summary = {"config": as_dict(config), "grid": cells, "ablation": ablation}
    if out_dir is not None:
        rows = []
        for i, cell in enumerate(cells):
            prefix = f"q0={cell['q0']}|alpha={cell['alpha']}"
            for key in ("predicted_vq", "measured_vq", "measured_actual",
                        "intrinsic", "standard_error"):
                rows.append((i, config.base_seed, f"{prefix}/{key}", cell[key]))
        for i, cell in enumerate(ablation):
            prefix = f"estimator={cell['estimator']}"
            for key in ("measured_vq", "measured_actual", "intrinsic", "mean_error"):
                rows.append((i, config.base_seed, f"{prefix}/{key}", cell[key]))
        write_metrics_csv(f"{out_dir}/variance_report.csv", rows)
        write_json_summary(f"{out_dir}/variance_report.json", summary)
    return summary


def estimator_compare(config: ExperimentConfig, out_dir=None) -> dict:
    """Mean-estimate error and measured variance for each ablation arm: the
    projection of the variance report's ablation rows."""
    params, tape = build_report_instance(config)
    results = [{key: row[key] for key in ("estimator", "mean_error",
                                          "measured_actual", "seeds")}
               for row in _ablation(config, params, tape, bptt_gradient(tape))]
    summary = {"config": as_dict(config), "estimators": results}
    if out_dir is not None:
        rows = []
        for i, res in enumerate(results):
            for key in ("mean_error", "measured_actual"):
                rows.append((i, config.base_seed,
                             f"estimator={res['estimator']}/{key}", res[key]))
        write_metrics_csv(f"{out_dir}/estimator_compare.csv", rows)
        write_json_summary(f"{out_dir}/estimator_compare.json", summary)
    return summary
