"""Experiment orchestration: training loops, variance reports, estimator
comparisons.

The per-episode protocol with the optimal spatial matrix follows the
exact-computation recipe: hold a running average Bbar across minibatches,
set Q0 = (Bbar + damping * mean-eig * I)^{-1/4} for the next minibatch,
solve for alpha exactly per episode where requested, and fold the episode's
exact B (computed with the alpha actually used) back into Bbar.  The
minibatch runs in blocks of TENSOR_BLOCK episodes, each one batched forward,
one reverse sweep that gives every episode's causal suffix rows (from which
each episode's C, alpha and B follow) and one sketch call whose schedule
holds every episode's alpha as a column; only audited episodes build their
full adjoint tensors.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import rnn
from .config import ExperimentConfig, as_dict, canonical_estimator
from .estimators import (
    GIR,
    PreUoroState,
    RankOneState,
    ScalingSchedule,
    preuoro_contribution,
    preuoro_step,
    reinforce_episode,
    run_preuoro,
    run_spatial,
    run_uoro,
    uoro_contribution,
    uoro_step,
)
from .exact import bptt_gradient, episode_tensors, suffix_rows
from .noise import episode_noise, episode_noises
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

# Episodes per forward, suffix-row sweep and sketch call in the exact alpha /
# Q0 protocol.  Larger blocks take fewer Python-level steps per episode but
# hold the block's suffix rows, T(T+1)/2 x N_z floats per episode (0.65 MB at
# the digits shape), at once.  perfbench digits-q0 (LSTM, N_z = 200, T = 28,
# 50 episodes per update; one Xeon core, one BLAS thread) measured round_ms /
# peak_rss_mb of about 340 / 59.3 at 5, 327 / 62.9 at 8 and 300 / 65.7 at 10.
TENSOR_BLOCK = 8


@dataclass
class TaskBundle:
    """Everything the loops need to draw episodes for one task."""

    input_size: int
    make_head: callable
    episode: callable  # (data_seed, index) -> (inputs, targets list)
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
    arms are one batched BPTT sweep (RTRL gives the same gradient; the tests
    check it against exact.rtrl_jacobians); reinforce takes the tape's losses
    as its noise-free baseline."""
    estimator = canonical_estimator(config.estimator)
    if estimator in EXACT_ESTIMATORS:
        return bptt_gradient(tape).g
    if estimator == "reinforce":
        baseline = tape.losses if config.baseline == "noise-free" else config.baseline
        return reinforce_episode(params, tape.inputs, tape.targets, head,
                                 config.sigma, noises, baseline=baseline).estimate
    return run_spatial(tape, CutVertex(config.cut), noises).estimate


def _rank_one_batch(config, tape, noises, schedule, b_sum, audits):
    """uoro or preuoro on the B episodes of a batched tape, whose noise is
    the NoiseBlock noises, in one call, and the exact protocol around it.

    schedule is the GIR ScalingSchedule shared by the episodes of an update:
    it holds the spatial Q0 (none for preuoro), checked and inverted once.
    Under alpha "ours" one reverse sweep (suffix_rows) gives the causal
    suffix rows of every episode, hence its C, its solved alpha and, for Q0
    "ours", its B; the rows are freed before the sketch runs, which takes
    the alphas as one (T, B) schedule.  Otherwise the sketch runs first and,
    for Q0 "ours", the sweep follows it with the alphas the run realized.
    Last, each audited episode builds its adjoint tensors (episode_tensors)
    for its offline estimate.  Only "current" uoro runs are audited, since
    offline_total_estimate is the estimate of that contribution mode; their
    errors are appended to audits.  Returns the estimates (B, P) and b_sum
    plus the batch's exact B if Q0 is "ours".
    """
    estimator = canonical_estimator(config.estimator)
    cut = CutVertex(config.cut)
    audited = [j for j, index in enumerate(noises.indices)
               if estimator == "uoro" and config.contribution == "current"
               and config.audit_every and index % config.audit_every == 0]
    q0_ours = config.q0_mode == "ours"
    alphas = None
    run_schedule = schedule
    if config.alpha_mode == "ours":
        rows = suffix_rows(tape, cut)
        alphas = np.stack([
            solve_alpha_newton(compute_C(rows.episode(j), schedule.Q0,
                                         schedule.Q0_inv)).alpha
            for j in range(tape.batch_shape[0])], axis=1)
        if q0_ours:
            b_sum = _add_B(b_sum, rows, alphas)
        del rows
        run_schedule = schedule.with_alpha(alphas)
    elif config.alpha_mode == "ones":
        run_schedule = schedule.with_alpha(np.ones(tape.length))
    if estimator == "uoro":
        report = run_uoro(tape, cut, noises, run_schedule,
                          contribution=config.contribution)
    else:
        report = run_preuoro(tape, noises, run_schedule)
    if alphas is None:
        alphas = (realized_alpha(report) if config.alpha_mode == "gir"
                  else np.ones(report.realized_beta.shape))
        if q0_ours:
            b_sum = _add_B(b_sum, suffix_rows(tape, cut), alphas)
    for j in audited:
        offline = offline_total_estimate(episode_tensors(tape.episode(j), cut),
                                         noises.u[:, j], alphas[:, j], schedule.Q0,
                                         schedule.Q0_inv)
        scale = max(np.linalg.norm(offline), 1e-300)
        audits.append(float(np.linalg.norm(report.estimate[j] - offline) / scale))
    return report.estimate, b_sum


def _add_B(b_sum, rows, alphas):
    """b_sum plus the exact B of each episode of a block's SuffixRows, under
    its column of the alphas (T, B)."""
    for j in range(alphas.shape[1]):
        b_episode = compute_B(rows.episode(j), alphas[:, j])
        b_sum = b_episode if b_sum is None else b_sum + b_episode
    return b_sum


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
    if config.streaming:
        rows, losses = _run_streaming(config, task, params, head, w_state,
                                      head_state)
    else:
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
    if config.streaming:
        summary["mode"] = "streaming"
    if out_dir is not None:
        write_metrics_csv(f"{out_dir}/metrics.csv", rows)
        write_json_summary(f"{out_dir}/summary.json", summary)
    summary["wall_clock_s"] = round(time.monotonic() - started, 3)
    return summary


def _update(config, params, head, inputs, targets, update, b_bar, q0):
    """One minibatch update, for every estimator and for the optimal-Q0 /
    exact-alpha protocol, on the minibatch's inputs (B, T, X) and Targets
    (T, B).

    The minibatch runs as one batch, or in blocks of TENSOR_BLOCK episodes
    when the config needs each episode's exact C or B (alpha or Q0 "ours"
    with a rank-one sketch): each block is one forward, one suffix-row
    sweep and one estimator call (_rank_one_batch), so one block's rows are
    alive at a time.
    Returns the mean gradient, head gradient and loss per supervised step,
    the updated Bbar and Q0, and the largest online/offline audit error
    (None if no episode was audited).
    """
    estimator = canonical_estimator(config.estimator)
    if config.q0_mode == "ours" and b_bar is not None:
        q0 = optimal_Q0(b_bar, damping=config.damping)
    # q0 is fixed for the whole update: check and invert it once here (the
    # config allows Q0 "ours" with uoro only)
    schedule = None
    if estimator in ("uoro", "preuoro"):
        schedule = ScalingSchedule(GIR, Q0=q0)
    n = inputs.shape[0]
    exact = config.alpha_mode == "ours" or config.q0_mode == "ours"
    size = TENSOR_BLOCK if exact else n
    # the states of the minibatch's streams are derived once; each block
    # draws its own columns
    first = update * config.minibatch
    dim = (params.hidden_size if estimator == "reinforce"
           else params.cut_size(CutVertex(config.cut)))
    noises = episode_noises(config.base_seed, range(first, first + n),
                            inputs.shape[1], dim, config.tau_kind)
    grad_sum = head_grad_sum = loss_sum = 0.0
    # a running sum keeps one N_z x N_z matrix alive instead of one per episode
    b_sum = None
    audits = []
    for start in range(0, n, size):
        rows = slice(start, start + size)
        grad, head_grad, loss, b_sum = _block_sums(
            config, params, head, inputs[rows], targets[:, rows], noises[rows],
            schedule, b_sum, audits)
        grad_sum = grad_sum + grad
        head_grad_sum = head_grad_sum + head_grad
        loss_sum += loss
    if b_sum is not None:
        b_mean = b_sum / n
        b_bar = b_mean if b_bar is None else (
            config.bbar_decay * b_bar + (1.0 - config.bbar_decay) * b_mean
        )
    audit = max(audits) if audits else None
    return grad_sum / n, head_grad_sum / n, loss_sum / n, b_bar, q0, audit


def _block_sums(config, params, head, inputs, targets, noises, schedule, b_sum,
                audits):
    """Run the episodes of one block of a minibatch, its inputs (B, T, X) and
    Targets (T, B), whose noise is the NoiseBlock noises, as one batch.
    Returns the block's summed gradient, head gradient and loss, each per
    supervised step, and b_sum plus the block's exact B; appends the block's
    audit errors to audits.  The block's tape is freed on return, before the
    next block runs."""
    tape = run_episode(params, inputs, targets, head)
    if schedule is not None:
        estimates, b_sum = _rank_one_batch(config, tape, noises, schedule,
                                           b_sum, audits)
    else:
        estimates = _estimate_batch(config, params, head, tape, noises)
    counts = np.maximum(tape.targets.mask.sum(axis=0), 1.0)
    head_grads = head.param_grad(tape.steps.h, tape.targets)
    return (np.sum(estimates / counts[:, None], axis=0),
            np.sum(head_grads.sum(axis=0) / counts[:, None, None], axis=0),
            float(np.sum(tape.total_loss() / counts)), b_sum)


def _run_streaming(config, task, params, head, w_state, head_state):
    """Queue streaming mode: the parameters update at every step, so the
    sketch carries stale influence (accepted and documented; the estimate is
    only unbiased for slowly moving parameters).  It runs GIR without Q0,
    the only alpha_mode and q0_mode the config admits with streaming.
    Returns the metric rows and the mean loss of each episode."""
    estimator = canonical_estimator(config.estimator)
    schedule = ScalingSchedule(GIR)
    rows = []
    losses = []
    for episode_index in range(config.updates):
        inputs, targets = task.episode(config.data_seed, episode_index)
        t_len = inputs.shape[0]
        targets = rnn.episode_targets(targets, (), t_len)
        noise = episode_noise(config.base_seed, episode_index, t_len,
                              params.cut_size(CutVertex.PREACTIVATION),
                              config.tau_kind)
        state_vec = np.zeros(params.state_size)
        if estimator == "uoro":
            sketch = RankOneState(np.zeros(params.state_size),
                                  np.zeros(params.num_params))
        else:
            sketch = PreUoroState(
                np.zeros((params.state_size, params.preactivation_size)),
                np.zeros(params.augmented_size),
            )
        episode_loss = 0.0
        for t in range(t_len):
            state_vec, cache = rnn.step(params, state_vec, inputs[t])
            loss_t, g_t = rnn.loss_grad(cache.h, targets[t], head)
            g_full = rnn.embed_state_grad(params, g_t)
            if estimator == "uoro":
                sketch, _, _ = uoro_step(sketch, cache, CutVertex.PREACTIVATION,
                                         noise.u[t], schedule, t)
                contribution = uoro_contribution(sketch, g_full)
            else:
                sketch, _, _ = preuoro_step(sketch, cache, float(noise.tau[t]),
                                            schedule, t)
                contribution = preuoro_contribution(sketch, g_full)
            if targets.mask[t]:
                episode_loss += loss_t
                params = params.with_theta(
                    adam_update(params.theta(), contribution, w_state,
                                config.learning_rate, config.momentum,
                                config.beta2, config.eps)
                )
                head.weights = adam_update(
                    head.weights, head.param_grad(cache.h, targets[t]),
                    head_state, config.learning_rate, config.momentum,
                    config.beta2, config.eps)
        mean_loss = episode_loss / max(float(targets.mask.sum()), 1.0)
        losses.append(mean_loss)
        rows.append((episode_index, config.base_seed, "loss", mean_loss))
    return rows, losses


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


def _grid_cell(config, params, tape, tensors, q0_mode, alpha_mode, n_seeds,
               exact_g):
    """One cell of the {Q0} x {alpha} grid: predicted and measured variance."""
    # Resolve alpha at identity Q0 first, then the optimal Q0 from its B.
    if alpha_mode == "ours":
        alpha0 = solve_alpha_newton(compute_C(tensors, None)).alpha
    else:
        alpha0 = None
    if q0_mode == "ours":
        probe_alpha = alpha0 if alpha0 is not None else np.ones(tensors.length)
        q0 = optimal_Q0(compute_B(tensors, probe_alpha), damping=config.damping)
    else:
        q0 = None
    schedule = ScalingSchedule(GIR, Q0=q0)
    if alpha_mode == "ours":
        alpha = solve_alpha_newton(
            compute_C(tensors, schedule.Q0, schedule.Q0_inv)).alpha
        schedule = schedule.with_alpha(alpha)
        predicted = predicted_VQ(tensors, alpha, q0)
    else:
        predicted = None  # resolved below from realized alphas (upper estimate)
    estimates = np.empty((n_seeds, params.num_params))
    for rows, report in _block_reports(config, tape, "uoro", schedule, n_seeds):
        estimates[rows] = report.estimate
        if predicted is None:
            # noise-dependent coefficients: average the per-seed predictions
            # over the first block's realized alphas
            predicted = float(np.mean([predicted_VQ(tensors, a, q0)
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
    {neither, spatial, temporal, both}, on one fixed instance."""
    params, tape = build_report_instance(config)
    tensors = episode_tensors(tape, CutVertex(config.cut))
    exact = bptt_gradient(tape)
    cells = [_grid_cell(config, params, tape, tensors, q0_mode, alpha_mode,
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
