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
from .exact import bptt_gradient, episode_tensors, rtrl_jacobians, suffix_rows
from .noise import episode_noise
from .optim import AdamState, adam_update
from .reports import write_json_summary, write_metrics_csv
from .rnn import BernoulliHead, CutVertex, SoftmaxHead, init_params, run_episode
from .tasks import QueueSpec, load_rowwise_digits, make_queue_episode
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
    episode: callable  # (data_seed, index) -> (inputs, targets)
    supervised_steps: int
    length: int


def build_task(config: ExperimentConfig) -> TaskBundle:
    if config.task == "queue":
        spec = QueueSpec(delay=config.delay, length=config.stream_length)

        def episode(seed, index):
            return make_queue_episode(spec, seed, index)

        def make_head(rng):
            return BernoulliHead(0.1 * rng.standard_normal((1, config.hidden + 1)))

        return TaskBundle(
            input_size=1,
            make_head=make_head,
            episode=episode,
            supervised_steps=spec.length - spec.delay,
            length=spec.length,
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

        def make_head(rng):
            return SoftmaxHead(0.1 * rng.standard_normal((10, config.hidden + 1)))

        length = data.images.shape[1]
        return TaskBundle(
            input_size=data.images.shape[2],
            make_head=make_head,
            episode=episode,
            supervised_steps=length,
            length=length,
        )
    raise ValueError(f"unknown task {config.task!r}")


def realized_alpha(report) -> np.ndarray:
    """Overall per-step scalings beta_s * gamma_{s+1} ... gamma_T of a run,
    shaped (T, [B]) like its realized coefficients."""
    gammas = report.realized_gamma
    suffix = np.cumprod(gammas[::-1], axis=0)[::-1]
    suffix = np.concatenate([suffix[1:], np.ones_like(suffix[:1])])
    return report.realized_beta * suffix


def _q0_schedule(gir_scale, alpha_mode, q0):
    """The GIR schedule that holds q0, checked and inverted once for all the
    episodes that share it; gir_scale is read only by the greedy policy."""
    return ScalingSchedule(GIR, Q0=q0,
                           gir_scale=gir_scale if alpha_mode == "gir" else 1.0)


def _episode_noises(config, dim, tape, first):
    """The noise of each episode of a batched tape, whose episode indices
    start at first."""
    return [episode_noise(config.base_seed, first + j, tape.length, dim,
                          config.tau_kind) for j in range(tape.batch_shape[0])]


def _estimate_batch(config, params, head, tape, first):
    """Gradient estimates (B, P) of the exact and the per-episode engines
    (bptt, rtrl, spatial, reinforce) for the B episodes of a batched tape,
    whose episode indices start at first.  The per-episode engines (rtrl,
    spatial, reinforce) read slices of the tape."""
    estimator = canonical_estimator(config.estimator)
    cut = CutVertex(config.cut)
    episodes = range(tape.batch_shape[0])
    if estimator in EXACT_ESTIMATORS:
        if config.exact_method == "rtrl":
            return np.stack([rtrl_jacobians(tape.episode(j))[1].g for j in episodes])
        return bptt_gradient(tape).g
    dim = params.hidden_size if estimator == "reinforce" else params.cut_size(cut)
    noises = _episode_noises(config, dim, tape, first)
    if estimator == "reinforce":
        # the tape's losses are the noise-free baseline: no second forward
        estimates = [
            reinforce_episode(
                params, tape.inputs[j], tape.targets[j], head, config.sigma,
                noises[j],
                baseline=tape.losses[:, j] if config.baseline == "noise-free"
                else config.baseline)
            for j in episodes]
    else:
        estimates = [run_spatial(tape.episode(j), cut, noises[j]) for j in episodes]
    return np.stack([r.estimate for r in estimates])


def _rank_one_batch(config, params, tape, first, schedule, b_sum, audits):
    """uoro or preuoro on the B episodes of a batched tape, whose episode
    indices start at first, in one call.

    schedule is the GIR ScalingSchedule shared by the episodes of an update:
    it holds the spatial Q0 (none for preuoro), checked and inverted once.
    Under alpha "ours" the exact pass solves each episode's alpha before the
    run, which takes them as one (T, B) schedule; otherwise the alphas come
    from the run and the exact pass follows it.  Only "current" uoro runs
    are audited, since offline_total_estimate is the estimate of that
    contribution mode; their errors are appended to audits.  Returns the
    estimates (B, P) and b_sum plus the batch's exact B if Q0 is "ours".
    """
    estimator = canonical_estimator(config.estimator)
    cut = CutVertex(config.cut)
    noises = _episode_noises(config, params.cut_size(cut), tape, first)
    audited = [j for j in range(len(noises))
               if estimator == "uoro" and config.contribution == "current"
               and config.audit_every and (first + j) % config.audit_every == 0]
    solve = config.alpha_mode == "ours"
    run_schedule = schedule
    if solve:
        alphas, offline, b_sum = _exact_pass(config, tape, cut, schedule, noises,
                                             audited, None, b_sum)
        run_schedule = schedule.with_alpha(alphas)
    elif config.alpha_mode == "ones":
        run_schedule = schedule.with_alpha(np.ones(tape.length))
    if estimator == "uoro":
        report = run_uoro(tape, cut, noises, run_schedule,
                          contribution=config.contribution)
    else:
        report = run_preuoro(tape, noises, run_schedule)
    if not solve:
        alphas = (realized_alpha(report) if config.alpha_mode == "gir"
                  else np.ones(report.realized_beta.shape))
        _, offline, b_sum = _exact_pass(config, tape, cut, schedule, noises,
                                        audited, alphas, b_sum)
    for j, estimate in offline.items():
        scale = max(np.linalg.norm(estimate), 1e-300)
        audits.append(float(np.linalg.norm(report.estimate[j] - estimate) / scale))
    return report.estimate, b_sum


def _exact_pass(config, tape, cut, schedule, noises, audited, alphas, b_sum):
    """The exact protocol on the episodes of a batched tape: solve their
    alphas (when alphas is None) and add their exact B to the running sum
    b_sum (Q0 "ours"), from one sweep over the tape (_suffix_row_pass), and
    take the offline estimate of each audited episode from its own adjoint
    tensors (episode_tensors), built after the block's rows are freed.
    Returns the alphas (T, B), the offline estimates by episode and b_sum."""
    if alphas is None or config.q0_mode == "ours":
        alphas, b_sum = _suffix_row_pass(config, tape, cut, schedule, alphas,
                                         b_sum)
    offline = {
        j: offline_total_estimate(episode_tensors(tape.episode(j), cut),
                                  noises[j].u, alphas[:, j], schedule.Q0,
                                  schedule.Q0_inv)
        for j in audited}
    return alphas, offline, b_sum


def _suffix_row_pass(config, tape, cut, schedule, alphas, b_sum):
    """One reverse sweep gives the causal suffix rows of every episode of the
    tape (suffix_rows); each episode's alpha is solved from its own C (when
    alphas is None), and each episode's exact B is added to b_sum (Q0
    "ours").  Returns the alphas (T, B) and b_sum."""
    rows = suffix_rows(tape, cut)
    episodes = range(tape.batch_shape[0])
    if alphas is None:
        alphas = np.stack([
            solve_alpha_newton(compute_C(rows.episode(j), schedule.Q0,
                                         schedule.Q0_inv)).alpha
            for j in episodes], axis=1)
    if config.q0_mode == "ours":
        for j in episodes:
            b_episode = compute_B(rows.episode(j), alphas[:, j])
            b_sum = b_episode if b_sum is None else b_sum + b_episode
    return alphas, b_sum


def _needs_exact_pass(config) -> bool:
    """Whether the update runs the blocked exact protocol (_exact_pass: one
    suffix-row sweep per block of TENSOR_BLOCK episodes): exact alpha or Q0
    "ours", which the config allows for the rank-one sketches only."""
    return config.alpha_mode == "ours" or config.q0_mode == "ours"


def run_training(config: ExperimentConfig, out_dir=None) -> dict:
    """Train per the config; returns the summary dict and, if out_dir is
    given, writes metrics.csv and summary.json there."""
    started = time.monotonic()
    task = build_task(config)
    rng = np.random.default_rng(config.base_seed)
    params = init_params(config.cell, config.hidden, task.input_size, rng)
    head = task.make_head(rng)
    w_state = AdamState.zeros_like(params.theta())
    head_state = AdamState.zeros_like(head.weights)
    b_bar = None
    q0 = None  # identity until a Bbar exists
    rows = []
    losses_per_update = []

    if config.streaming:
        return _run_streaming(config, task, params, head, w_state, head_state,
                              out_dir, started)

    for update in range(config.updates):
        episodes = [
            task.episode(config.data_seed, update * config.minibatch + j)
            for j in range(config.minibatch)
        ]
        grad, head_grad, mean_loss, b_bar, q0, audit = _update(
            config, params, head, episodes, update, b_bar, q0
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
        losses_per_update.append(mean_loss)
        rows.append((update, config.base_seed, "loss", mean_loss))
        rows.append((update, config.base_seed, "grad_norm", float(np.linalg.norm(grad))))

    summary = {
        "config": as_dict(config),
        "final_loss": losses_per_update[-1] if losses_per_update else None,
        "min_loss": min(losses_per_update) if losses_per_update else None,
        "updates": config.updates,
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    if out_dir is not None:
        write_metrics_csv(f"{out_dir}/metrics.csv", rows)
        summary_no_clock = {k: v for k, v in summary.items() if k != "wall_clock_s"}
        write_json_summary(f"{out_dir}/summary.json", summary_no_clock)
    return summary


def _update(config, params, head, episodes, update, b_bar, q0):
    """One minibatch update, for every estimator and for the optimal-Q0 /
    exact-alpha protocol.

    The minibatch runs as one batch, or in blocks of TENSOR_BLOCK episodes
    when the config needs each episode's exact C or B (alpha or Q0 "ours"
    with a rank-one sketch): each block is one forward, one suffix-row
    sweep and one estimator call (_exact_pass), so one block's rows are
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
        schedule = _q0_schedule(config.gir_scale, config.alpha_mode, q0)
    size = TENSOR_BLOCK if _needs_exact_pass(config) else len(episodes)
    grad_sum = head_grad_sum = loss_sum = 0.0
    # a running sum keeps one N_z x N_z matrix alive instead of one per episode
    b_sum = None
    audits = []
    for start in range(0, len(episodes), size):
        grad, head_grad, loss, b_sum = _block_sums(
            config, params, head, episodes[start:start + size],
            update * config.minibatch + start, schedule, b_sum, audits)
        grad_sum = grad_sum + grad
        head_grad_sum = head_grad_sum + head_grad
        loss_sum += loss
    n = len(episodes)
    if b_sum is not None:
        b_mean = b_sum / n
        b_bar = b_mean if b_bar is None else (
            config.bbar_decay * b_bar + (1.0 - config.bbar_decay) * b_mean
        )
    audit = max(audits) if audits else None
    return grad_sum / n, head_grad_sum / n, loss_sum / n, b_bar, q0, audit


def _block_sums(config, params, head, batch, first, schedule, b_sum, audits):
    """Run the episodes of one block of a minibatch, whose episode indices
    start at first, as one batch.  Returns the block's summed gradient, head
    gradient and loss, each per supervised step, and b_sum plus the block's
    exact B; appends the block's audit errors to audits.  The block's tape
    and per-episode arrays are freed on return, before the next block runs."""
    targets = [ep[1] for ep in batch]
    tape = run_episode(params, np.stack([ep[0] for ep in batch]), targets, head)
    if schedule is not None:
        estimates, b_sum = _rank_one_batch(config, params, tape, first, schedule,
                                           b_sum, audits)
    else:
        estimates = _estimate_batch(config, params, head, tape, first)
    counts = np.array([max(sum(t is not None for t in tg), 1) for tg in targets])
    steps = [[tg[t] for tg in targets] for t in range(tape.length)]
    head_grads = head.param_grad(np.stack([c.h for c in tape.caches]), steps)
    return (np.sum(estimates / counts[:, None], axis=0),
            np.sum(head_grads.sum(axis=0) / counts[:, None, None], axis=0),
            float(np.sum(tape.total_loss() / counts)), b_sum)


def _run_streaming(config, task, params, head, w_state, head_state, out_dir,
                   started):
    """Queue streaming mode: the parameters update at every step, so the
    sketch carries stale influence (accepted and documented; the estimate is
    only unbiased for slowly moving parameters).  It runs GIR without Q0,
    the only alpha_mode and q0_mode the config admits with streaming."""
    estimator = canonical_estimator(config.estimator)
    rows = []
    losses = []
    for episode_index in range(config.updates):
        inputs, targets = task.episode(config.data_seed, episode_index)
        t_len = inputs.shape[0]
        noise = episode_noise(config.base_seed, episode_index, t_len,
                              params.hidden_size, config.tau_kind)
        schedule = ScalingSchedule(GIR, gir_scale=config.gir_scale)
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
        supervised = 0
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
            if targets[t] is not None:
                supervised += 1
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
        mean_loss = episode_loss / max(supervised, 1)
        losses.append(mean_loss)
        rows.append((episode_index, config.base_seed, "loss", mean_loss))
    summary = {
        "config": as_dict(config),
        "final_loss": losses[-1] if losses else None,
        "min_loss": min(losses) if losses else None,
        "updates": config.updates,
        "mode": "streaming",
    }
    if out_dir is not None:
        write_metrics_csv(f"{out_dir}/metrics.csv", rows)
        write_json_summary(f"{out_dir}/summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Variance reports
# ---------------------------------------------------------------------------

def build_report_instance(config: ExperimentConfig):
    """A fixed desk-scale instance: one episode tape plus its adjoint
    tensors, on which estimator variance can be measured against exact
    predictions."""
    task = build_task(config)
    rng = np.random.default_rng(config.base_seed)
    params = init_params(config.cell, config.hidden, task.input_size, rng)
    head = task.make_head(rng)
    inputs, targets = task.episode(config.data_seed, 0)
    tape = run_episode(params, inputs, targets, head)
    tensors = episode_tensors(tape, CutVertex(config.cut))
    return params, head, inputs, targets, tape, tensors


# Seeds per batched call of the rank-one estimators on a fixed tape: a block
# holds SEED_BLOCK estimate rows of P floats.
SEED_BLOCK = 64


def _seed_blocks(config, length, dim, n_seeds, seed_offset=0):
    """(start, noises) for the seeds seed_offset + i, i < n_seeds, in blocks
    of SEED_BLOCK."""
    for start in range(0, n_seeds, SEED_BLOCK):
        yield start, [
            episode_noise(config.base_seed, seed_offset + i, length, dim,
                          config.tau_kind)
            for i in range(start, min(start + SEED_BLOCK, n_seeds))
        ]


def measure_estimator(config, params, tape, tensors, estimator, schedule,
                      n_seeds, seed_offset=0):
    """Collect n_seeds estimates of one estimator on a fixed tape."""
    estimator = canonical_estimator(estimator)
    cut = CutVertex(config.cut)
    if estimator not in ("uoro", "preuoro", "spatial", *EXACT_ESTIMATORS):
        raise ValueError(f"estimator {estimator!r} not measurable here")
    estimates = np.empty((n_seeds, params.num_params))
    for start, noises in _seed_blocks(config, tape.length, params.cut_size(cut),
                                      n_seeds, seed_offset):
        block = slice(start, start + len(noises))
        if estimator == "uoro":
            estimates[block] = run_uoro(tape, cut, noises, schedule,
                                        contribution=config.contribution).estimate
        elif estimator == "preuoro":
            estimates[block] = run_preuoro(tape, noises, schedule).estimate
        elif estimator == "spatial":
            estimates[block] = [run_spatial(tape, cut, n).estimate for n in noises]
        else:
            estimates[block] = bptt_gradient(tape).g
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
    schedule = _q0_schedule(config.gir_scale, alpha_mode, q0)
    if alpha_mode == "ours":
        alpha = solve_alpha_newton(
            compute_C(tensors, schedule.Q0, schedule.Q0_inv)).alpha
        schedule = schedule.with_alpha(alpha)
        predicted = predicted_VQ(tensors, alpha, q0)
    else:
        predicted = None  # resolved below from realized alphas (upper estimate)
    estimates = measure_estimator(config, params, tape, tensors, "uoro",
                                  schedule, n_seeds)
    if predicted is None:
        # noise-dependent coefficients: average the per-seed predictions
        cut = CutVertex(config.cut)
        sample = []
        for _, noises in _seed_blocks(config, tape.length, params.cut_size(cut),
                                      min(n_seeds, 64)):
            alphas = realized_alpha(run_uoro(tape, cut, noises, schedule))
            sample.extend(predicted_VQ(tensors, a, q0) for a in alphas.T)
        predicted = float(np.mean(sample))
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


def run_variance_report(config: ExperimentConfig, out_dir=None) -> dict:
    """The four-cell {Q0} x {alpha} grid plus the estimator-ablation grid
    {neither, spatial, temporal, both}, on one fixed instance."""
    params, head, inputs, targets, tape, tensors = build_report_instance(config)
    exact = bptt_gradient(tape)
    n_seeds = config.num_seeds
    cells = []
    for q0_mode in ("identity", "ours"):
        for alpha_mode in ("gir", "ours"):
            cells.append(
                _grid_cell(config, params, tape, tensors, q0_mode, alpha_mode,
                           n_seeds, exact.g)
            )
    ablation = []
    for name in ("neither", "spatial", "temporal", "both"):
        estimator = canonical_estimator(name)
        if estimator in EXACT_ESTIMATORS:
            ablation.append({"estimator": name, "measured_vq": 0.0,
                             "measured_actual": 0.0,
                             "intrinsic": float(exact.g @ exact.g),
                             "mean_error": 0.0, "seeds": 1})
            continue
        schedule = ScalingSchedule(GIR, gir_scale=config.gir_scale)
        estimates = measure_estimator(config, params, tape, tensors, estimator,
                                      schedule, n_seeds)
        measured = empirical_variance(estimates, exact)
        mean_err = float(np.linalg.norm(estimates.mean(axis=0) - exact.g))
        ablation.append({
            "estimator": name,
            "measured_vq": measured.vq,
            "measured_actual": measured.actual,
            "intrinsic": measured.intrinsic,
            "mean_error": mean_err,
            "seeds": n_seeds,
        })
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
    """Mean-estimate error and measured variance for each ablation arm."""
    params, head, inputs, targets, tape, tensors = build_report_instance(config)
    exact = bptt_gradient(tape)
    results = []
    for name in ("neither", "spatial", "temporal", "both"):
        estimator = canonical_estimator(name)
        if estimator in EXACT_ESTIMATORS:
            results.append({"estimator": name, "mean_error": 0.0,
                            "measured_actual": 0.0, "seeds": 1})
            continue
        schedule = ScalingSchedule(GIR, gir_scale=config.gir_scale)
        estimates = measure_estimator(config, params, tape, tensors, estimator,
                                      schedule, config.num_seeds)
        measured = empirical_variance(estimates, exact)
        results.append({
            "estimator": name,
            "mean_error": float(np.linalg.norm(estimates.mean(axis=0) - exact.g)),
            "measured_actual": measured.actual,
            "seeds": config.num_seeds,
        })
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
