"""Experiment orchestration: training loops, variance reports, estimator
comparisons.

The per-episode protocol with the optimal spatial matrix follows the
exact-computation recipe: hold a running average Bbar across minibatches,
set Q0 = (Bbar + damping * mean-eig * I)^{-1/4} for the next minibatch,
solve for alpha exactly per episode where requested, and fold the episode's
exact B (computed with the alpha actually used) back into Bbar.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import batch as batch_mod
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
from .exact import bptt_gradient, episode_tensors, rtrl_jacobians
from .noise import episode_noise
from .optim import AdamState, adam_update
from .reports import write_json_summary, write_metrics_csv
from .rnn import BernoulliHead, CutVertex, SoftmaxHead, init_params, run_episode
from .tasks import QueueSpec, load_rowwise_digits, make_queue_episode
from .variance import (
    alpha_to_beta_gamma,
    compute_B,
    compute_C,
    empirical_variance,
    offline_total_estimate,
    optimal_Q0,
    predicted_VQ,
    solve_alpha_newton,
)

EXACT_ESTIMATORS = ("bptt", "rtrl")


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
    """Overall per-step scalings beta_s * gamma_{s+1} ... gamma_T of a run."""
    gammas = report.realized_gamma
    suffix = np.concatenate([np.cumprod(gammas[::-1])[::-1][1:], [1.0]])
    return report.realized_beta * suffix


def _q0_schedule(gir_scale, alpha_mode, q0):
    """The GIR schedule that holds q0, checked and inverted once for all the
    episodes that share it; gir_scale is read only by the greedy policy."""
    return ScalingSchedule(GIR, Q0=q0,
                           gir_scale=gir_scale if alpha_mode == "gir" else 1.0)


def _episode_schedule(config, tape, tensors, schedule):
    """Resolve the alpha policy for one episode from the GIR schedule that
    holds the update's checked Q0 and its inverse."""
    if config.alpha_mode == "gir":
        return schedule, None
    if config.alpha_mode == "ones":
        alpha = np.ones(tape.length)
    elif config.alpha_mode == "ours":
        alpha = solve_alpha_newton(
            compute_C(tensors, schedule.Q0, schedule.Q0_inv)).alpha
    else:
        raise ValueError(f"unknown alpha mode {config.alpha_mode!r}")
    return schedule.with_alpha(alpha), alpha


def _estimate_episode(config, params, tape, noise, schedule, tensors=None):
    """One gradient estimate per the configured estimator.

    schedule is the GIR ScalingSchedule shared by the episodes of an update:
    it holds the spatial Q0 (none for preuoro), checked and inverted once,
    and the rank-one estimators specialize it to the episode's alpha policy.
    Returns (estimate vector, realized alpha or None, report or None).
    """
    estimator = canonical_estimator(config.estimator)
    cut = CutVertex(config.cut)
    if estimator in EXACT_ESTIMATORS:
        if config.exact_method == "rtrl":
            _, grad = rtrl_jacobians(tape)
        else:
            grad = bptt_gradient(tape)
        return grad.g, None, None
    if estimator == "spatial":
        report = run_spatial(tape, cut, noise)
        return report.estimate, None, report
    if estimator in ("uoro", "preuoro"):
        schedule, alpha = _episode_schedule(config, tape, tensors, schedule)
        if estimator == "uoro":
            report = run_uoro(tape, cut, noise, schedule,
                              contribution=config.contribution)
        else:
            report = run_preuoro(tape, noise, schedule)
        return report.estimate, (alpha if alpha is not None else realized_alpha(report)), report
    raise ValueError(f"unknown estimator {config.estimator!r}")


def _needs_tensors(config) -> bool:
    return config.alpha_mode == "ours" or config.q0_mode == "ours"


def _fast_path(config) -> bool:
    return (
        config.task == "queue"
        and config.cell == "vanilla-tanh"
        and canonical_estimator(config.estimator) in ("bptt", "rtrl", "uoro", "preuoro")
        and config.cut == "preactivation"
        and config.alpha_mode in ("gir", "ones")
        and config.q0_mode == "identity"
        and not config.streaming
        and config.contribution == "current"
        and config.exact_method == "bptt"
    )


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
    estimator = canonical_estimator(config.estimator)
    b_bar = None
    q0 = None  # identity until a Bbar exists
    rows = []
    losses_per_update = []
    audits = []

    if config.streaming:
        if config.task != "queue" or estimator not in ("uoro", "preuoro"):
            raise ValueError("streaming mode covers queue training with the "
                             "rank-one estimators")
        return _run_streaming(config, task, params, head, w_state, head_state,
                              out_dir, started)

    fast = _fast_path(config)
    for update in range(config.updates):
        episodes = [
            task.episode(config.data_seed, update * config.minibatch + j)
            for j in range(config.minibatch)
        ]
        if fast:
            grad, head_grad, mean_loss = _fast_queue_update(
                config, params, head, episodes, update
            )
        else:
            grad, head_grad, mean_loss, b_bar, q0, audit = _generic_update(
                config, params, head, episodes, update, b_bar, q0
            )
            if audit is not None:
                audits.append(audit)
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


def _fast_queue_update(config, params, head, episodes, update):
    """Vectorized minibatch update for the vanilla queue configuration."""
    estimator = canonical_estimator(config.estimator)
    inputs = np.stack([ep[0] for ep in episodes])  # (B, T, 1)
    t_len = inputs.shape[1]
    bits = np.zeros((t_len, len(episodes)))
    mask = np.zeros(t_len, dtype=bool)
    for t in range(t_len):
        if episodes[0][1][t] is not None:
            mask[t] = True
            bits[t] = [float(ep[1][t][0]) for ep in episodes]
    tape = batch_mod.forward_batch(params, inputs)
    head_grad = batch_mod.attach_bernoulli_losses(tape, head.weights, bits, mask)
    supervised = tape.supervised.sum()
    if estimator in EXACT_ESTIMATORS:
        per_episode = batch_mod.bptt_batch(params, tape)
    else:
        base = update * config.minibatch
        noises = [
            episode_noise(config.base_seed, base + j, t_len, params.hidden_size,
                          config.tau_kind)
            for j in range(len(episodes))
        ]
        abg = None
        mode = config.alpha_mode
        if mode == "ones":
            abg = alpha_to_beta_gamma(np.ones(t_len))
            mode = "fixed"
        if estimator == "uoro":
            u = np.stack([n.u for n in noises], axis=1)  # (T, B, H)
            per_episode, _, _ = batch_mod.uoro_batch(
                params, tape, u, mode=mode, alpha_beta_gamma=abg,
                gir_scale=config.gir_scale)
        else:
            tau = np.stack([n.tau for n in noises], axis=1)
            per_episode, _, _ = batch_mod.preuoro_batch(
                params, tape, tau, mode=mode, alpha_beta_gamma=abg,
                gir_scale=config.gir_scale)
    per_steps = tape.supervised.sum(axis=0)  # (B,)
    grad = np.mean(per_episode / per_steps[:, None, None], axis=0).reshape(-1)
    mean_loss = float(tape.losses.sum() / supervised)
    return grad, head_grad, mean_loss


def _generic_update(config, params, head, episodes, update, b_bar, q0):
    """Per-episode minibatch update; handles every estimator and the
    optimal-Q0 / exact-alpha protocol."""
    estimator = canonical_estimator(config.estimator)
    grads = []
    head_grads = []
    losses = []
    supervised_counts = []
    # a running sum keeps one N_z x N_z matrix alive instead of one per episode
    b_sum, b_count = None, 0
    audit = None
    if config.q0_mode == "ours" and b_bar is not None:
        q0 = optimal_Q0(b_bar, damping=config.damping)
    # q0 is fixed for the whole update: check and invert it once here (the
    # projection-free sketch takes no Q0)
    schedule = None
    if estimator in ("uoro", "preuoro"):
        schedule = _q0_schedule(config.gir_scale, config.alpha_mode,
                                q0 if estimator == "uoro" else None)
    for j, (inputs, targets) in enumerate(episodes):
        index = update * config.minibatch + j
        tape = run_episode(params, inputs, targets, head)
        tensors = None
        if _needs_tensors(config) or (
            config.audit_every and index % config.audit_every == 0
            and estimator in ("uoro",)
        ):
            tensors = episode_tensors(tape, CutVertex(config.cut))
        if estimator == "reinforce":
            noise = episode_noise(config.base_seed, index, tape.length,
                                  params.hidden_size, config.tau_kind)
            report = reinforce_episode(params, inputs, targets, head,
                                       config.sigma, noise,
                                       baseline=config.baseline)
            estimate, alpha = report.estimate, None
        else:
            # exact arms consume no noise draws (oracle mode)
            noise = None
            if estimator not in EXACT_ESTIMATORS:
                cut_dim = params.cut_size(CutVertex(config.cut))
                noise = episode_noise(config.base_seed, index, tape.length,
                                      cut_dim, config.tau_kind)
            estimate, alpha, report = _estimate_episode(
                config, params, tape, noise, schedule, tensors
            )
            if (
                tensors is not None and estimator == "uoro"
                and config.audit_every and index % config.audit_every == 0
            ):
                offline = offline_total_estimate(tensors, noise.u, alpha,
                                                 schedule.Q0, schedule.Q0_inv)
                scale = max(np.linalg.norm(offline), 1e-300)
                audit = float(np.linalg.norm(estimate - offline) / scale)
        if config.q0_mode == "ours" and alpha is not None:
            b_episode = compute_B(tensors, alpha)
            b_sum = b_episode if b_sum is None else b_sum + b_episode
            b_count += 1
        n_sup = sum(1 for t in targets if t is not None)
        supervised_counts.append(max(n_sup, 1))
        grads.append(estimate / supervised_counts[-1])
        head_grads.append(
            sum(
                (head.param_grad(tape.caches[t].h, targets[t])
                 for t in range(tape.length)),
                start=np.zeros_like(head.weights),
            ) / supervised_counts[-1]
        )
        losses.append(tape.total_loss() / supervised_counts[-1])
    if b_count:
        b_mean = b_sum / b_count
        b_bar = b_mean if b_bar is None else (
            config.bbar_decay * b_bar + (1.0 - config.bbar_decay) * b_mean
        )
    grad = np.mean(np.stack(grads), axis=0)
    head_grad = np.mean(np.stack(head_grads), axis=0)
    return grad, head_grad, float(np.mean(losses)), b_bar, q0, audit


def _run_streaming(config, task, params, head, w_state, head_state, out_dir,
                   started):
    """Queue streaming mode: the parameters update at every step, so the
    sketch carries stale influence (accepted and documented; the estimate is
    only unbiased for slowly moving parameters)."""
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


def measure_estimator(config, params, tape, tensors, estimator, schedule,
                      n_seeds, seed_offset=0):
    """Collect n_seeds estimates of one estimator on a fixed tape."""
    estimator = canonical_estimator(estimator)
    cut = CutVertex(config.cut)
    cut_dim = params.cut_size(cut)
    estimates = np.empty((n_seeds, params.num_params))
    for i in range(n_seeds):
        noise = episode_noise(config.base_seed, seed_offset + i, tape.length,
                              cut_dim, config.tau_kind)
        if estimator == "uoro":
            estimates[i] = run_uoro(tape, cut, noise, schedule,
                                    contribution=config.contribution).estimate
        elif estimator == "preuoro":
            estimates[i] = run_preuoro(tape, noise, schedule).estimate
        elif estimator == "spatial":
            estimates[i] = run_spatial(tape, cut, noise).estimate
        elif estimator in EXACT_ESTIMATORS:
            estimates[i] = bptt_gradient(tape).g
        else:
            raise ValueError(f"estimator {estimator!r} not measurable here")
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
        sample = []
        cut_dim = params.cut_size(CutVertex(config.cut))
        for i in range(min(n_seeds, 64)):
            noise = episode_noise(config.base_seed, i, tape.length, cut_dim,
                                  config.tau_kind)
            report = run_uoro(tape, CutVertex(config.cut), noise, schedule)
            sample.append(predicted_VQ(tensors, realized_alpha(report), q0))
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
