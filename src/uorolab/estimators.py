"""Stochastic online gradient estimators.

All estimators consume an EpisodeTape (parameters frozen within the episode)
plus an EpisodeNoise, and return a GradientReport.  The rank-one sketch
(h_tilde, w_tilde) of the state-to-parameter influence matrix is maintained
by the pair of recursions

    h~_t = gamma_t J_state h~_{t-1} + beta_t J_cut Q0 u_t
    w~_t = (1/gamma_t) w~_{t-1} + (1/beta_t) u_t^T Q0^{-1} J_theta

with (gamma, beta) either rescaled greedily per step to equalize the
cross-term norms ("gir") or derived from a supplied per-step alpha schedule
("fixed-alpha").  Q0 shapes the spatial noise; the identity recovers the
plain recursions.  The per-step gradient contribution is
(dL_t/dh_t . h~_t) w~_t.

preUORO exploits the rank-one structure of the preactivation-to-parameter
Jacobian to skip the spatial projection: the sketch carries a full S x N_z
matrix forward and only scalar temporal noise remains.

The perturbed-state score-function estimator (REINFORCE) runs the network
with Gaussian state noise sigma Q u_t and weights the accumulated score by
the realized losses; with a noise-free baseline and sigma -> 0 it converges
to the plain UORO estimate on the same noise.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import rnn
from .errors import NumericOverflowError, ShapeError, SingularMatrixError
from .linalg import sqrt_ratio_or_one
from .noise import EpisodeNoise
from .rnn import CutVertex, EpisodeTape

GIR = "gir"
FIXED_ALPHA = "fixed-alpha"

MAX_Q0_CONDITION = 1e8


@dataclass
class RankOneState:
    h_tilde: np.ndarray  # (S,)
    w_tilde: np.ndarray  # (P,)


@dataclass
class PreUoroState:
    H_tilde: np.ndarray  # (S, N_z)
    w_tilde: np.ndarray  # (A,)


@dataclass
class GradientReport:
    """A total gradient estimate plus provenance."""

    estimator: str
    base_seed: int
    episode_index: int
    estimate: np.ndarray
    per_step: np.ndarray | None = None  # (T, P) contributions
    realized_gamma: np.ndarray | None = None
    realized_beta: np.ndarray | None = None


class ScalingSchedule:
    """Variance-reduction degrees of freedom: mode, Q0 and the per-step
    scalars.

    mode "gir" computes (gamma_t, beta_t) greedily from the running sketch;
    mode "fixed-alpha" takes a positive per-step alpha vector and realizes it
    as beta_s = alpha_s / g^(T-s), gamma = g constant (the geometric average
    ratio of consecutive alphas), which reproduces exactly the same estimate.
    gir_scale multiplies both greedy coefficients, exposing the free overall
    scale of the greedy solution (their ratio is what the rescaling pins).
    """

    def __init__(self, mode: str = GIR, Q0: np.ndarray | None = None,
                 alpha: np.ndarray | None = None, gir_scale: float = 1.0):
        if mode not in (GIR, FIXED_ALPHA):
            raise ValueError(f"unknown schedule mode {mode!r}")
        self.mode = mode
        self.gir_scale = float(gir_scale)
        if self.gir_scale <= 0:
            raise ValueError("gir_scale must be positive")
        self.Q0 = None
        self.Q0_inv = None
        if Q0 is not None:
            self.Q0, self.Q0_inv = _checked_q0(Q0)
        self.alpha = None
        self._beta = None
        self._gamma = None
        if mode == FIXED_ALPHA:
            if alpha is None:
                raise ValueError("fixed-alpha mode needs an alpha vector")
            self._set_alpha(alpha)

    def _set_alpha(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        if np.any(alpha <= 0):
            raise ValueError("alpha entries must be positive")
        from .variance import alpha_to_beta_gamma

        self.alpha = alpha
        self._beta, self._gamma = alpha_to_beta_gamma(alpha)

    def with_alpha(self, alpha: np.ndarray) -> "ScalingSchedule":
        """A fixed-alpha copy that shares this schedule's already checked
        Q0 and Q0^{-1}, so a Q0 used for many episodes is inverted once."""
        schedule = copy.copy(self)
        schedule.mode = FIXED_ALPHA
        schedule._set_alpha(alpha)
        return schedule

    def fixed_coefficients(self, t: int):
        """(gamma_t, beta_t) for 0-indexed step t in fixed-alpha mode."""
        gamma = 1.0 if t == 0 else float(self._gamma[t - 1])
        return gamma, float(self._beta[t])

    def shape_spatial(self, v: np.ndarray) -> np.ndarray:
        return v if self.Q0 is None else self.Q0 @ v

    def unshape_spatial(self, v: np.ndarray) -> np.ndarray:
        """Q0^{-T} v, so that (unshape(u))^T J = u^T Q0^{-1} J."""
        return v if self.Q0_inv is None else self.Q0_inv.T @ v


def _checked_q0(Q0: np.ndarray):
    """(Q0, Q0^{-1}) for a square spatial matrix whose condition number is at
    most MAX_Q0_CONDITION; raises SingularMatrixError otherwise."""
    Q0 = np.asarray(Q0, dtype=np.float64)
    if Q0.ndim != 2 or Q0.shape[0] != Q0.shape[1]:
        raise ShapeError("Q0 must be square")
    cond = np.linalg.cond(Q0)
    if not np.isfinite(cond) or cond > MAX_Q0_CONDITION:
        raise SingularMatrixError(
            f"Q0 condition number {cond:.3e} exceeds {MAX_Q0_CONDITION:.0e}"
        )
    return Q0, np.linalg.inv(Q0)


def uoro_step(state: RankOneState, cache, cut, u: np.ndarray,
              schedule: ScalingSchedule, t: int):
    """Advance the rank-one sketch one step.

    In "gir" mode the coefficients equalize the cross-term norms:

        gamma_t^2 = ||w~_{t-1}|| / ||J_state h~_{t-1}||
        beta_t^2  = ||u^T Q0^{-1} J_theta|| / ||J_cut Q0 u||

    Degenerate ratios (zero norms, first step) fall back to 1, which leaves
    the rank-one expansion intact.
    Returns (new state, gamma_t, beta_t).  Raises NumericOverflowError naming
    the step if the propagated quantities leave the float range.
    """
    forwarded = rnn.jvp_state(cache, state.h_tilde)
    spatial_in = rnn.jvp_cut(cache, cut, schedule.shape_spatial(u))
    spatial_out = rnn.vjp_cut(cache, cut, schedule.unshape_spatial(u))
    if schedule.mode == GIR:
        gamma = sqrt_ratio_or_one(
            float(np.linalg.norm(state.w_tilde)), float(np.linalg.norm(forwarded))
        ) * schedule.gir_scale
        beta = sqrt_ratio_or_one(
            float(np.linalg.norm(spatial_out)), float(np.linalg.norm(spatial_in))
        ) * schedule.gir_scale
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    with np.errstate(over="ignore", invalid="ignore"):
        h_tilde = gamma * forwarded + beta * spatial_in
        w_tilde = state.w_tilde / gamma + spatial_out / beta
    if not (np.all(np.isfinite(h_tilde)) and np.all(np.isfinite(w_tilde))):
        raise NumericOverflowError(f"rank-one sketch overflowed at step {t}")
    return RankOneState(h_tilde, w_tilde), gamma, beta


def uoro_contribution(state: RankOneState, loss_grad_full: np.ndarray) -> np.ndarray:
    """Per-step gradient contribution (dL_t/d state . h~_t) w~_t."""
    return float(loss_grad_full @ state.h_tilde) * state.w_tilde


CONTRIBUTION_CURRENT = "current"  # (g_t . h~_t) w~_t
CONTRIBUTION_STALE_W = "stale-w"  # (g_t . h~_t) w~_{t-1}
CONTRIBUTION_SPLIT = "split"  # exact immediate + forwarded previous sketch


def run_uoro(tape: EpisodeTape, cut, noise: EpisodeNoise,
             schedule: ScalingSchedule,
             contribution: str = CONTRIBUTION_CURRENT,
             estimator_name: str = "uoro") -> GradientReport:
    """Run the rank-one estimator over a full episode tape."""
    params = tape.params
    cut = CutVertex(cut) if not isinstance(cut, CutVertex) else cut
    n_z = params.cut_size(cut)
    if noise.dim != n_z:
        raise ShapeError(f"noise dim {noise.dim} != cut dim {n_z}")
    if schedule.Q0 is not None and schedule.Q0.shape[0] != n_z:
        raise ShapeError(f"Q0 shape {schedule.Q0.shape} != cut dim ({n_z}, {n_z})")
    state = RankOneState(np.zeros(params.state_size), np.zeros(params.num_params))
    per_step = np.zeros((tape.length, params.num_params))
    gammas = np.zeros(tape.length)
    betas = np.zeros(tape.length)
    u = noise.u
    for t in range(tape.length):
        prev = state
        state, gammas[t], betas[t] = uoro_step(state, tape.caches[t], cut, u[t], schedule, t)
        g_full = tape.loss_grad_full(t)
        if contribution == CONTRIBUTION_CURRENT:
            per_step[t] = uoro_contribution(state, g_full)
        elif contribution == CONTRIBUTION_STALE_W:
            per_step[t] = float(g_full @ state.h_tilde) * prev.w_tilde
        elif contribution == CONTRIBUTION_SPLIT:
            immediate = rnn.vjp_params(tape.caches[t], g_full)
            carried = float(g_full @ rnn.jvp_state(tape.caches[t], prev.h_tilde))
            per_step[t] = immediate + carried * prev.w_tilde
        else:
            raise ValueError(f"unknown contribution mode {contribution!r}")
    return GradientReport(
        estimator=estimator_name,
        base_seed=noise.base_seed,
        episode_index=noise.episode_index,
        estimate=per_step.sum(axis=0),
        per_step=per_step,
        realized_gamma=gammas,
        realized_beta=betas,
    )


def preuoro_step(state: PreUoroState, cache, tau_t: float,
                 schedule: ScalingSchedule, t: int):
    """Advance the projection-free sketch one step (preactivation cut only).

    H~_t = gamma_t J_state H~_{t-1} + beta_t tau_t J_cut
    w~_t = (1/gamma_t) w~_{t-1} + (tau_t/beta_t) a_t
    """
    if schedule.Q0 is not None:
        raise ValueError("the projection-free sketch takes no spatial Q0")
    forwarded = rnn.dense_state_jacobian(cache) @ state.H_tilde
    immediate = rnn.dense_cut_jacobian(cache, CutVertex.PREACTIVATION)
    if schedule.mode == GIR:
        gamma = sqrt_ratio_or_one(
            float(np.linalg.norm(state.w_tilde)),
            float(np.linalg.norm(forwarded)),
        ) * schedule.gir_scale
        beta = sqrt_ratio_or_one(
            float(np.linalg.norm(cache.a)), float(np.linalg.norm(immediate))
        ) * schedule.gir_scale
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    with np.errstate(over="ignore", invalid="ignore"):
        H_tilde = gamma * forwarded + beta * tau_t * immediate
        w_tilde = state.w_tilde / gamma + (tau_t / beta) * cache.a
    if not (np.all(np.isfinite(H_tilde)) and np.all(np.isfinite(w_tilde))):
        raise NumericOverflowError(f"projection-free sketch overflowed at step {t}")
    return PreUoroState(H_tilde, w_tilde), gamma, beta


def preuoro_contribution(state: PreUoroState, loss_grad_full: np.ndarray) -> np.ndarray:
    """vec of the outer product (H~_t^T dL/dstate) w~_t^T, row-major."""
    return np.outer(state.H_tilde.T @ loss_grad_full, state.w_tilde).reshape(-1)


def run_preuoro(tape: EpisodeTape, noise: EpisodeNoise,
                schedule: ScalingSchedule,
                estimator_name: str = "preuoro") -> GradientReport:
    params = tape.params
    n_z = params.preactivation_size
    state = PreUoroState(
        np.zeros((params.state_size, n_z)), np.zeros(params.augmented_size)
    )
    per_step = np.zeros((tape.length, params.num_params))
    gammas = np.zeros(tape.length)
    betas = np.zeros(tape.length)
    for t in range(tape.length):
        state, gammas[t], betas[t] = preuoro_step(
            state, tape.caches[t], float(noise.tau[t]), schedule, t
        )
        per_step[t] = preuoro_contribution(state, tape.loss_grad_full(t))
    return GradientReport(
        estimator=estimator_name,
        base_seed=noise.base_seed,
        episode_index=noise.episode_index,
        estimate=per_step.sum(axis=0),
        per_step=per_step,
        realized_gamma=gammas,
        realized_beta=betas,
    )


def run_spatial(tape: EpisodeTape, cut, noise: EpisodeNoise,
                estimator_name: str = "spatial") -> GradientReport:
    """Forward accumulation with the immediate influence replaced by its
    rank-one spatial projection (J_cut nu)(nu^T J_theta); no temporal noise.
    """
    params = tape.params
    cut = CutVertex(cut) if not isinstance(cut, CutVertex) else cut
    if params.num_params * params.state_size > rnn.DENSE_GUARD:
        raise ShapeError("influence matrix too large for the spatial estimator")
    influence = np.zeros((params.state_size, params.num_params))
    per_step = np.zeros((tape.length, params.num_params))
    for t in range(tape.length):
        cache = tape.caches[t]
        nu = noise.nu[t]
        j_state = rnn.dense_state_jacobian(cache)
        influence = j_state @ influence + np.outer(
            rnn.jvp_cut(cache, cut, nu), rnn.vjp_cut(cache, cut, nu)
        )
        per_step[t] = tape.loss_grad_full(t) @ influence
    return GradientReport(
        estimator=estimator_name,
        base_seed=noise.base_seed,
        episode_index=noise.episode_index,
        estimate=per_step.sum(axis=0),
        per_step=per_step,
    )


BASELINE_NONE = "none"
BASELINE_NOISE_FREE = "noise-free"


def reinforce_episode(params: rnn.RnnParams, inputs, targets, head,
                      sigma: float, noise: EpisodeNoise,
                      Q0: np.ndarray | None = None,
                      baseline=BASELINE_NOISE_FREE) -> GradientReport:
    """Score-function gradient estimate for the state-perturbed network.

    Runs h_t = F(state with h-part h_bar_{t-1}), h_bar_t = h_t + sigma Q0 u_t,
    maintains the trajectory score

        w_bar_t = w_bar_{t-1} + (1/sigma) u_t^T Q0^{-1} d h_t / d theta_t

    (local parameter Jacobian, evaluated in the noisy system) and returns
    sum_t (L_t - baseline_t) w_bar_t.  L_t is the loss at the perturbed state
    h_bar_t, treated as a given scalar: only the score term is differentiated.

    baseline may be "none", "noise-free" (L_t of the unperturbed network on
    the same inputs), or an explicit per-step array.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    t_len = inputs.shape[0]
    h_size = params.hidden_size
    if noise.dim != h_size:
        raise ShapeError(f"noise dim {noise.dim} != hidden size {h_size}")
    q0, q0_inv = (None, None) if Q0 is None else _checked_q0(Q0)
    if q0 is not None and q0.shape[0] != h_size:
        raise ShapeError(f"Q0 shape {q0.shape} != hidden size ({h_size}, {h_size})")

    if isinstance(baseline, str) and baseline == BASELINE_NOISE_FREE:
        clean = rnn.run_episode(params, inputs, targets, head)
        baseline_values = clean.losses
    elif baseline is None or (isinstance(baseline, str) and baseline == BASELINE_NONE):
        baseline_values = np.zeros(t_len)
    elif isinstance(baseline, str):
        raise ValueError(f"unknown baseline mode {baseline!r}")
    else:
        baseline_values = np.asarray(baseline, dtype=np.float64)

    u = noise.u
    state = np.zeros(params.state_size)
    w_bar = np.zeros(params.num_params)
    per_step = np.zeros((t_len, params.num_params))
    for t in range(t_len):
        state, cache = rnn.step(params, state, inputs[t])
        score_dir = rnn.embed_state_grad(
            params, u[t] if q0 is None else q0_inv.T @ u[t])
        w_bar = w_bar + rnn.vjp_params(cache, score_dir) / sigma
        h_bar = state[:h_size] + sigma * (u[t] if q0 is None else q0 @ u[t])
        state = state.copy()
        state[:h_size] = h_bar
        loss_t, _ = rnn.loss_grad(h_bar, targets[t], head)
        per_step[t] = (loss_t - baseline_values[t]) * w_bar
    return GradientReport(
        estimator="reinforce",
        base_seed=noise.base_seed,
        episode_index=noise.episode_index,
        estimate=per_step.sum(axis=0),
        per_step=per_step,
    )
