"""Stochastic online gradient estimators.

All estimators consume an EpisodeTape (parameters frozen within the episode)
plus its noise, and return a GradientReport.  The noise is one EpisodeNoise
or a NoiseBlock of B episodes of one base seed, and its first T steps drive a
tape of T steps; a shorter noise raises ShapeError before any step.  The
rank-one sketches and REINFORCE are batch-first: given a NoiseBlock they
advance B episodes of a batched tape, or B seeds on one tape, in one pass,
with one estimate row per episode or seed; the spatial ablation takes a
block too and runs its rows one at a time.  The rank-one sketch
(h_tilde, w_tilde) of the state-to-parameter influence matrix is maintained
by the pair of recursions

    h~_t = gamma_t J_state h~_{t-1} + beta_t J_cut Q0 u_t
    w~_t = (1/gamma_t) w~_{t-1} + (1/beta_t) u_t^T Q0^{-1} J_theta

with (gamma, beta) either rescaled greedily per step to equalize the
cross-term norms ("gir") or derived from a supplied per-step alpha schedule
("fixed-alpha").  Q0 shapes the spatial noise; the identity recovers the
plain recursions.  The per-step gradient contribution is
(dL_t/dh_t . h~_t) w~_t.  Under the greedy rescaling a sketch that cancels to
roundoff of its two terms is set exactly to zero, so that its last bits
cannot pick the next coefficient.

Over a whole tape w~ is never formed: every term u_r^T Q0^{-1} J_theta,r is
the rank-one vec(L_r a_r^T) at either cut, so run_uoro carries w~_t as its
coefficients over those terms and contracts the estimate once at the end.
uoro_step is the same recursion with a dense w~, for streaming updates and
as the test oracle.

preUORO exploits the rank-one structure of the preactivation-to-parameter
Jacobian to skip the spatial projection: the sketch carries a full S x N_z
matrix forward and only scalar temporal noise remains.  Its immediate term
beta_t tau_t J_cut is sparse (the diagonal f'(z) of the vanilla cell, 7H
gate entries of the LSTM), so each step adds it at the nonzeros of J_cut
into the forwarded sketch, which run_preuoro writes into one of two reused
buffers, and under GIR takes the new sketch's norm from scalars: one
Frobenius pass over the forwarded sketch and sums over the nonzeros.  The
sketch is held as gamma_t times its rows, and the next step folds that
scalar into J_state's per-row factors, so no step rescales the rows.

The perturbed-state score-function estimator (REINFORCE) runs the network
with Gaussian state noise sigma Q u_t and weights the trajectory score by
the realized losses; with a noise-free baseline and sigma -> 0 it converges
to the plain UORO estimate on the same noise.  It too is batch-first: B
seeds or B episodes, and the noise-free baseline, are rows of one sweep.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import rnn
from .errors import (
    NumericOverflowError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import sqrt_ratio_or_one
from .noise import EpisodeNoise, NoiseBlock
from .rnn import CutVertex, EpisodeTape, outer_rows

GIR = "gir"
FIXED_ALPHA = "fixed-alpha"

MAX_Q0_CONDITION = 1e8
# Under GIR a new sketch (h~, w~ or H~) whose norm is at most this multiple of
# eps times the summed norms of the two terms it was formed from is exact
# cancellation plus roundoff, and is set to zero.
CANCEL_EPS_MULTIPLE = 16
_CANCEL_RTOL = CANCEL_EPS_MULTIPLE * np.finfo(np.float64).eps
# A norm taken from the Gram of the rank-one terms of w~ is off by about
# eps * scale^2 in its square, so below this fraction of the scale it cannot
# decide the cancellation rule; such a row is formed densely instead.
GRAM_NORM_RTOL = 1e-6


@dataclass
class RankOneState:
    h_tilde: np.ndarray  # ([B,] S)
    w_tilde: np.ndarray  # ([B,] P)


@dataclass
class PreUoroState:
    """The projection-free sketch: H~ = scale * H_tilde, with a scalar or
    per-row scale, and w~."""

    H_tilde: np.ndarray  # ([B,] S, N_z)
    w_tilde: np.ndarray  # ([B,] A)
    scale: float | np.ndarray = 1.0  # () or ([B])


@dataclass
class GradientReport:
    """A total gradient estimate plus provenance; batched runs hold one row
    per episode or seed, and tuples of seeds and indices."""

    estimator: str
    base_seed: int | tuple
    episode_index: int | tuple
    estimate: np.ndarray  # ([B,] P)
    realized_gamma: np.ndarray | None = None  # (T, [B])
    realized_beta: np.ndarray | None = None  # (T, [B])


class ScalingSchedule:
    """Variance-reduction degrees of freedom: mode, Q0 and the per-step
    scalars.

    mode "gir" computes (gamma_t, beta_t) greedily from the running sketch;
    mode "fixed-alpha" takes a positive per-step alpha vector and realizes it
    as beta_s = alpha_s / g^(T-s), gamma = g constant (the geometric average
    ratio of consecutive alphas), which reproduces exactly the same estimate.
    A (T, B) alpha holds one such schedule per row of a batched run.
    """

    def __init__(self, mode: str = GIR, Q0: np.ndarray | None = None,
                 alpha: np.ndarray | None = None):
        if mode not in (GIR, FIXED_ALPHA):
            raise ValueError(f"unknown schedule mode {mode!r}")
        self.mode = mode
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
        self.alpha = alpha
        self._beta, self._gamma = alpha_to_beta_gamma(alpha)

    def with_alpha(self, alpha: np.ndarray) -> "ScalingSchedule":
        """A fixed-alpha copy that shares this schedule's already checked
        Q0 and Q0^{-1}, so a Q0 used for many episodes is inverted once.

        alpha is (T,), one schedule for every row, or (T, B), column j for
        row j of a batch of B episodes or seeds."""
        schedule = copy.copy(self)
        schedule.mode = FIXED_ALPHA
        schedule._set_alpha(alpha)
        return schedule

    def fixed_coefficients(self, t: int):
        """(gamma_t, beta_t) for 0-indexed step t in fixed-alpha mode:
        scalars, or (B,) rows under a (T, B) alpha (gamma_0 is 1)."""
        gamma = 1.0 if t == 0 else self._gamma[t - 1]
        return gamma, self._beta[t]

    def shape_spatial(self, v: np.ndarray) -> np.ndarray:
        """Q0 v for each row of v."""
        return v if self.Q0 is None else v @ self.Q0.T

    def unshape_spatial(self, v: np.ndarray) -> np.ndarray:
        """Q0^{-T} v for each row, so that (unshape(u))^T J = u^T Q0^{-1} J."""
        return v if self.Q0_inv is None else v @ self.Q0_inv


def alpha_to_beta_gamma(alpha: np.ndarray):
    """Realize a per-step alpha schedule as recursion coefficients.

    gamma is constant at the geometric average ratio of consecutive alphas,
    (alpha_T / alpha_1)^{1/(T-1)}, and beta solves
    alpha_s = beta_s gamma_{s+1} ... gamma_T exactly (in log space).
    alpha (T, [B]) holds one schedule per column.  Returns (beta (T, [B]),
    gamma (T-1, [B])).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0):
        raise ValueError("alpha entries must be positive")
    t_len = alpha.shape[0]
    if t_len == 1:
        return alpha.copy(), np.zeros((0, *alpha.shape[1:]))
    log_alpha = np.log(alpha)
    log_gamma = (log_alpha[-1] - log_alpha[0]) / (t_len - 1)
    # the (T-s) factors
    steps = np.arange(t_len - 1, -1, -1).reshape(-1, *(1,) * log_gamma.ndim)
    trailing = log_gamma * steps
    beta = np.exp(log_alpha - trailing)
    return beta, np.full((t_len - 1, *alpha.shape[1:]), np.exp(log_gamma))


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


def _col(x) -> np.ndarray:
    """Per-row scalars as a column that scales rows (..., n)."""
    return np.asarray(x)[..., None]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (..., n)."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _frobenius_sq(rows: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix stored as stacked rows
    (K, ..., n)."""
    return np.einsum("k...i,k...i->...", rows, rows)


def _columns_as_rows(m: np.ndarray) -> np.ndarray:
    """The columns of matrices ([B,] S, N_z) as stacked rows (N_z, [B], S)."""
    return m.transpose(m.ndim - 1, *range(m.ndim - 1))


def _rows_as_columns(rows: np.ndarray) -> np.ndarray:
    """Inverse of _columns_as_rows."""
    return rows.transpose(*range(1, rows.ndim), 0)


def _cancels(norm, scale):
    """Where a new sketch's norm is roundoff of scale, the summed norms of
    its two terms.  An infinite scale is overflow, not cancellation."""
    return (norm <= _CANCEL_RTOL * scale) & np.isfinite(scale)


def _zero_cancelled(x: np.ndarray, norm, scale) -> np.ndarray:
    """Set every row of x whose norm is roundoff of scale exactly to 0, in
    place; returns x."""
    cancelled = _cancels(norm, scale)
    if cancelled.any():
        np.copyto(x, 0.0, where=_col(cancelled))
    return x


def _gir_coefficients(w_norm, fwd_norm, out_norm, in_norm):
    """The greedy (gamma_t, beta_t) that equalize the cross-term norms,

        gamma_t^2 = ||w~_{t-1}|| / ||forwarded sketch||
        beta_t^2  = ||new term of w~|| / ||new term of the forward sketch||,

    each falling back to 1 where its ratio is degenerate (zero norms, first
    step), which leaves the rank-one expansion intact."""
    return sqrt_ratio_or_one(w_norm, fwd_norm), sqrt_ratio_or_one(out_norm, in_norm)


def _check_length(noise: EpisodeNoise | NoiseBlock, t_len: int):
    """Raise ShapeError unless the noise covers a tape of t_len steps; an
    estimator reads its first t_len."""
    if noise.length < t_len:
        raise ShapeError(f"noise of {noise.length} steps for an episode of {t_len}")


def _report(name, noise, estimate, gammas=None, betas=None) -> GradientReport:
    if isinstance(noise, NoiseBlock):
        seed, index = (noise.base_seed,) * len(noise), noise.indices
    else:
        seed, index = noise.base_seed, noise.episode_index
    return GradientReport(name, seed, index, estimate, gammas, betas)


def uoro_step(state: RankOneState, cache, cut, u: np.ndarray,
              schedule: ScalingSchedule, t: int):
    """Advance the rank-one sketch one step; u and the state may carry a
    batch axis.

    In "gir" mode the coefficients equalize the cross-term norms
    (_gir_coefficients):

        gamma_t^2 = ||w~_{t-1}|| / ||J_state h~_{t-1}||
        beta_t^2  = ||u^T Q0^{-1} J_theta|| / ||J_cut Q0 u||

    and a new sketch within CANCEL_EPS_MULTIPLE eps of its two terms' summed
    norms is set to zero.
    Returns (new state, gamma_t, beta_t).  Raises NumericOverflowError naming
    the step if the propagated quantities leave the float range; under GIR
    that includes their norms, which the next coefficients are taken from.
    """
    forwarded = rnn.jvp_state(cache, state.h_tilde)
    spatial_in = rnn.jvp_cut(cache, cut, schedule.shape_spatial(u))
    spatial_out = rnn.vjp_cut(cache, cut, schedule.unshape_spatial(u))
    greedy = schedule.mode == GIR
    if greedy:
        w_norm, fwd_norm = _norms(state.w_tilde), _norms(forwarded)
        out_norm, in_norm = _norms(spatial_out), _norms(spatial_in)
        gamma, beta = _gir_coefficients(w_norm, fwd_norm, out_norm, in_norm)
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    with np.errstate(over="ignore", invalid="ignore"):
        h_tilde = _col(gamma) * forwarded + _col(beta) * spatial_in
        w_tilde = state.w_tilde / _col(gamma) + spatial_out / _col(beta)
        if greedy:
            h_norm, w_new_norm = _norms(h_tilde), _norms(w_tilde)
            h_tilde = _zero_cancelled(h_tilde, h_norm,
                                      gamma * fwd_norm + beta * in_norm)
            w_tilde = _zero_cancelled(w_tilde, w_new_norm,
                                      w_norm / gamma + out_norm / beta)
    checked = (h_norm, w_new_norm) if greedy else (h_tilde, w_tilde)
    if not all(np.isfinite(x).all() for x in checked):
        raise NumericOverflowError(f"rank-one sketch overflowed at step {t}")
    return RankOneState(h_tilde, w_tilde), gamma, beta


def uoro_contribution(state: RankOneState, loss_grad_full: np.ndarray) -> np.ndarray:
    """Per-step gradient contribution (dL_t/d state . h~_t) w~_t."""
    return _col(np.sum(loss_grad_full * state.h_tilde, axis=-1)) * state.w_tilde


CONTRIBUTION_CURRENT = "current"  # (g_t . h~_t) w~_t
CONTRIBUTION_STALE_W = "stale-w"  # (g_t . h~_t) w~_{t-1}
CONTRIBUTION_SPLIT = "split"  # exact immediate + forwarded previous sketch
CONTRIBUTIONS = (CONTRIBUTION_CURRENT, CONTRIBUTION_STALE_W, CONTRIBUTION_SPLIT)


def run_uoro(tape: EpisodeTape, cut, noise, schedule: ScalingSchedule,
             contribution: str = CONTRIBUTION_CURRENT) -> GradientReport:
    """Run the rank-one estimator over a full episode tape.

    noise is one EpisodeNoise, or a NoiseBlock of B: one per episode of a
    batched tape, or B seeds on one episode.  Its first T steps are used.

    The recursion is uoro_step's, with w~ factored: at either cut the term
    of step r is vec(L_r a_r^T), with the left factor L_r = Q0^{-T} u_r
    (times f'(z_r) at the state cut), so w~_t is carried as its coefficients
    c_t[r] over those terms, row t of a (T, [B,] T) array:
    c_t[:t] = c_{t-1}[:t] / gamma_t and c_t[t] = 1 / beta_t, written by the
    step loop under either schedule mode.  Under GIR ||w~_t||^2 is
    tracked from the Gram of the terms, (L L^T) * (A A^T); a row whose norm
    is too small for the Gram to decide the cancellation rule
    (GRAM_NORM_RTOL) is formed densely, and its coefficients are zeroed when
    it cancels.  With s_t the step's score (dL_t/dstate . h~_t), the
    estimate sum_t s_t w~_t is one contraction over the steps at the end.
    No P-long vector is formed before it.
    """
    params = tape.params
    cut = CutVertex(cut)
    n_z = params.cut_size(cut)
    if contribution not in CONTRIBUTIONS:
        raise ValueError(f"unknown contribution mode {contribution!r}")
    if noise.dim != n_z:
        raise ShapeError(f"noise dim {noise.dim} != cut dim {n_z}")
    t_len = tape.length
    _check_length(noise, t_len)
    u = noise.u[:t_len]
    if schedule.Q0 is not None and schedule.Q0.shape[0] != n_z:
        raise ShapeError(f"Q0 shape {schedule.Q0.shape} != cut dim ({n_z}, {n_z})")
    batch = np.broadcast_shapes(tape.batch_shape, u.shape[1:-1])
    u = _steps_first(u, len(batch))
    a = _steps_first(tape.steps.a, len(batch))
    left = np.broadcast_to(schedule.unshape_spatial(u), (t_len, *batch, n_z))
    if cut == CutVertex.STATE:
        left = left * _steps_first(tape.steps.d, len(batch))
    shaped = schedule.shape_spatial(u)
    greedy = schedule.mode == GIR
    if greedy:
        # terms of about 1e300 overflow here; the loop names the step
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _gram(left) * _gram(a)
            out_norms = _norms(left) * _norms(a)
        w_sq = np.zeros(batch)
    else:
        _check_alpha(schedule, t_len, batch)
    # row t: the coefficients of w~_t over the terms of steps r <= t, one row
    # per row of the batch, or per column of a fixed alpha
    coefficients = np.zeros((t_len, *(batch if greedy else schedule.alpha.shape[1:]),
                             t_len))
    split = contribution == CONTRIBUTION_SPLIT
    h_tilde = np.zeros((*batch, params.state_size))
    # the sketch each step's score reads: h~_t, or J_state h~_{t-1} for split
    scored = np.empty((t_len, *batch, params.state_size))
    gammas = np.zeros((t_len, *batch))
    betas = np.zeros((t_len, *batch))
    for t in range(t_len):
        cache = tape.steps[t]
        forwarded = rnn.jvp_state(cache, h_tilde)
        spatial_in = rnn.jvp_cut(cache, cut, shaped[t])
        if greedy:
            w_norm = np.sqrt(w_sq)
            fwd_norm, in_norm = _norms(forwarded), _norms(spatial_in)
            gamma, beta = _gir_coefficients(w_norm, fwd_norm, out_norms[t], in_norm)
        else:
            gamma, beta = schedule.fixed_coefficients(t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h_tilde = _col(gamma) * forwarded + _col(beta) * spatial_in
            row = coefficients[t]
            if t:
                np.divide(coefficients[t - 1], _col(gamma), out=row)
            row[..., t] = 1.0 / beta
            if greedy:
                h_norm = _norms(h_tilde)
                h_tilde = _zero_cancelled(h_tilde, h_norm,
                                          gamma * fwd_norm + beta * in_norm)
                w_sq = _w_norm_sq(coefficients, t, gamma, beta, w_sq, gram,
                                  w_norm / gamma + out_norms[t] / beta, left, a)
        checked = (h_norm, w_sq) if greedy else (h_tilde, coefficients[t])
        if not all(np.isfinite(x).all() for x in checked):
            raise NumericOverflowError(f"rank-one sketch overflowed at step {t}")
        gammas[t], betas[t] = gamma, beta
        scored[t] = forwarded if split else h_tilde
    loss_grads = rnn.embed_state_grad(params, tape.loss_grads)
    scores = np.sum(_steps_first(loss_grads, len(batch)) * scored, axis=-1)
    if contribution != CONTRIBUTION_CURRENT:  # both weight w~_{t-1}
        coefficients = np.concatenate([np.zeros_like(coefficients[:1]),
                                       coefficients[:-1]])
    weights = np.einsum("t...,t...r->r...", scores, coefficients)
    rows = weights[..., None] * left
    if split:  # plus the exact immediate term, vec(g_z,t a_t^T)
        rows += _steps_first(rnn.vjp_to_cut(tape.steps, CutVertex.PREACTIVATION,
                                            loss_grads), len(batch))
    estimate = _rows_as_columns(rows) @ np.swapaxes(a, 0, -2)
    return _report("uoro", noise, estimate.reshape(*batch, -1), gammas, betas)


def _check_alpha(schedule: ScalingSchedule, t_len: int, batch: tuple):
    """Raise ShapeError unless the fixed alpha covers t_len steps and has one
    column per row of the batch, or a single column for all of them."""
    alpha = schedule.alpha
    if alpha.shape[0] < t_len:
        raise ShapeError(f"alpha of length {alpha.shape[0]} for a tape "
                         f"of {t_len} steps")
    if alpha.shape[1:] not in ((), batch):
        raise ShapeError(f"alpha of shape {alpha.shape} for a batch of shape "
                         f"{batch}")


def _steps_first(rows: np.ndarray, batch_ndim: int) -> np.ndarray:
    """Per-step rows (T, ..., n) with a unit axis in front of their batch
    axes for each batch axis they lack, such as the tape's rows when B seeds
    run on one tape."""
    pad = (1,) * (batch_ndim + 2 - rows.ndim)
    return rows.reshape(rows.shape[0], *pad, *rows.shape[1:])


def _gram(rows: np.ndarray) -> np.ndarray:
    """Inner products of the steps' rows (T, ..., n) as (..., T, T)."""
    stacked = np.swapaxes(rows, 0, -2)
    return stacked @ np.swapaxes(stacked, -1, -2)


def _w_norm_sq(coefficients, t, gamma, beta, w_sq, gram, scale, left, a):
    """||w~_t||^2 per row from ||w~_{t-1}||^2 and the Gram of the terms, where
    row t of the (T, [B,] T) GIR coefficients already holds
    c_t = (c_{t-1} / gamma, 1 / beta).  Rows whose Gram norm is below
    GRAM_NORM_RTOL of scale, the summed norms of w~_t's two terms, or not
    finite are formed densely: the cancellation rule zeroes their
    coefficients or their exact norm is kept."""
    row = coefficients[t]
    cross = np.einsum("...r,...r->...", row[..., :t], gram[..., :t, t])
    # products, not powers: a float's ** raises where its product overflows
    w_sq = w_sq / (gamma * gamma) + 2.0 * cross / beta + gram[..., t, t] / (beta * beta)
    near = ((np.sqrt(np.maximum(w_sq, 0.0)) <= GRAM_NORM_RTOL * scale)
            | ~np.isfinite(w_sq))
    if not near.any():
        return w_sq
    w_sq = np.array(w_sq)
    terms = np.broadcast_to(a, (a.shape[0], *left.shape[1:-1], a.shape[-1]))
    for i in map(tuple, np.argwhere(near)):
        steps = (slice(0, t + 1), *i)
        dense = np.einsum("r,ri,rj->ij", row[i][: t + 1], left[steps], terms[steps])
        norm = np.sqrt(np.sum(dense * dense))
        if _cancels(norm, np.asarray(scale)[i]):
            row[i] = 0.0
            w_sq[i] = 0.0
        else:
            w_sq[i] = norm * norm
    return w_sq


def preuoro_step(state: PreUoroState, cache, tau_t, schedule: ScalingSchedule,
                 t: int, out: np.ndarray | None = None):
    """Advance the projection-free sketch one step (preactivation cut only);
    tau_t and the state may carry a batch axis.

    H~_t = gamma_t J_state H~_{t-1} + beta_t tau_t J_cut
    w~_t = (1/gamma_t) w~_{t-1} + (tau_t/beta_t) a_t

    H~ is held as scale * H_tilde, its columns stacked as rows (N_z, [B,] S).
    J_state acts on the rows in one matrix product with the state's scale
    folded into its per-row factors (rnn.jvp_state), written into out if
    given (a rows array that shares no memory with state.H_tilde): that is
    the forwarded sketch F = J_state H~_{t-1}.  The new sketch is gamma_t R_t
    with R_t = F + (beta_t tau_t / gamma_t) J_cut, the immediate term added
    at the nonzeros of J_cut alone (rnn.preactivation_cut_nonzeros), so the
    rows are never rescaled.  Under GIR the norms come from those nonzeros
    and one Frobenius pass over F, with ||H~_t||^2 = gamma^2 ||F||^2
    + 2 gamma beta tau <F, J_cut> + beta^2 tau^2 ||J_cut||^2; a row below
    GRAM_NORM_RTOL of its terms' summed norms takes its norm densely,
    gamma ||R||, for the cancellation rule, and a non-finite norm is
    confirmed densely before it raises.  The new H_tilde is a view of the
    rows and its scale is gamma_t.
    """
    if schedule.Q0 is not None:
        raise ValueError("the projection-free sketch takes no spatial Q0")
    state_index, cut_index, values = rnn.preactivation_cut_nonzeros(cache)
    rows = rnn.jvp_state(cache, _columns_as_rows(state.H_tilde), out=out,
                         scale=state.scale)
    at = (cut_index, Ellipsis, state_index)  # rows[at] is (nnz, [B])
    values = values.T  # (nnz, [B]): a cache carries at most one batch axis
    if values.ndim < rows.ndim - 1:  # B seeds on one tape
        values = values[:, None]
    greedy = schedule.mode == GIR
    if greedy:
        w_norm, a_norm = _norms(state.w_tilde), _norms(cache.a)
        fwd_sq = _frobenius_sq(rows)
        imm_sq = np.einsum("k...,k...->...", values, values)
        cross = np.einsum("k...,k...->...", rows[at], values)
        fwd_norm, imm_norm = np.sqrt(fwd_sq), np.sqrt(imm_sq)
        gamma, beta = _gir_coefficients(w_norm, fwd_norm, a_norm, imm_norm)
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    beta_tau = beta * tau_t
    gamma_col = _col(gamma)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows[at] += values * (beta_tau / gamma)
        w_tilde = state.w_tilde / gamma_col + _col(tau_t / beta) * cache.a
        if greedy:
            rows_sq = (gamma * gamma * fwd_sq + 2.0 * gamma * beta_tau * cross
                       + beta_tau * beta_tau * imm_sq)
            size = np.abs(tau_t)
            _zero_cancelled_rows(rows, rows_sq,
                                 gamma * fwd_norm + beta * size * imm_norm, gamma)
            w_new_norm = _norms(w_tilde)
            _zero_cancelled(w_tilde, w_new_norm, w_norm / gamma + size / beta * a_norm)
        # the new H~ is gamma * rows; a non-finite formula norm is confirmed
        # densely
        if greedy:
            finite = ((np.isfinite(rows_sq).all()
                       or np.isfinite(_frobenius_sq(rows * gamma_col)).all())
                      and np.isfinite(w_new_norm).all())
        else:
            finite = np.isfinite(rows * gamma_col).all() and np.isfinite(w_tilde).all()
    if not finite:
        raise NumericOverflowError(f"projection-free sketch overflowed at step {t}")
    return PreUoroState(_rows_as_columns(rows), w_tilde, gamma), gamma, beta


def _zero_cancelled_rows(rows, rows_sq, scale, factor):
    """Set exactly to 0 each H~ = factor * rows (stacked rows (N_z, [B,] S),
    a scalar or per-row factor) that cancels to roundoff of scale, the
    summed norms of its two terms.  rows_sq holds the squared norms of H~
    from the step's formula; a row whose formula norm is below
    GRAM_NORM_RTOL of scale is too close to cancellation for it, and its
    norm is taken densely, factor ||rows||."""
    near = rows_sq <= (GRAM_NORM_RTOL * scale) ** 2
    if not near.any():
        return
    scale = np.broadcast_to(scale, near.shape)
    factor = np.broadcast_to(np.abs(factor), near.shape)
    for i in map(tuple, np.argwhere(near)):
        row = rows[(slice(None), *i)]
        if _cancels(factor[i] * np.sqrt(_frobenius_sq(row)), scale[i]):
            row[...] = 0.0


def _carried(H_tilde: np.ndarray, loss_grad_full: np.ndarray) -> np.ndarray:
    """H_tilde^T dL/dstate for each row, which the state's scale multiplies."""
    return np.einsum("...sk,...s->...k", H_tilde, loss_grad_full)


def preuoro_contribution(state: PreUoroState, loss_grad_full: np.ndarray) -> np.ndarray:
    """vec of the outer product (H~_t^T dL/dstate) w~_t^T, row-major."""
    return outer_rows(_col(state.scale) * _carried(state.H_tilde, loss_grad_full),
                      state.w_tilde)


def run_preuoro(tape: EpisodeTape, noise, schedule: ScalingSchedule) -> GradientReport:
    """Run the projection-free estimator; noise is one EpisodeNoise or a
    NoiseBlock as for run_uoro, of which only tau is read.  The contributions
    sum_t vec(r_t w~_t^T) are one matrix product over the steps at the end."""
    if schedule.Q0 is not None:
        raise ValueError("the projection-free sketch takes no spatial Q0")
    params = tape.params
    n_z = params.preactivation_size
    _check_length(noise, tape.length)
    tau = noise.tau
    batch = np.broadcast_shapes(tape.batch_shape, tau.shape[1:])
    if schedule.mode == FIXED_ALPHA:
        _check_alpha(schedule, tape.length, batch)
    # H~ lives in one of two rows buffers; each step writes the other one
    buffers = [np.zeros((n_z, *batch, params.state_size)) for _ in range(2)]
    state = PreUoroState(_rows_as_columns(buffers[0]),
                         np.zeros((*batch, params.augmented_size)))
    carried = np.empty((tape.length, *batch, n_z))
    w_rows = np.empty((tape.length, *batch, params.augmented_size))
    gammas = np.zeros((tape.length, *batch))
    betas = np.zeros((tape.length, *batch))
    loss_grads = rnn.embed_state_grad(params, tape.loss_grads)
    for t in range(tape.length):
        state, gammas[t], betas[t] = preuoro_step(state, tape.steps[t], tau[t],
                                                  schedule, t, out=buffers[(t + 1) % 2])
        carried[t] = _carried(state.H_tilde, loss_grads[t])
        w_rows[t] = state.w_tilde
    carried *= gammas[..., None]  # H~_t = gamma_t H_tilde: every step's scale at once
    estimate = np.moveaxis(carried, 0, -1) @ np.moveaxis(w_rows, 0, -2)
    return _report("preuoro", noise, estimate.reshape(*batch, -1), gammas, betas)


def run_spatial(tape: EpisodeTape, cut, noise) -> GradientReport:
    """Forward accumulation with the immediate influence replaced by its
    rank-one spatial projection (J_cut nu)(nu^T J_theta); no temporal noise.

    noise is one EpisodeNoise, or a NoiseBlock of B as for run_uoro: B seeds
    on one tape, which share each step's dense J_state, or one per episode of
    a batched tape, row j running episode j.  The rows run one at a time,
    since a dense S x P influence matrix per row would make a batch cost B
    times that memory.
    """
    params = tape.params
    cut = CutVertex(cut)
    if params.num_params * params.state_size > rnn.DENSE_GUARD:
        raise ShapeError("influence matrix too large for the spatial estimator")
    _check_length(noise, tape.length)
    single = isinstance(noise, EpisodeNoise)
    try:
        batch = np.broadcast_shapes(tape.batch_shape, () if single else (len(noise),))
    except ValueError:
        raise ShapeError(f"{tape.batch_shape[0]} episodes for {len(noise)} "
                         f"noises") from None
    nu = (noise.block if single else noise).nu[: tape.length]  # (T, 1 or B, N_z)
    estimate = np.zeros((*(batch or (1,)), params.num_params))
    for j, row in enumerate(estimate):
        if j == 0 or tape.batch_shape:  # one dense J_state per episode
            episode = tape.episode(j) if tape.batch_shape else tape
            j_state = rnn.dense_state_jacobian(episode.steps)
        row_nu = nu[:, j % nu.shape[1]]
        spatial_in = rnn.jvp_cut(episode.steps, cut, row_nu)
        spatial_out = rnn.vjp_cut(episode.steps, cut, row_nu)
        influence = np.zeros((params.state_size, params.num_params))
        for t in range(tape.length):
            influence = j_state[t] @ influence + np.outer(spatial_in[t], spatial_out[t])
            row += episode.loss_grad_full(t) @ influence
    return _report("spatial", noise, estimate.reshape(*batch, -1))


BASELINE_NONE = "none"
BASELINE_NOISE_FREE = "noise-free"


def reinforce_episode(params: rnn.RnnParams, inputs, targets, head,
                      sigma: float, noise, Q0: np.ndarray | None = None,
                      baseline=BASELINE_NOISE_FREE) -> GradientReport:
    """Score-function gradient estimate for the state-perturbed network.

    Runs h_t = F(state with h-part h_bar_{t-1}), h_bar_t = h_t + sigma Q0 u_t,
    and returns sum_t (L_t - baseline_t) w_bar_t with the trajectory score

        w_bar_t = sum_{s<=t} (1/sigma) u_s^T Q0^{-1} d h_s / d theta_s

    (local parameter Jacobians, evaluated in the noisy system).  L_t is the
    loss at the perturbed state h_bar_t, treated as a given scalar: only the
    score term is differentiated.

    noise is one EpisodeNoise, or a NoiseBlock of B with one estimate row
    each; its first T steps are used.
    inputs (T, X) with T targets are one episode that every row runs;
    inputs (B, T, X) with one target list per episode give row j episode j.
    targets may also be the (T, [B]) Targets pair of a tape.
    baseline may be "none", "noise-free" (L_t of the unperturbed network on
    the same inputs), or an explicit per-step array: (T,) for every row, or
    (T, B) with column j for row j.

    The call is one batched rnn.sweep whose offsets are the perturbations
    sigma Q0 u_t, so the sweep leaves the perturbed states in them.  Under
    "noise-free" the unperturbed network runs as extra rows of the same
    sweep, one per distinct episode, with zero offsets.  All losses come from
    one head call after the sweep, which forms no dL/dh.  The score is not
    accumulated: with the suffix sums R_s = sum_{t>=s} (L_t - baseline_t)
    the estimate is (1/sigma) sum_s vjp_params(cache_s, R_s Q0^{-T} u_s),
    since vjp_params is linear in its rows, and its vec(g_z a^T) terms are
    one contraction over the steps.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 3:
        inputs = np.atleast_2d(inputs)
    episodes = inputs.shape[:-2]
    t_len, h_size = inputs.shape[-2], params.hidden_size
    targets = rnn.episode_targets(targets, episodes, t_len)
    if not episodes:
        targets = targets[:, None]
    single = isinstance(noise, EpisodeNoise)
    if noise.dim != h_size:
        raise ShapeError(f"noise dim {noise.dim} != hidden size {h_size}")
    _check_length(noise, t_len)
    q0, q0_inv = (None, None) if Q0 is None else _checked_q0(Q0)
    if q0 is not None and q0.shape[0] != h_size:
        raise ShapeError(f"Q0 shape {q0.shape} != hidden size ({h_size}, {h_size})")
    try:
        batch = episodes if single else np.broadcast_shapes(episodes, (len(noise),))
    except ValueError:
        raise ShapeError(f"{episodes[0]} episodes for {len(noise)} noises") from None
    baseline_values = _baseline_rows(baseline, t_len, batch)
    clean = baseline_values is None

    # sweep rows 0..n-1 are perturbed, then under "noise-free" one
    # unperturbed row per episode; row j runs episode j mod E of the E
    # episodes, the perturbed rows and then the unperturbed ones alike
    n = batch[0] if batch else 1
    episode_count = targets.mask.shape[1]
    rows = np.arange(n + episode_count if clean else n) % episode_count
    x = np.swapaxes(inputs, 0, -2).reshape(t_len, episode_count, -1)[:, rows]
    u = (noise.block if single else noise).u[:t_len]  # (T, 1 or n, H)
    # the perturbation offsets, which the sweep turns into the perturbed
    # states h_bar; unperturbed rows and the LSTM cell add 0
    states = np.zeros((t_len, rows.size, params.state_size))
    np.multiply(sigma, u if q0 is None else u @ q0.T, out=states[:, :n, :h_size])
    steps = rnn.empty_steps(params, states.shape[:2])
    rnn.sweep(params, np.zeros(states.shape[1:]), x, steps, offsets=states)

    losses = rnn.row_losses(states[..., :h_size], targets[:, rows], head)
    losses = np.zeros((t_len, rows.size)) + losses  # a head may return one scalar
    advantage = losses[:, :n] - (losses[:, n:] if clean else baseline_values)
    suffix = np.cumsum(advantage[::-1], axis=0)[::-1]
    directions = rnn.embed_state_grad(
        params, suffix[..., None] * (u if q0_inv is None else u @ q0_inv))
    perturbed = steps[:, :n]
    g_z = rnn.vjp_to_cut(perturbed, CutVertex.PREACTIVATION, directions)
    estimate = (g_z.transpose(1, 2, 0) @ perturbed.a.transpose(1, 0, 2)) / sigma
    return _report("reinforce", noise, estimate.reshape(*batch, -1))


def _baseline_rows(baseline, t_len: int, batch: tuple):
    """A reinforce baseline as (T, 1 or B) rows, 0.0 for "none", or None for
    "noise-free", which the sweep computes."""
    if baseline is None or isinstance(baseline, str):
        if baseline == BASELINE_NOISE_FREE:
            return None
        if baseline in (None, BASELINE_NONE):
            return 0.0
        raise ValueError(f"unknown baseline mode {baseline!r}")
    values = np.asarray(baseline, dtype=np.float64)
    if values.shape not in ((t_len,), (t_len, *batch)):
        raise ShapeError(f"baseline of shape {values.shape} for {t_len} steps "
                         f"and a batch of shape {batch}")
    return values.reshape(t_len, -1)

