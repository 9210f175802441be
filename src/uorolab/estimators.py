"""Stochastic online gradient estimators.

All estimators consume an EpisodeTape (parameters frozen within the episode)
plus an EpisodeNoise, and return a GradientReport.  The rank-one sketches are
batch-first: given a sequence of B noises they advance B episodes of a
batched tape, or B seeds on one tape, in one pass, with one estimate row per
episode or seed.  The rank-one sketch
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
the rank-one vec(L_r a_r^T) at the preactivation and state cuts, so run_uoro
carries w~_t as its coefficients over those terms and contracts the estimate
once at the end.  uoro_step is the same recursion with a dense w~, for
streaming updates and as the test oracle.

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
from .errors import (
    NumericOverflowError,
    ShapeError,
    SingularMatrixError,
    UnsupportedCutError,
)
from .linalg import sqrt_ratio_or_one
from .noise import EpisodeNoise
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
    H_tilde: np.ndarray  # ([B,] S, N_z)
    w_tilde: np.ndarray  # ([B,] A)


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
        self.sketch_coefficients = None
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
        # row t: the coefficients of w~_t over the terms of steps r <= t
        t_len = alpha.shape[0]
        coefficients = np.zeros((t_len, *alpha.shape[1:], t_len))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for t in range(t_len):
                gamma, beta = self.fixed_coefficients(t)
                coefficients[t, ..., :t] = coefficients[t - 1, ..., :t] / _col(gamma)
                coefficients[t, ..., t] = 1.0 / beta
        self.sketch_coefficients = coefficients

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


def _frobenius(rows: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix stored as stacked rows (K, ..., n)."""
    return np.sqrt(np.einsum("k...i,k...i->...", rows, rows))


def _columns_as_rows(m: np.ndarray) -> np.ndarray:
    """The columns of matrices ([B,] S, N_z) as stacked rows (N_z, [B], S)."""
    return m.transpose(m.ndim - 1, *range(m.ndim - 1))


def _rows_as_columns(rows: np.ndarray) -> np.ndarray:
    """Inverse of _columns_as_rows."""
    return rows.transpose(*range(1, rows.ndim), 0)


def _zero_cancelled(x: np.ndarray, norm, scale) -> np.ndarray:
    """x with every row whose norm is roundoff of scale set exactly to 0."""
    cancelled = norm <= _CANCEL_RTOL * scale
    return np.where(_col(cancelled), 0.0, x) if cancelled.any() else x


def _gir_coefficients(w_norm, fwd_norm, out_norm, in_norm, gir_scale):
    """The greedy (gamma_t, beta_t) that equalize the cross-term norms,

        gamma_t^2 = ||w~_{t-1}|| / ||forwarded sketch||
        beta_t^2  = ||new term of w~|| / ||new term of the forward sketch||,

    each falling back to 1 where its ratio is degenerate (zero norms, first
    step), which leaves the rank-one expansion intact."""
    return (sqrt_ratio_or_one(w_norm, fwd_norm) * gir_scale,
            sqrt_ratio_or_one(out_norm, in_norm) * gir_scale)


def _draws(noise, stream: str) -> np.ndarray:
    """A stream (T, ...) of one EpisodeNoise, or (T, B, ...) stacked over a
    sequence of B of them."""
    if isinstance(noise, EpisodeNoise):
        return getattr(noise, stream)
    return np.stack([getattr(n, stream) for n in noise], axis=1)


def _report(name, noise, estimate, gammas=None, betas=None) -> GradientReport:
    if isinstance(noise, EpisodeNoise):
        seed, index = noise.base_seed, noise.episode_index
    else:
        seed = tuple(n.base_seed for n in noise)
        index = tuple(n.episode_index for n in noise)
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
    the step if the propagated quantities leave the float range.
    """
    forwarded = rnn.jvp_state(cache, state.h_tilde)
    spatial_in = rnn.jvp_cut(cache, cut, schedule.shape_spatial(u))
    spatial_out = rnn.vjp_cut(cache, cut, schedule.unshape_spatial(u))
    greedy = schedule.mode == GIR
    if greedy:
        w_norm, fwd_norm = _norms(state.w_tilde), _norms(forwarded)
        out_norm, in_norm = _norms(spatial_out), _norms(spatial_in)
        gamma, beta = _gir_coefficients(w_norm, fwd_norm, out_norm, in_norm,
                                        schedule.gir_scale)
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    with np.errstate(over="ignore", invalid="ignore"):
        h_tilde = _col(gamma) * forwarded + _col(beta) * spatial_in
        w_tilde = state.w_tilde / _col(gamma) + spatial_out / _col(beta)
        if greedy:
            h_tilde = _zero_cancelled(h_tilde, _norms(h_tilde),
                                      gamma * fwd_norm + beta * in_norm)
            w_tilde = _zero_cancelled(w_tilde, _norms(w_tilde),
                                      w_norm / gamma + out_norm / beta)
    if not (np.isfinite(h_tilde).all() and np.isfinite(w_tilde).all()):
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
             contribution: str = CONTRIBUTION_CURRENT,
             estimator_name: str = "uoro") -> GradientReport:
    """Run the rank-one estimator over a full episode tape.

    noise is one EpisodeNoise, or a sequence of B: one per episode of a
    batched tape, or B seeds on one episode.

    The recursion is uoro_step's, with w~ factored: at the preactivation and
    state cuts the term of step r is vec(L_r a_r^T), with the left factor
    L_r = Q0^{-T} u_r (times f'(z_r) at the state cut), so w~_t is carried
    as its coefficients c_t[r] over those terms, row t of a (T, [B,] T)
    array: c_t[:t] = c_{t-1}[:t] / gamma_t and c_t[t] = 1 / beta_t, taken
    whole from the schedule under fixed alpha.  Under GIR ||w~_t||^2 is
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
    if cut == CutVertex.PARAMETER:
        raise UnsupportedCutError("the rank-one sketch runs at the preactivation "
                                  "or the state cut")
    if contribution not in CONTRIBUTIONS:
        raise ValueError(f"unknown contribution mode {contribution!r}")
    u = _draws(noise, "u")
    if u.shape[-1] != n_z:
        raise ShapeError(f"noise dim {u.shape[-1]} != cut dim {n_z}")
    if schedule.Q0 is not None and schedule.Q0.shape[0] != n_z:
        raise ShapeError(f"Q0 shape {schedule.Q0.shape} != cut dim ({n_z}, {n_z})")
    batch = np.broadcast_shapes(tape.batch_shape, u.shape[1:-1])
    t_len = tape.length
    caches = tape.caches
    u = _steps_first(u, len(batch))
    a = _steps_first(np.stack([cache.a for cache in caches]), len(batch))
    left = np.broadcast_to(schedule.unshape_spatial(u), (t_len, *batch, n_z))
    if cut == CutVertex.STATE:
        left = left * _steps_first(np.stack([cache.d for cache in caches]), len(batch))
    shaped = schedule.shape_spatial(u)
    greedy = schedule.mode == GIR
    if greedy:
        coefficients = np.zeros((t_len, *batch, t_len))
        gram = _gram(left) * _gram(a)
        out_norms = _norms(left) * _norms(a)
        w_sq = np.zeros(batch)
    else:
        _check_alpha(schedule, t_len, batch)
        coefficients = schedule.sketch_coefficients[:t_len, ..., :t_len]
    split = contribution == CONTRIBUTION_SPLIT
    h_tilde = np.zeros((*batch, params.state_size))
    # the sketch each step's score reads: h~_t, or J_state h~_{t-1} for split
    scored = np.empty((t_len, *batch, params.state_size))
    immediate = np.zeros((t_len, *batch, params.preactivation_size)) if split else None
    gammas = np.zeros((t_len, *batch))
    betas = np.zeros((t_len, *batch))
    for t, cache in enumerate(caches):
        forwarded = rnn.jvp_state(cache, h_tilde)
        spatial_in = rnn.jvp_cut(cache, cut, shaped[t])
        if greedy:
            w_norm = np.sqrt(w_sq)
            fwd_norm, in_norm = _norms(forwarded), _norms(spatial_in)
            gamma, beta = _gir_coefficients(w_norm, fwd_norm, out_norms[t], in_norm,
                                            schedule.gir_scale)
        else:
            gamma, beta = schedule.fixed_coefficients(t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h_tilde = _col(gamma) * forwarded + _col(beta) * spatial_in
            if greedy:
                h_tilde = _zero_cancelled(h_tilde, _norms(h_tilde),
                                          gamma * fwd_norm + beta * in_norm)
                w_sq = _advance_coefficients(coefficients, t, gamma, beta, w_sq,
                                             gram, w_norm / gamma + out_norms[t] / beta,
                                             left, a)
        if not (np.isfinite(h_tilde).all() and np.isfinite(coefficients[t]).all()):
            raise NumericOverflowError(f"rank-one sketch overflowed at step {t}")
        gammas[t], betas[t] = gamma, beta
        scored[t] = forwarded if split else h_tilde
        if split:
            immediate[t] = rnn.vjp_to_cut(cache, CutVertex.PREACTIVATION,
                                          tape.loss_grad_full(t))
    loss_grads = _steps_first(rnn.embed_state_grad(params, tape.loss_grads), len(batch))
    scores = np.sum(loss_grads * scored, axis=-1)
    if contribution != CONTRIBUTION_CURRENT:  # both weight w~_{t-1}
        coefficients = np.concatenate([np.zeros_like(coefficients[:1]),
                                       coefficients[:-1]])
    weights = np.einsum("t...,t...r->r...", scores, coefficients)
    rows = weights[..., None] * left
    if split:  # plus the exact immediate term, vec(g_z,t a_t^T)
        rows += immediate
    estimate = _rows_as_columns(rows) @ np.swapaxes(a, 0, -2)
    return _report(estimator_name, noise, estimate.reshape(*batch, -1), gammas, betas)


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


def _advance_coefficients(coefficients, t, gamma, beta, w_sq, gram, scale, left, a):
    """Write c_t = (c_{t-1} / gamma, 1 / beta) into row t of the (T, [B,] T)
    GIR coefficients and return ||w~_t||^2 per row, from the Gram of the
    terms.  Rows whose Gram norm is below GRAM_NORM_RTOL of scale, the summed
    norms of w~_t's two terms, are formed densely: the cancellation rule
    zeroes their coefficients or their exact norm is kept."""
    row = coefficients[t]
    if t:
        np.divide(coefficients[t - 1], _col(gamma), out=row)
    row[..., t] = 1.0 / beta
    cross = np.einsum("...r,...r->...", row[..., :t], gram[..., :t, t])
    w_sq = w_sq / gamma**2 + 2.0 * cross / beta + gram[..., t, t] / beta**2
    near = np.sqrt(np.maximum(w_sq, 0.0)) <= GRAM_NORM_RTOL * scale
    if not near.any():
        return w_sq
    w_sq = np.array(w_sq)
    terms = np.broadcast_to(a, (a.shape[0], *left.shape[1:-1], a.shape[-1]))
    for i in map(tuple, np.argwhere(near)):
        steps = (slice(0, t + 1), *i)
        dense = np.einsum("r,ri,rj->ij", row[i][: t + 1], left[steps], terms[steps])
        norm = np.sqrt(np.sum(dense * dense))
        if norm <= _CANCEL_RTOL * np.asarray(scale)[i]:
            row[i] = 0.0
            w_sq[i] = 0.0
        else:
            w_sq[i] = norm * norm
    return w_sq


def preuoro_step(state: PreUoroState, cache, tau_t, schedule: ScalingSchedule,
                 t: int):
    """Advance the projection-free sketch one step (preactivation cut only);
    tau_t and the state may carry a batch axis.

    H~_t = gamma_t J_state H~_{t-1} + beta_t tau_t J_cut
    w~_t = (1/gamma_t) w~_{t-1} + (tau_t/beta_t) a_t

    Both products act on the columns of H~ stacked as rows (N_z, [B], S), so
    each is one matrix product; the new H~ is a view of those rows.
    """
    if schedule.Q0 is not None:
        raise ValueError("the projection-free sketch takes no spatial Q0")
    n_z = cache.params.preactivation_size
    batch_ndim = max(state.w_tilde.ndim - 1, len(cache.batch_shape))
    forwarded = rnn.jvp_state(cache, _columns_as_rows(state.H_tilde))
    immediate = rnn.jvp_cut(cache, CutVertex.PREACTIVATION,
                            rnn.basis_rows(n_z, batch_ndim))
    greedy = schedule.mode == GIR
    if greedy:
        w_norm, a_norm = _norms(state.w_tilde), _norms(cache.a)
        fwd_norm, imm_norm = _frobenius(forwarded), _frobenius(immediate)
        gamma, beta = _gir_coefficients(w_norm, fwd_norm, a_norm, imm_norm,
                                        schedule.gir_scale)
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.multiply(forwarded, _col(gamma), out=forwarded)
        if immediate.shape == rows.shape:
            # scaled in place: a fresh (N_z, B, S) temporary per step makes
            # the allocator return and refault pages whenever it sits at the
            # top of the heap
            rows += np.multiply(immediate, _col(beta * tau_t), out=immediate)
        else:  # B seeds on one tape: the unbatched term broadcasts over them
            rows += _col(beta * tau_t) * immediate
        w_tilde = state.w_tilde / _col(gamma) + _col(tau_t / beta) * cache.a
        if greedy:
            size = np.abs(tau_t)
            rows = _zero_cancelled(rows, _frobenius(rows),
                                   gamma * fwd_norm + beta * size * imm_norm)
            w_tilde = _zero_cancelled(w_tilde, _norms(w_tilde),
                                      w_norm / gamma + size / beta * a_norm)
    if not (np.isfinite(rows).all() and np.isfinite(w_tilde).all()):
        raise NumericOverflowError(f"projection-free sketch overflowed at step {t}")
    return PreUoroState(_rows_as_columns(rows), w_tilde), gamma, beta


def _carried(state: PreUoroState, loss_grad_full: np.ndarray) -> np.ndarray:
    """H~_t^T dL/dstate for each row."""
    return np.einsum("...sk,...s->...k", state.H_tilde, loss_grad_full)


def preuoro_contribution(state: PreUoroState, loss_grad_full: np.ndarray) -> np.ndarray:
    """vec of the outer product (H~_t^T dL/dstate) w~_t^T, row-major."""
    return outer_rows(_carried(state, loss_grad_full), state.w_tilde)


def run_preuoro(tape: EpisodeTape, noise, schedule: ScalingSchedule,
                estimator_name: str = "preuoro") -> GradientReport:
    """Run the projection-free estimator; noise as for run_uoro.  The
    contributions sum_t vec(r_t w~_t^T) are one matrix product over the
    steps at the end."""
    params = tape.params
    n_z = params.preactivation_size
    tau = _draws(noise, "tau")
    batch = np.broadcast_shapes(tape.batch_shape, tau.shape[1:])
    if schedule.mode == FIXED_ALPHA:
        _check_alpha(schedule, tape.length, batch)
    state = PreUoroState(
        _rows_as_columns(np.zeros((n_z, *batch, params.state_size))),
        np.zeros((*batch, params.augmented_size)),
    )
    carried = np.empty((tape.length, *batch, n_z))
    w_rows = np.empty((tape.length, *batch, params.augmented_size))
    gammas = np.zeros((tape.length, *batch))
    betas = np.zeros((tape.length, *batch))
    for t, cache in enumerate(tape.caches):
        state, gammas[t], betas[t] = preuoro_step(state, cache, tau[t], schedule, t)
        carried[t] = _carried(state, tape.loss_grad_full(t))
        w_rows[t] = state.w_tilde
    estimate = np.moveaxis(carried, 0, -1) @ np.moveaxis(w_rows, 0, -2)
    return _report(estimator_name, noise, estimate.reshape(*batch, -1),
                   gammas, betas)


def run_spatial(tape: EpisodeTape, cut, noise: EpisodeNoise,
                estimator_name: str = "spatial") -> GradientReport:
    """Forward accumulation with the immediate influence replaced by its
    rank-one spatial projection (J_cut nu)(nu^T J_theta); no temporal noise.
    """
    params = tape.params
    cut = CutVertex(cut)
    if params.num_params * params.state_size > rnn.DENSE_GUARD:
        raise ShapeError("influence matrix too large for the spatial estimator")
    influence = np.zeros((params.state_size, params.num_params))
    estimate = np.zeros(params.num_params)
    for t, cache in enumerate(tape.caches):
        nu = noise.nu[t]
        j_state = rnn.dense_state_jacobian(cache)
        influence = j_state @ influence + np.outer(
            rnn.jvp_cut(cache, cut, nu), rnn.vjp_cut(cache, cut, nu)
        )
        estimate += tape.loss_grad_full(t) @ influence
    return _report(estimator_name, noise, estimate)


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
    estimate = np.zeros(params.num_params)
    for t in range(t_len):
        state, cache = rnn.step(params, state, inputs[t])
        score_dir = rnn.embed_state_grad(
            params, u[t] if q0 is None else q0_inv.T @ u[t])
        w_bar = w_bar + rnn.vjp_params(cache, score_dir) / sigma
        h_bar = state[:h_size] + sigma * (u[t] if q0 is None else q0 @ u[t])
        state = state.copy()
        state[:h_size] = h_bar
        loss_t, _ = rnn.loss_grad(h_bar, targets[t], head)
        estimate += (loss_t - baseline_values[t]) * w_bar
    return _report("reinforce", noise, estimate)
