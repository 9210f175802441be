"""Stochastic online gradient estimators.

All estimators consume an EpisodeTape (parameters frozen within the episode)
plus its noise, and return a GradientReport.  The noise is one EpisodeNoise
or a NoiseBlock of B episodes of one base seed, and its first T steps drive a
tape of T steps; a shorter noise raises ShapeError before any step.  The
rank-one sketches and REINFORCE are batch-first: given a NoiseBlock they
advance B episodes of a batched tape, or B seeds on one tape, in one pass,
with one estimate row per episode or seed, as does the spatial ablation,
BPTT's backward sweep with each cut adjoint projected onto its step's noise.
The rank-one sketch (h_tilde, w_tilde) of the state-to-parameter influence
matrix is maintained by the pair of recursions

    h~_t = gamma_t J_state h~_{t-1} + beta_t J_cut Q0 u_t
    w~_t = (1/gamma_t) w~_{t-1} + (1/beta_t) u_t^T Q0^{-1} J_theta

with (gamma, beta) either rescaled greedily per step to equalize the
cross-term norms ("gir") or derived from a supplied per-step alpha schedule
("fixed-alpha").  Q0 shapes the spatial noise; the identity recovers the
plain recursions.  The per-step gradient contribution is
(dL_t/dh_t . h~_t) w~_t.  Under the greedy rescaling a sketch that cancels to
roundoff of its two terms is set exactly to zero, so that its last bits
cannot pick the next coefficient.

Over a whole tape run_uoro never forms w~: it carries its coefficients over
rank-one terms.  Since J_theta = diag(f) (I (x) a^T), every estimator here
writes its estimate as a sum of per-step rank-one terms
sum_t vec(L_t R_t^T), and its GradientReport keeps those factors: the
estimate is contracted from them, in one product over the steps, when it is
first read, and a caller may contract any rows of a batch instead.

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
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exact, rnn
from .errors import (
    NumericOverflowError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import sqrt_ratio_or_one
from .noise import EpisodeNoise, NoiseBlock
from .rnn import CutVertex, EpisodeTape

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
class _Factors:
    """An estimate kept as per-step factors: row i of the estimate is
    sum_t vec(left[t, i] right[t, i]^T), contracted for any rows, so a large
    batch's estimate can be taken a few rows at a time."""

    left: np.ndarray  # (T, [B,] N_z)
    right: np.ndarray  # (T, [B,] A), or (T, 1, A) shared by every row

    def estimate(self, rows=None) -> np.ndarray:
        """The estimate ([b,] P) of the batch rows given, a slice of the
        batch axis, or of all rows by default; a row rounds the same
        whichever rows are taken with it."""
        left, right = self.left, self.right
        if rows is not None:
            left = left[:, rows]
            if right.shape[1:-1] == self.left.shape[1:-1]:
                right = right[:, rows]
        product = _rows_as_columns(left) @ right.swapaxes(0, -2)
        return product.reshape(*left.shape[1:-1], -1)


@dataclass
class GradientReport:
    """A total gradient estimate, kept as its per-step factors, plus
    provenance; batched runs hold one row per episode or seed, and tuples
    of seeds and indices."""

    estimator: str
    base_seed: int | tuple
    episode_index: int | tuple
    factors: _Factors
    realized_gamma: np.ndarray | None = None  # (T, [B])
    realized_beta: np.ndarray | None = None  # (T, [B])

    @cached_property
    def estimate(self) -> np.ndarray:
        """The estimate ([B,] P), contracted from the factors once."""
        return self.factors.estimate()


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
        self._beta, self._gamma = alpha_to_beta_gamma(alpha)
        self.alpha = alpha

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

    def fixed_steps(self, t_len: int):
        """(gamma, beta) of the first t_len steps as (T,) or (T, B) arrays
        whose row t is fixed_coefficients(t)."""
        beta = self._beta[:t_len]
        first = np.ones((1, *beta.shape[1:]))
        return np.concatenate([first, self._gamma[:max(t_len - 1, 0)]]), beta

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
    if not np.isfinite(alpha).all():
        raise ValueError("alpha entries must be finite")
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
    if not np.isfinite(Q0).all():
        raise ValueError("Q0 must be finite")
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


def _rows_as_columns(rows: np.ndarray) -> np.ndarray:
    """Stacked rows (K, ..., n) as the columns of matrices (..., n, K)."""
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


def _noise_batch(noise: EpisodeNoise | NoiseBlock, t_len: int, episodes: tuple,
                 dim: int | None = None, what: str = "cut dim") -> tuple:
    """The batch shape of an engine's rows, the episodes' batch shape
    broadcast with the noise's: () for one EpisodeNoise, (B,) for a
    NoiseBlock of B.  Raises ShapeError, before any step, unless the noise
    is dim wide (named what; not checked for dim None), covers t_len steps
    (an engine reads its first t_len) and has one noise per episode or the
    episodes are one."""
    if dim is not None and noise.dim != dim:
        raise ShapeError(f"noise dim {noise.dim} != {what} {dim}")
    if noise.length < t_len:
        raise ShapeError(f"noise of {noise.length} steps for an episode of {t_len}")
    noises = () if isinstance(noise, EpisodeNoise) else (len(noise),)
    if not episodes or not noises or episodes == noises:
        return episodes or noises  # without np.broadcast_shapes' microseconds
    try:
        return np.broadcast_shapes(episodes, noises)
    except ValueError:
        raise ShapeError(f"{episodes[0]} episodes for {len(noise)} noises") from None


def _report(name, noise, factors, gammas=None, betas=None) -> GradientReport:
    if isinstance(noise, NoiseBlock):
        seed, index = (noise.base_seed,) * len(noise), noise.indices
    else:
        seed, index = noise.base_seed, noise.episode_index
    return GradientReport(name, seed, index, factors, gammas, betas)


CONTRIBUTION_CURRENT = "current"  # (g_t . h~_t) w~_t
CONTRIBUTION_STALE_W = "stale-w"  # (g_t . h~_t) w~_{t-1}
CONTRIBUTION_SPLIT = "split"  # exact immediate + forwarded previous sketch
CONTRIBUTIONS = (CONTRIBUTION_CURRENT, CONTRIBUTION_STALE_W, CONTRIBUTION_SPLIT)


def run_uoro(tape: EpisodeTape, cut, noise, schedule: ScalingSchedule,
             contribution: str = CONTRIBUTION_CURRENT) -> GradientReport:
    """Run the rank-one estimator over a full episode tape.

    noise is one EpisodeNoise, or a NoiseBlock of B: one per episode of a
    batched tape, or B seeds on one episode.  Its first T steps are used.

    The recursion is the pair above, with w~ factored: at either cut the term
    of step r is vec(L_r a_r^T), with the left factor L_r = Q0^{-T} u_r
    (times f'(z_r) at the state cut), so w~_t is carried as its coefficients
    c_t[r] over those terms, row t of a (T, [B,] T) array:
    c_t[:t] = c_{t-1}[:t] / gamma_t and c_t[t] = 1 / beta_t, written by the
    step loop under either schedule mode (under a fixed alpha from arrays
    made once, with every h~_t kept and checked once after the loop).
    Under GIR ||w~_t||^2 is tracked from the Gram of the terms,
    (L L^T) * (A A^T); a row whose norm is too small for the Gram to decide
    the cancellation rule (GRAM_NORM_RTOL) is formed densely, and its
    coefficients are zeroed when it cancels.  With s_t the step's score
    (dL_t/dstate . h~_t), the estimate sum_t s_t w~_t is
    sum_r vec((sum_t s_t c_t[r]) L_r a_r^T), one contraction over the
    steps, which the report's factors keep: the left factors are the L_r
    weighted by sum_t s_t c_t[r] (plus g_z,r under "split"), the right ones
    the a_r.  The noise is shaped a step at a time
    and the scores and weights are taken in place, so that beside the tape
    and the noise at most one (T, [B,] N_z) array, the left factors, and one
    (T, [B,] S) array, the scored sketches, live; a fixed alpha under
    "split" keeps a second, every h~_t, for its check after the loop.
    """
    params = tape.params
    cut = CutVertex(cut)
    n_z = params.cut_size(cut)
    if contribution not in CONTRIBUTIONS:
        raise ValueError(f"unknown contribution mode {contribution!r}")
    t_len = tape.length
    batch = _noise_batch(noise, t_len, tape.batch_shape, n_z)
    u = noise.u[:t_len]
    if schedule.Q0 is not None and schedule.Q0.shape[0] != n_z:
        raise ShapeError(f"Q0 shape {schedule.Q0.shape} != cut dim ({n_z}, {n_z})")
    u = _steps_first(u, len(batch))
    a = _steps_first(tape.steps.a, len(batch))
    left = schedule.unshape_spatial(u)
    if cut == CutVertex.STATE:
        left = left * _steps_first(tape.steps.d, len(batch))
    # the weights scale a fresh left in place at the end, not the noise's u
    fresh = left is not u and left.shape == (t_len, *batch, n_z)
    if not fresh:
        left = np.broadcast_to(left, (t_len, *batch, n_z))
    greedy = schedule.mode == GIR
    if not greedy:
        _check_alpha(schedule, t_len, batch)
    # row t: the coefficients of w~_t over the terms of steps r <= t, one row
    # per row of the batch, or per column of a fixed alpha
    coefficients = np.zeros((t_len, *(batch if greedy else schedule.alpha.shape[1:]),
                             t_len))
    split = contribution == CONTRIBUTION_SPLIT
    # the sketch each step's score reads: h~_t, or J_state h~_{t-1} for split
    scored = np.empty((t_len, *batch, params.state_size))
    if greedy:
        gammas, betas = _gir_uoro_loop(tape, cut, u, schedule, coefficients, scored,
                                       split, left, a)
    else:
        gammas, betas = _fixed_uoro_loop(tape, cut, u, schedule, coefficients, scored,
                                         split)
    scored *= _steps_first(rnn.embed_state_grad(params, tape.loss_grads), len(batch))
    scores = np.add.reduce(scored, axis=-1)
    del scored
    if contribution != CONTRIBUTION_CURRENT:  # both weight w~_{t-1}
        coefficients = np.concatenate([np.zeros_like(coefficients[:1]),
                                       coefficients[:-1]])
    weights = np.einsum("t...,t...r->r...", scores, coefficients)
    left = np.multiply(weights[..., None], left, out=left if fresh else None)
    if split:  # plus the exact immediate term, vec(g_z,t a_t^T)
        left += _steps_first(rnn.vjp_to_cut(
            tape.steps, CutVertex.PREACTIVATION,
            rnn.embed_state_grad(params, tape.loss_grads)), len(batch))
    return _report("uoro", noise, _Factors(left, a), gammas, betas)


def _gir_uoro_loop(tape, cut, u, schedule, coefficients, scored, split, left, a):
    """run_uoro's step loop under GIR, as _fixed_uoro_loop with the
    coefficients picked from the sketches' norms (left and a are the terms'
    factors, whose Gram gives ||w~_t||); each step checks its norms."""
    t_len = tape.length
    batch = scored.shape[1:-1]
    # terms of about 1e300 overflow here; the loop names the step
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(left) * _gram(a)
        out_norms = _norms(left) * _norms(a)
    w_sq = np.zeros(batch)
    h_tilde = np.zeros(scored.shape[1:])
    gammas = np.zeros((t_len, *batch))
    betas = np.zeros((t_len, *batch))
    for t, cache in enumerate(tape.step_caches):
        forwarded = rnn.jvp_state(cache, h_tilde)
        spatial_in = rnn.jvp_cut(cache, cut, schedule.shape_spatial(u[t]))
        w_norm = np.sqrt(w_sq)
        fwd_norm, in_norm = _norms(forwarded), _norms(spatial_in)
        gamma, beta = _gir_coefficients(w_norm, fwd_norm, out_norms[t], in_norm)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h_tilde = _col(gamma) * forwarded + _col(beta) * spatial_in
            row = coefficients[t]
            if t:
                np.divide(coefficients[t - 1], _col(gamma), out=row)
            row[..., t] = 1.0 / beta
            h_norm = _norms(h_tilde)
            h_tilde = _zero_cancelled(h_tilde, h_norm, gamma * fwd_norm + beta * in_norm)
            w_sq = _w_norm_sq(coefficients, t, gamma, beta, w_sq, gram,
                              w_norm / gamma + out_norms[t] / beta, left, a)
        if not (np.isfinite(h_norm).all() and np.isfinite(w_sq).all()):
            raise NumericOverflowError(f"rank-one sketch overflowed at step {t}")
        gammas[t], betas[t] = gamma, beta
        scored[t] = forwarded if split else h_tilde
    return gammas, betas


def _fixed_uoro_loop(tape, cut, u, schedule, coefficients, scored, split):
    """run_uoro's step loop under a fixed alpha, given the shaped-steps
    noise u and its buffers: fills the (T, [B,] T) coefficients and the
    (T, [B,] S) scored sketches and returns the realized (gammas, betas),
    (T, [B]).  Only the step's two products and the coefficient recursion
    run per step: (gamma_t, beta_t) and 1 / beta_t are arrays made once,
    the loop runs under one np.errstate, and every h~_t is kept (in scored
    unless split) so that one check after the loop names the first step
    whose sketch or coefficients are not finite."""
    t_len = tape.length
    gamma, beta = schedule.fixed_steps(t_len)
    gamma_cols, beta_cols = gamma[..., None], beta[..., None]
    sketches = np.empty_like(scored) if split else scored
    h_tilde = np.zeros(scored.shape[1:])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inverse_beta = 1.0 / beta
        for t, cache in enumerate(tape.step_caches):
            forwarded = rnn.jvp_state(cache, h_tilde)
            spatial_in = rnn.jvp_cut(cache, cut, schedule.shape_spatial(u[t]))
            h_tilde = np.multiply(gamma_cols[t], forwarded, out=sketches[t])
            h_tilde += beta_cols[t] * spatial_in
            if t:
                np.divide(coefficients[t - 1], gamma_cols[t], out=coefficients[t])
            coefficients[t, ..., t] = inverse_beta[t]
            if split:
                scored[t] = forwarded
    _raise_first_overflow("rank-one sketch", sketches, coefficients)
    batch = scored.shape[1:-1]
    return _over_rows(gamma, batch), _over_rows(beta, batch)


def _per_step(steps: np.ndarray, batch: tuple) -> np.ndarray:
    """Per-step scalars (T,) or (T, *batch) as a view that broadcasts
    against (T, *batch)."""
    return steps.reshape(len(steps), *(steps.shape[1:] or (1,) * len(batch)))


def _over_rows(steps: np.ndarray, batch: tuple) -> np.ndarray:
    """Per-step scalars (T,) or (T, *batch) as a new (T, *batch) array."""
    rows = np.empty((len(steps), *batch))
    np.copyto(rows, _per_step(steps, batch))
    return rows


def _raise_first_overflow(what: str, *per_step: np.ndarray):
    """Raise NumericOverflowError naming the first step t at which any of
    the per-step arrays (T, ...) holds a non-finite entry."""
    finite = np.ones(len(per_step[0]), dtype=bool)
    for x in per_step:
        finite &= np.isfinite(x).all(axis=tuple(range(1, x.ndim)))
    if not finite.all():
        raise NumericOverflowError(f"{what} overflowed at step {np.argmin(finite)}")


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


def run_preuoro(tape: EpisodeTape, noise, schedule: ScalingSchedule) -> GradientReport:
    """Run the projection-free estimator (preactivation cut only); noise is
    one EpisodeNoise or a NoiseBlock as for run_uoro, of which only tau is
    read.  Each step advances

        H~_t = gamma_t J_state H~_{t-1} + beta_t tau_t J_cut
        w~_t = (1/gamma_t) w~_{t-1} + (tau_t/beta_t) a_t

    H~ is held as scale times its columns stacked as rows (N_z, [B,] S), in
    one of two rows buffers: each step writes the other one.  H~_{-1} = 0,
    so step 0 forms no product, and under GIR its ||F||^2 and <F, J_cut>
    are zeros, not passes over the rows.  From step 1 on, J_state acts on
    the rows in one stacked matrix product with the scale folded into its
    per-row factors (rnn.jvp_state): that is the forwarded sketch
    F = J_state H~_{t-1}, and the step's only work that grows as N_z S^2.
    The new sketch is gamma_t R_t with R_t = F + (beta_t tau_t / gamma_t)
    J_cut, the immediate term added at the nonzeros of J_cut alone
    (rnn.preactivation_cut_nonzeros), so the rows are never rescaled, and
    its scale is gamma_t.  Under GIR the norms
    come from those nonzeros and one Frobenius pass over F, with
    ||H~_t||^2 = gamma^2 ||F||^2 + 2 gamma beta tau <F, J_cut>
    + beta^2 tau^2 ||J_cut||^2; a row below GRAM_NORM_RTOL of its terms'
    summed norms takes its norm densely, gamma ||R||, for the cancellation
    rule, and a non-finite norm is confirmed densely before it raises.  The
    estimate sum_t vec(r_t w~_t^T), r_t = H~_t^T dL_t/dstate, is kept as
    the factors r_t and w~_t; each r_t is one stacked matrix-vector product
    on the rows.  Under a fixed alpha, (gamma_t, beta_t), beta_t tau_t /
    gamma_t and tau_t / beta_t come from arrays made once per call, the loop
    runs under one np.errstate, each step checks its new H~ by one sum of
    squares (entry by entry only where that bound is not finite), and the
    kept w~ are checked once after the loop.  np.vecdot for the Frobenius
    pass (numpy >= 2 only) and per-step np.moveaxis or as_strided views of
    the rows did not pay.
    """
    if schedule.Q0 is not None:
        raise ValueError("the projection-free sketch takes no spatial Q0")
    params = tape.params
    n_z = params.preactivation_size
    t_len = tape.length
    # only tau is read, so the noise may have any dim
    batch = _noise_batch(noise, t_len, tape.batch_shape)
    greedy = schedule.mode == GIR
    if not greedy:
        _check_alpha(schedule, t_len, batch)
    # J_cut's nonzeros at every step: rows[at] is (nnz, [B]), and values[t]
    # the step's (nnz, [B]) or, for B seeds on one tape, (nnz, 1)
    state_index, cut_index, values = rnn.preactivation_cut_nonzeros(tape.steps)
    values = np.moveaxis(values, -1, 1)
    if values.ndim < len(batch) + 2:
        values = values[:, :, None]
    buffers = [np.empty((n_z, *batch, params.state_size)),  # step 1 writes all of it
               np.zeros((n_z, *batch, params.state_size))]  # step 0's rows
    carried = np.empty((t_len, *batch, n_z))
    w_rows = np.empty((t_len, *batch, params.augmented_size))
    at = (cut_index, Ellipsis, state_index)
    if greedy:
        gammas, betas = _gir_preuoro_loop(tape, noise.tau, at, values, buffers, carried,
                                          w_rows)
    else:
        gammas, betas = _fixed_preuoro_loop(tape, noise.tau, at, values, buffers, carried,
                                            w_rows, schedule)
    carried *= gammas[..., None]  # H~_t = gamma_t R_t: every step's scale at once
    return _report("preuoro", noise, _Factors(carried, w_rows), gammas, betas)


def _gir_preuoro_loop(tape, tau, at, values, buffers, carried, w_rows):
    """run_preuoro's step loop under GIR.  H~ is held as scale times rows
    (N_z, [B,] S), each step writing the other of the two buffers; at is
    J_cut's nonzeros as an index of the rows and values (T, nnz, [B]) their
    values.  Fills carried (T, [B,] N_z), each step's r_t / gamma_t, and
    w_rows (T, [B,] A), each step's w~_t, and returns the realized
    (gammas, betas), (T, [B]); each step checks its norms."""
    t_len = tape.length
    batch = carried.shape[1:-1]
    gammas = np.zeros((t_len, *batch))
    betas = np.zeros((t_len, *batch))
    loss_cols = rnn.embed_state_grad(tape.params, tape.loss_grads)[..., None]
    a_norms = _norms(tape.steps.a)
    scale = 1.0
    w_tilde = np.zeros(w_rows.shape[1:])
    for t, cache in enumerate(tape.step_caches):
        rows = buffers[1] if t == 0 else rnn.jvp_state(
            cache, buffers[t % 2], out=buffers[(t + 1) % 2], scale=scale)
        w_norm, a_norm = _norms(w_tilde), a_norms[t]
        imm_sq = np.einsum("k...,k...->...", values[t], values[t])
        # F = J_state H~_{-1} = 0 at step 0
        fwd_sq = _frobenius_sq(rows) if t else np.zeros(rows.shape[1:-1])
        cross = np.einsum("k...,k...->...", rows[at], values[t]) if t else fwd_sq
        fwd_norm, imm_norm = np.sqrt(fwd_sq), np.sqrt(imm_sq)
        gamma, beta = _gir_coefficients(w_norm, fwd_norm, a_norm, imm_norm)
        beta_tau = beta * tau[t]
        gamma_col = _col(gamma)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows[at] += values[t] * (beta_tau / gamma)
            w_tilde = w_tilde / gamma_col + _col(tau[t] / beta) * cache.a
            rows_sq = (gamma * gamma * fwd_sq + 2.0 * gamma * beta_tau * cross
                       + beta_tau * beta_tau * imm_sq)
            size = np.abs(tau[t])
            _zero_cancelled_rows(rows, rows_sq,
                                 gamma * fwd_norm + beta * size * imm_norm, gamma)
            w_new_norm = _norms(w_tilde)
            _zero_cancelled(w_tilde, w_new_norm, w_norm / gamma + size / beta * a_norm)
            # the new H~ is gamma * rows; a non-finite formula norm is
            # confirmed densely
            finite = ((np.isfinite(rows_sq).all()
                       or np.isfinite(_frobenius_sq(rows * gamma_col)).all())
                      and np.isfinite(w_new_norm).all())
        if not finite:
            raise NumericOverflowError(f"projection-free sketch overflowed at step {t}")
        scale = gamma
        gammas[t], betas[t] = gamma, beta
        np.matmul(rows.swapaxes(0, -2), loss_cols[t], out=carried[t, ..., None])
        w_rows[t] = w_tilde
    return gammas, betas


def _fixed_preuoro_loop(tape, tau, at, values, buffers, carried, w_rows, schedule):
    """run_preuoro's step loop under a fixed alpha, as _gir_preuoro_loop:
    (gamma_t, beta_t), beta_t tau_t / gamma_t and tau_t / beta_t are arrays
    made once, the loop runs under one np.errstate, and the w~_t, all kept,
    are checked once after it; each step checks only its new H~, and an
    earlier non-finite w~ names its own step first."""
    t_len = tape.length
    batch = carried.shape[1:-1]
    gamma, beta = schedule.fixed_steps(t_len)
    gamma_cols = gamma[..., None]
    gamma_sq_max = np.max(gamma * gamma, axis=tuple(range(1, gamma.ndim)),
                          initial=0.0).tolist()
    loss_cols = rnn.embed_state_grad(tape.params, tape.loss_grads)[..., None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tau = _per_step(tau[:t_len], batch)
        beta_rows = _per_step(beta, batch)
        immediate = beta_rows * tau / _per_step(gamma, batch)
        tau_beta = (tau / beta_rows)[..., None]
        w_tilde = np.zeros(w_rows.shape[1:])
        for t, cache in enumerate(tape.step_caches):
            rows = buffers[1] if t == 0 else rnn.jvp_state(
                cache, buffers[t % 2], out=buffers[(t + 1) % 2], scale=gamma[t - 1])
            rows[at] += values[t] * immediate[t]
            w_tilde = np.divide(w_tilde, gamma_cols[t], out=w_rows[t])
            w_tilde += tau_beta[t] * cache.a
            # the new H~ is gamma * rows, all finite if max gamma^2 ||rows||^2
            # is; only a step where that bound is not finite checks the
            # entries themselves
            if not (math.isfinite(gamma_sq_max[t] * np.vdot(rows, rows))
                    or np.isfinite(rows * gamma_cols[t]).all()):
                _raise_first_overflow("projection-free sketch", w_rows[:t])
                raise NumericOverflowError(f"projection-free sketch overflowed at step {t}")
            np.matmul(rows.swapaxes(0, -2), loss_cols[t], out=carried[t, ..., None])
    _raise_first_overflow("projection-free sketch", w_rows)
    return _over_rows(gamma, batch), _over_rows(beta, batch)


def run_spatial(tape: EpisodeTape, cut, noise) -> GradientReport:
    """Forward accumulation with the immediate influence replaced by its
    rank-one spatial projection (J_cut nu)(nu^T J_theta); no temporal noise.

    noise is one EpisodeNoise, or a NoiseBlock of B as for run_uoro: B seeds
    on one tape, or one per episode of a batched tape.  The estimate is
    sum_s <c_s, nu_s> nu_s^T J_theta(s) = sum_s vec((w_s nu_s f_s) a_s^T):
    c_s is the total loss's adjoint at step s's cut (exact.cut_adjoints),
    w_s = <c_s, nu_s>, and f_s is f'(z_s) at the state cut, 1 at the
    preactivation cut.  So it is BPTT's sweep, and its factors are the
    w_s nu_s f_s and the a_s.
    """
    batch = _noise_batch(noise, tape.length, tape.batch_shape,
                         tape.params.cut_size(cut))
    nu = _steps_first(noise.nu[: tape.length], len(batch))
    c = _steps_first(exact.cut_adjoints(tape, cut), len(batch))
    left = np.add.reduce(c * nu, axis=-1, keepdims=True) * nu
    if cut == CutVertex.STATE:
        left *= _steps_first(tape.steps.d, len(batch))
    return _report("spatial", noise,
                   _Factors(left, _steps_first(tape.steps.a, len(batch))))


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
    sweep, one per distinct episode, with zero offsets; the rows repeat the
    episodes' inputs and targets.  One head call after the sweep gives every
    loss and forms no dL/dh.  With the suffix sums R_s = sum_{t>=s} (L_t -
    baseline_t) the estimate is sum_s vjp_params(cache_s, (R_s / sigma)
    Q0^{-T} u_s), as vjp_params is linear in its rows: its vec(g_z a^T)
    terms, g_z pulled back from the steps' arrays, are the report's factors.
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, not {sigma!r}")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 2:
        inputs = np.atleast_2d(inputs)
    episodes = inputs.shape[:-2]
    t_len, h_size = inputs.shape[-2], params.hidden_size
    targets = rnn.episode_targets(targets, episodes, t_len)
    batch = _noise_batch(noise, t_len, episodes, h_size, "hidden size")
    q0, q0_inv = (None, None) if Q0 is None else _checked_q0(Q0)
    if q0 is not None and q0.shape[0] != h_size:
        raise ShapeError(f"Q0 shape {q0.shape} != hidden size ({h_size}, {h_size})")
    baseline_values = _baseline_rows(baseline, t_len, batch)
    clean = baseline_values is None

    # rows 0..n-1 are perturbed, then under "noise-free" one clean row per episode
    n = batch[0] if batch else 1
    count = episodes[0] if episodes else 1
    total = n + count if clean else n

    def rows(x):  # (T, [E,] ...) as (T, total, ...): row j runs episode j mod E
        x = x[:, None].repeat(total // count, axis=1)
        return x.reshape(t_len, total, *x.shape[3:]) if episodes else x

    u = noise.u[:t_len].reshape(t_len, -1, h_size)  # (T, 1 or n, H)
    # the offsets; unperturbed rows and the LSTM cell add 0
    states = np.zeros((t_len, total, params.state_size))
    states[:, :n, :h_size] = u if q0 is None else u @ q0.T
    states *= sigma
    steps = rnn.empty_steps(params, (t_len, total))
    rnn.sweep(params, np.zeros((total, params.state_size)), rows(inputs.swapaxes(0, -2)),
              steps, offsets=states)

    losses = head.losses(states[..., :h_size],
                         rnn.Targets(rows(targets.values), rows(targets.mask)))
    losses = np.zeros((t_len, total)) + losses  # a head may return one scalar
    advantage = losses[:, :n] - (losses[:, n:] if clean else baseline_values)
    suffix = (np.add.accumulate(advantage[::-1]) / sigma)[::-1]  # contiguous passes
    directions = suffix[..., None] * (u if q0_inv is None else u @ q0_inv)
    if params.cell_kind == rnn.LSTM:  # the pullback on the perturbed rows
        g_z = rnn.vjp_to_cut(steps[:, :n], CutVertex.PREACTIVATION,
                             rnn.embed_state_grad(params, directions))
    else:
        g_z = np.multiply(directions, steps.d[:, :n], out=directions)
    perturbed = slice(None, n) if batch else 0  # the factors' (T, [B,] .) rows
    return _report("reinforce", noise, _Factors(g_z[:, perturbed], steps.a[:, perturbed]))


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

