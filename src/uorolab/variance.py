"""Closed-form variance machinery for the total gradient estimate.

Given the causal suffix rows of one episode's exact adjoints (SuffixRows),
this module predicts the noise-dependent part V of the total-variance of
rank-one gradient estimators, and optimizes the two structural degrees of
freedom of the noise-shaping matrices Q_s = alpha_s Q0:

  * the per-step scalars alpha via a convex equilibration problem on a
    nonnegative T x T matrix C (Newton solver, closed form for rank-one C);
  * the spatial matrix Q0 via the PSD matrix B, whose -1/4 power minimizes
    tr(B Q0 Q0^T) tr((Q0 Q0^T)^{-1}), attaining tr(B^{1/2})^2.

Fourth-moment lemmas for standard random vectors (excess kurtosis kappa)
back the predictions; an online rank-one estimator of B and empirical
variance measurement utilities close the loop.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import rnn
from .errors import ShapeError, UnsupportedCutError
from .exact import EpisodeTensors, GradientVector, SuffixRows
from .estimators import (
    FIXED_ALPHA,
    ScalingSchedule,
    _check_alpha,
    _check_length,
    _checked_q0,
    _col,
    _gir_coefficients,
    _norms,
)
from .linalg import frob_norm, psd_frac_power, trace
from .noise import EpisodeNoise, NoiseBlock
from .rnn import CutVertex, EpisodeTape

# ---------------------------------------------------------------------------
# Moment lemmas
# ---------------------------------------------------------------------------

def quartic_moment_closed(A, B, C, D, kappa: float = 0.0) -> np.ndarray:
    """E[A u u^T B C u u^T D] for a standard random vector u with excess
    kurtosis kappa:

        tr(BC) A D + A (BC) D + A (BC)^T D + kappa A ((BC) . I) D.

    For symmetric BC the two middle terms collapse to 2 A B C D.
    """
    A, B, C, D = (np.asarray(m, dtype=np.float64) for m in (A, B, C, D))
    n = A.shape[1]
    if B.shape[0] != n or C.shape[1] != n or D.shape[0] != n:
        raise ShapeError("u-facing dimensions of A, B, C, D must agree")
    if B.shape[1] != C.shape[0]:
        raise ShapeError("B C product is not conformable")
    bc = B @ C
    return (
        trace(bc) * (A @ D)
        + A @ (bc + bc.T) @ D
        + kappa * (A @ (np.diag(np.diag(bc)) @ D))
    )


def covariance_closed(x, y, V, W, kappa: float = 0.0) -> np.ndarray:
    """Cov[x^T u u^T V, y^T u u^T W] for a standard random vector u:

    (x^T y) V^T W + V^T y x^T W + kappa V^T ((x y^T) . I) W.

    (The middle term follows from the quartic moment: the xy^T block enters
    both directly and transposed, and the transposed copy survives the
    subtraction of the product of means.)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    n = x.shape[0]
    if y.shape != (n,) or V.shape[0] != n or W.shape[0] != n:
        raise ShapeError("u-facing dimensions of x, y, V, W must agree")
    cov = float(x @ y) * (V.T @ W) + np.outer(V.T @ y, x @ W)
    if kappa != 0.0:
        cov = cov + kappa * (V.T * (x * y)) @ W
    return cov


def covariance_closed_trace(x, y, V, W, kappa: float = 0.0) -> float:
    """Trace of covariance_closed; V and W must map to the same space."""
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if V.shape != W.shape:
        raise ShapeError("trace form needs V and W of equal shape")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = float(x @ y) * float(np.sum(V * W)) + float((y @ V) @ (x @ W))
    if kappa != 0.0:
        out += kappa * float(np.sum((V.T * (x * y)) * W.T))
    return out


def moment_lemma_zscores(rng: np.random.Generator, n: int) -> list:
    """Monte-Carlo check of the moment lemmas against n draws of u.

    For dim 2, 4 and 8, with Gaussian (kappa 0) and then sign (kappa -2)
    draws, the largest |z| of quartic_moment_closed, covariance_closed and
    covariance_closed_trace against their sample means, whose standard errors
    come from the same draws.  Returns rows (dim, kappa, check, z) with
    check "quartic", "cov" or "trace"."""
    rows = []
    for dim in (2, 4, 8):
        for kappa in (0.0, -2.0):
            a, b, c, d = (rng.standard_normal((dim, dim)) for _ in range(4))
            if kappa == 0.0:
                u = rng.standard_normal((n, dim))
            else:
                u = rng.integers(0, 2, size=(n, dim)) * 2.0 - 1.0
            # proposition: E[A u u^T BC u u^T D]
            s = np.einsum("ni,ij,nj->n", u, b @ c, u)
            inner = np.einsum("n,ni,nj->ij", s, u, u) / n
            second = np.einsum("n,ni,nj->ij", s * s, u * u, u * u) / n
            inner_se = np.sqrt(np.maximum(second - inner**2, 0) / n)
            se = np.abs(a) @ inner_se @ np.abs(d) + 1e-12
            error = np.abs(quartic_moment_closed(a, b, c, d, kappa) - a @ inner @ d)
            rows.append((dim, kappa, "quartic", float((error / se).max())))
            # corollary: covariance matrix and its trace
            x, y = rng.standard_normal(dim), rng.standard_normal(dim)
            v, w = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
            left = (u @ x)[:, None] * (u @ v)
            right = (u @ y)[:, None] * (u @ w)
            prod = np.einsum("ni,nj->ij", left, right) / n
            cov_mc = prod - np.outer(x @ v, y @ w)
            prod_second = np.einsum("ni,nj->ij", left**2, right**2) / n
            cov_se = np.sqrt(np.maximum(prod_second - prod**2, 0) / n) + 1e-12
            error = np.abs(covariance_closed(x, y, v, w, kappa) - cov_mc)
            rows.append((dim, kappa, "cov", float((error / cov_se).max())))
            tr_samples = np.sum(left * right, axis=1)
            tr_mc = tr_samples.mean() - float((x @ v) @ (y @ w))
            tr_se = tr_samples.std(ddof=1) / np.sqrt(n) + 1e-12
            error = abs(covariance_closed_trace(x, y, v, w, kappa) - tr_mc)
            rows.append((dim, kappa, "trace", float(error / tr_se)))
    return rows


# ---------------------------------------------------------------------------
# The C matrix and the alpha equilibration problem
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _tril_indices(t_len: int):
    """np.tril_indices(t_len), made once per length, as read-only arrays."""
    q, r = np.tril_indices(t_len)
    q.flags.writeable = r.flags.writeable = False
    return q, r


def _rows_of(rows: SuffixRows):
    """(v, q, r): one episode's packed suffix rows v_qr and their index
    arrays, np.tril_indices(T).  The callers read the rows and write nothing
    into them."""
    if rows.rows.ndim != 2:
        raise ShapeError("this takes the rows of one episode: slice a block's "
                         "rows with rows.episode(j)")
    return (rows.rows, *_tril_indices(rows.length))


def _theta_weights(rows: SuffixRows, Q0_inv: np.ndarray | None) -> np.ndarray:
    """w_q = ||Q0^{-1} J_q||_F^2 per step.  With J_q = diag(f_q) (I (x) a_q^T)
    it is ||Q0^{-1} diag(f_q)||_F^2 ||a_q||^2, where the first factor is
    sum_j f_qj^2 ||column j of Q0^{-1}||^2 (N_z or ||Q0^{-1}||_F^2 for
    f_q = 1)."""
    if rows.d is None:
        scale = rows.cut_dim if Q0_inv is None else float(np.sum(Q0_inv**2))
    else:
        f_sq = np.square(rows.d)
        scale = (np.sum(f_sq, axis=-1) if Q0_inv is None
                 else f_sq @ np.sum(Q0_inv**2, axis=0))
    return scale * rows.a_norms**2


def compute_C(rows: SuffixRows, Q0: np.ndarray | None = None,
              Q0_inv: np.ndarray | None = None) -> np.ndarray:
    """The T x T nonnegative matrix defining the alpha objective
    sum_{q,r} (alpha_r^2 / alpha_q^2) C[q, r]:

        C[q, r] = || v_qr^T Q0 ||^2 * ||Q0^{-1} J_q||_F^2,
        v_qr = sum_{t>=q} b[t, r],

    from one episode's suffix rows: Q0 acts on the T(T+1)/2 distinct rows
    only, and C[q, r] for q < r reads the diagonal row (r, r).  Q0_inv, if
    given, must be the inverse of Q0 as ScalingSchedule holds it, checked and
    inverted already; otherwise Q0 is checked and inverted here
    (estimators._checked_q0).
    """
    if Q0 is not None and Q0_inv is None:
        Q0, Q0_inv = _checked_q0(Q0)
    v, q, r = _rows_of(rows)
    if Q0 is None:
        squares = np.square(v)
    else:
        squares = v @ Q0
        np.square(squares, out=squares)
    norms = np.sum(squares, axis=1)
    weights = _theta_weights(rows, Q0_inv)
    c = np.outer(weights, norms[q == r])  # above the diagonal v_qr = v_rr
    c[q, r] = norms * weights[q]
    return c


@dataclass
class AlphaSolution:
    """Solution of the alpha equilibration problem in log parameters
    zeta (alpha_s = exp(zeta_s / 2)), gauge-fixed to min zeta = 0."""

    zeta: np.ndarray
    alpha: np.ndarray
    residual: float  # ||(Cbar - Cbar^T) 1||_inf relative to max |C|
    objective: float
    iterations: int
    converged: bool


EPS = np.finfo(np.float64).eps
NEWTON_TOL = 1e-8  # on the relative stationarity residual of solve_alpha_newton


def _alpha_objective(c_scaled: np.ndarray) -> float:
    return float(np.sum(c_scaled))


def _rescaled(c: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Z^{-1} C Z with Z = diag(exp(zeta))."""
    return c * np.exp(zeta[None, :] - zeta[:, None])


def solve_alpha_newton(C: np.ndarray) -> AlphaSolution:
    """Equilibrate C by a damped Newton method in log scale.

    The objective sum_{q,r} exp(zeta_r - zeta_q) C[q,r] is smooth and convex;
    its gradient is (Cbar^T - Cbar) 1 and its Hessian the graph Laplacian of
    Cbar + Cbar^T, damped by 1e-8 because the all-ones shift is a null
    direction.  Stationarity is equal row and column sums of Cbar, to
    NEWTON_TOL, within 200 steps; a step is halved on stall.  C is normalized by its largest entry first (the minimizer is
    scale-invariant), so tolerances are relative.  A solve also counts as
    converged when the objective can no longer resolve the Newton step;
    residual still reports the gradient actually reached.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ShapeError("C must be square")
    if np.any(C < 0):
        raise ValueError("C must be nonnegative")
    scale = float(C.max())
    if scale == 0.0:
        raise ValueError("C must not be all zero")
    c = C / scale
    t_len = c.shape[0]
    zeta = np.zeros(t_len)
    cbar = _rescaled(c, zeta)  # always Z^{-1} C Z at the current zeta
    iterations = 0
    resolved = False
    for iterations in range(1, 201):
        grad = cbar.sum(axis=0) - cbar.sum(axis=1)
        if float(np.max(np.abs(grad))) <= NEWTON_TOL:
            break
        s = cbar + cbar.T
        hess = np.diag(s.sum(axis=1)) - s
        direction = np.linalg.solve(hess + 1e-8 * np.eye(t_len), grad)
        obj = _alpha_objective(cbar)
        if float(grad @ direction) <= t_len * EPS * obj:
            # The Newton decrement is below the rounding error of the
            # objective sum, so a line search could not tell descent from
            # noise: take the full step and stop.
            zeta = zeta - direction
            cbar = _rescaled(c, zeta)
            resolved = True
            break
        step = 1.0
        for _ in range(50):
            candidate = zeta - step * direction
            candidate -= candidate.min()
            trial = _rescaled(c, candidate)
            if _alpha_objective(trial) <= obj:
                zeta, cbar = candidate, trial
                break
            step *= 0.5
        else:
            break  # no descent at the smallest step: stalled
    residual = float(np.max(np.abs(cbar.sum(axis=0) - cbar.sum(axis=1))))
    zeta = zeta - zeta.min()
    return AlphaSolution(
        zeta=zeta,
        alpha=np.exp(zeta / 2.0),
        residual=residual,
        objective=_alpha_objective(cbar) * scale,
        iterations=iterations,
        converged=residual <= NEWTON_TOL or resolved,
    )


def alpha_closed_form_rank1(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Minimizer of the separable rank-one objective
    (sum_r m_r alpha_r^2)(sum_q n_q / alpha_q^2), i.e. C = outer(n, m):
    alpha_k = (n_k / m_k)^{1/4} (any common positive factor is free)."""
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if np.any(m <= 0) or np.any(n <= 0):
        raise ValueError("m and n must be strictly positive")
    return (n / m) ** 0.25


# ---------------------------------------------------------------------------
# The B matrix, optimal Q0, and predicted variance
# ---------------------------------------------------------------------------

def _require_preactivation(rows: SuffixRows, what: str):
    if rows.cut != CutVertex.PREACTIVATION:
        raise UnsupportedCutError(f"{what} requires the preactivation cut")


def _checked_alpha(rows: SuffixRows, alpha: np.ndarray) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (rows.length,):
        raise ShapeError(f"alpha shape {alpha.shape} != ({rows.length},)")
    return alpha


def compute_B(rows: SuffixRows, alpha: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """The PSD matrix whose trace pair with Q0 Q0^T gives the structured
    variance,

        sum_{q,r} (alpha_r^2/alpha_q^2) ||a_q||^2 v_qr v_qr^T
        with v_qr = sum_{s>=q} b[s, r],

    the "qr" form, summed over one episode's T(T+1)/2 distinct suffix rows
    v_qr, q >= r.  out, if given, is a running sum that B is added into and
    that is returned, not symmetrized: a caller that sums many B symmetrizes
    the sum once.
    """
    _require_preactivation(rows, "compute_B")
    alpha = _checked_alpha(rows, alpha)
    b_mat = _qr_B(*_rows_of(rows), rows.a_norms**2, alpha)
    if out is not None:
        return np.add(out, b_mat, out=out)
    return 0.5 * (b_mat + b_mat.T)


def _qr_B(rows: np.ndarray, q: np.ndarray, r: np.ndarray, a_sq: np.ndarray,
          alpha: np.ndarray) -> np.ndarray:
    """The "qr" form of B summed over the loss steps q < k, from the
    distinct suffix rows (k(k+1)/2, N_z) in np.tril_indices(k) order, as the
    one weighted product V^T diag(w) V over the rows.  A row (q, r) with
    q > r has weight (alpha_r^2 / alpha_q^2) ||a_q||^2; the diagonal row
    (r, r) equals v_qr for every q <= r and takes all their weights,
    alpha_r^2 sum_{q<=r} ||a_q||^2 / alpha_q^2.  Evaluated as R^T R with
    R = diag(sqrt(w)) V so that BLAS forms a symmetric rank-k product."""
    k = q[-1] + 1
    alpha_sq = alpha[:k] ** 2
    ratio = a_sq[:k] / alpha_sq
    w = ratio[q] * alpha_sq[r]
    w[q == r] = alpha_sq * np.cumsum(ratio)
    weighted = rows * np.sqrt(w)[:, None]
    return weighted.T @ weighted


def compute_B_partial(rows: SuffixRows, alpha: np.ndarray, k: int) -> np.ndarray:
    """The running B truncated to the first k steps (1 <= k <= T): the exact
    target of the online estimator at step k.  The truncated episode's
    suffix rows are v_qr - v_kr, q < k, with v_Tr = 0."""
    _require_preactivation(rows, "compute_B_partial")
    if not 1 <= k <= rows.length:
        raise ValueError(f"k = {k} is outside 1..{rows.length}")
    alpha = np.asarray(alpha, dtype=np.float64)
    v, _, _ = _rows_of(rows)
    q, r = _tril_indices(k)
    truncated = v[:q.size] if k == rows.length else v[:q.size] - v[q.size + r]
    out = _qr_B(truncated, q, r, rows.a_norms**2, alpha)
    return 0.5 * (out + out.T)


def optimal_Q0(b_bar: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """The variance-optimal spatial matrix (B + damping * mean-eigenvalue I)
    to the power -1/4.  With zero damping and positive definite B it satisfies
    B (Q0 Q0^T) = (Q0 Q0^T)^{-1}."""
    b_bar = np.asarray(b_bar, dtype=np.float64)
    n = b_bar.shape[0]
    damped = b_bar + damping * (trace(b_bar) / n) * np.eye(n)
    return psd_frac_power(damped, -0.25)


def predicted_VQ(rows: SuffixRows, alpha: np.ndarray,
                 Q0: np.ndarray | None = None,
                 Q0_inv: np.ndarray | None = None) -> float:
    """Predicted Q-dependent part of the total-gradient variance, the alpha
    objective sum_{q,r} (alpha_r^2 / alpha_q^2) C[q, r] at Q0 (compute_C), at
    either cut.  At the preactivation cut it equals
    tr(B Q0 Q0^T) tr((Q0 Q0^T)^{-1}), and N_z tr(B) without Q0; the
    projection-free variant's prediction is tr(B).  Q0 and Q0_inv are taken
    as compute_C takes them."""
    alpha_sq = np.square(_checked_alpha(rows, alpha))
    return float((1.0 / alpha_sq) @ compute_C(rows, Q0, Q0_inv) @ alpha_sq)


# ---------------------------------------------------------------------------
# Trace-product minimization (the optimality certificate behind Q0)
# ---------------------------------------------------------------------------

def _require_pd(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square")
    if frob_norm(m - m.T) > 1e-10 * max(frob_norm(m), 1e-300):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
    return m


def trace_product_c(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """c(A) = tr(X A) tr(Y A^{-1}) over PD matrices."""
    A = _require_pd(A, "A")
    X = _require_pd(X, "X")
    Y = _require_pd(Y, "Y")
    return trace(X @ A) * trace(Y @ np.linalg.inv(A))


def minimize_trace_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The PD minimizer A = X^{-1/2} (X^{1/2} Y X^{1/2})^{1/2} X^{-1/2},
    which solves A X A = Y and hence X A = A^{-1} Y."""
    X = _require_pd(X, "X")
    Y = _require_pd(Y, "Y")
    x_half = psd_frac_power(X, 0.5)
    x_inv_half = psd_frac_power(X, -0.5)
    inner = psd_frac_power(x_half @ Y @ x_half, 0.5)
    a = x_inv_half @ inner @ x_inv_half
    return 0.5 * (a + a.T)


def minimal_trace_product(X: np.ndarray, Y: np.ndarray) -> float:
    """The optimal value tr((X^{1/2} Y X^{1/2})^{1/2})^2, i.e.
    tr((XY)^{1/2})^2 evaluated through a symmetric similar matrix."""
    x_half = psd_frac_power(np.asarray(X, dtype=np.float64), 0.5)
    return trace(psd_frac_power(x_half @ Y @ x_half, 0.5)) ** 2


def check_minimizer(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> bool:
    """True iff X A = gamma A^{-1} Y for some gamma > 0, to a relative 1e-8."""
    m1 = X @ A
    m2 = np.linalg.inv(A) @ Y
    gamma = trace(m1) / trace(m2)
    if gamma <= 0:
        return False
    return frob_norm(m1 - gamma * m2) <= 1e-8 * max(frob_norm(m1), 1e-300)


# ---------------------------------------------------------------------------
# Offline estimate, online B estimator, empirical variance
# ---------------------------------------------------------------------------

def offline_total_estimate(tensors: EpisodeTensors, u: np.ndarray,
                           alpha: np.ndarray,
                           Q0: np.ndarray | None = None,
                           Q0_inv: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the total gradient estimate directly from the adjoint tensors
    and the realized noise:

        sum_t (sum_s alpha_s b[t,s]^T Q0 u_s)
              (sum_{r<=t} alpha_r^{-1} u_r^T Q0^{-1} J_r).

    This is the audit oracle for the online recursions: with matching alpha
    and noise it reproduces their accumulated estimate to roundoff.  Q0_inv,
    if given, must be the checked inverse of Q0, as for compute_C.
    """
    if Q0 is not None and Q0_inv is None:
        Q0, Q0_inv = _checked_q0(Q0)
    alpha = np.asarray(alpha, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    t_len = tensors.length
    shaped_u = u if Q0 is None else u @ Q0.T  # row s = Q0 u_s
    left = np.einsum("tsi,s,si->t", tensors.b, alpha, shaped_u)
    unshaped = u if Q0_inv is None else u @ Q0_inv  # row s = u_s^T Q0^{-1}
    if tensors.d is not None:  # u_s^T Q0^{-1} diag(f_s)
        unshaped = unshaped * tensors.d
    rows = np.einsum("s,si,sj->sij", 1.0 / alpha, unshaped, tensors.a).reshape(t_len, -1)
    # summed in place: one (T, P) array fewer alive
    return left @ np.cumsum(rows, axis=0, out=rows)


ETA_ZETA_ONES = "ones"
ETA_ZETA_GIR = "gir"


def estimate_B_online(tape: EpisodeTape, noise: EpisodeNoise | NoiseBlock,
                      schedule: ScalingSchedule,
                      eta_zeta: str = ETA_ZETA_ONES) -> np.ndarray:
    """Unbiased per-step estimates of the running B matrix.

    Maintains, alongside the sketch coefficients (gamma_t, beta_t) of a
    fixed-alpha schedule without Q0 (fixed_coefficients),

        a~_t  = a~_{t-1}/gamma_t + sigma_t ||a_t|| / beta_t
        h~_t  = eta_t gamma_t J_state h~_{t-1} + zeta_t tau_t beta_t J_cut nu_t
        nu~_t = nu~_{t-1}/eta_t + nu_t/zeta_t
        m~_t  = m~_{t-1} + a~_t (dL_t/dstate . h~_t) nu~_t

    plus a replica n~ driven by the independent spatial stream mu (same
    temporal sigma, tau), and emits the symmetrized cross products
    (m~ n~^T + n~ m~^T)/2, one per step.  The inner coefficients (eta, zeta)
    only reduce variance; "gir" picks them by the sketches' norm-equalizing
    rule.

    It is batch-first: the main sketch and its replica are the two rows of a
    leading axis, and noise is one EpisodeNoise or a NoiseBlock of B, one per
    episode of a batched tape or B seeds on one tape, of which the first T
    steps are used.  Returns the (T, [B,] N_z, N_z) estimates.
    """
    params = tape.params
    n_z = params.preactivation_size
    t_len = tape.length
    if noise.dim != n_z:
        raise ShapeError(f"noise dim {noise.dim} != preactivation dim {n_z}")
    _check_length(noise, t_len)
    if eta_zeta not in (ETA_ZETA_ONES, ETA_ZETA_GIR):
        raise ValueError(f"unknown eta/zeta mode {eta_zeta!r}")
    if schedule.mode != FIXED_ALPHA or schedule.Q0 is not None:
        raise ValueError("the online B estimator takes a fixed-alpha schedule "
                         "without Q0")
    batch = np.broadcast_shapes(tape.batch_shape, noise.tau.shape[1:])
    _check_alpha(schedule, t_len, batch)
    spatial = np.stack([noise.nu, noise.mu], axis=1)  # (T, 2, [B,] N_z)
    a_tilde = np.zeros(batch)
    h_tilde = np.zeros((2, *batch, params.state_size))
    nu_tilde = np.zeros((2, *batch, n_z))
    m_tilde = np.zeros((2, *batch, n_z))  # m~ and n~
    estimates = np.empty((t_len, *batch, n_z, n_z))
    for t in range(t_len):
        cache = tape.steps[t]
        gamma, beta = schedule.fixed_coefficients(t)
        a_tilde = a_tilde / gamma + noise.sigma[t] * _norms(cache.a) / beta
        forwarded = _col(gamma) * rnn.jvp_state(cache, h_tilde)
        immediate = _col(noise.tau[t] * beta) * rnn.jvp_cut(
            cache, CutVertex.PREACTIVATION, spatial[t])
        if eta_zeta == ETA_ZETA_GIR:
            eta, zeta = _gir_coefficients(_norms(nu_tilde), _norms(forwarded),
                                          _norms(spatial[t]), _norms(immediate))
        else:
            eta = zeta = 1.0
        h_tilde = _col(eta) * forwarded + _col(zeta) * immediate
        nu_tilde = nu_tilde / _col(eta) + spatial[t] / _col(zeta)
        scores = np.sum(tape.loss_grad_full(t) * h_tilde, axis=-1)
        m_tilde = m_tilde + _col(a_tilde * scores) * nu_tilde
        cross = m_tilde[0][..., :, None] * m_tilde[1][..., None, :]
        estimates[t] = 0.5 * (cross + np.swapaxes(cross, -1, -2))
    return estimates


class EmpiricalVariance(NamedTuple):
    """Measured variance of a set of estimates against the exact gradient.

    actual: mean ||estimate - exact||^2 (the total second moment of the
        error; for an unbiased estimator this is the total variance).
    vq: actual - ||exact||^2, the measurement of the Q-dependent part (the
        subtraction used when comparing against predicted_VQ).
    intrinsic: ||exact||^2 for this instance.
    """

    actual: float
    vq: float
    intrinsic: float


def empirical_variance(runs, exact: GradientVector | np.ndarray) -> EmpiricalVariance:
    """Measure the estimator variance from >= 2 runs on one instance."""
    if hasattr(exact, "g"):
        exact = exact.g
    exact = np.asarray(exact, dtype=np.float64)
    estimates = np.stack(
        [np.asarray(getattr(r, "estimate", r), dtype=np.float64) for r in runs]
    )
    if estimates.shape[0] < 2:
        raise ValueError("empirical variance needs at least two runs")
    actual = float(np.mean(np.sum((estimates - exact) ** 2, axis=1)))
    intrinsic = float(exact @ exact)
    return EmpiricalVariance(actual=actual, vq=actual - intrinsic, intrinsic=intrinsic)
