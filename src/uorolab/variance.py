"""Closed-form variance machinery for the total gradient estimate.

Given the exact per-episode adjoints (EpisodeTensors), this module predicts
the noise-dependent part V of the total-variance of rank-one gradient
estimators, and optimizes the two structural degrees of freedom of the
noise-shaping matrices Q_s = alpha_s Q0:

  * the per-step scalars alpha via a convex equilibration problem on a
    nonnegative T x T matrix C (Newton solver, closed form for rank-one C);
  * the spatial matrix Q0 via the PSD matrix B, whose -1/4 power minimizes
    tr(B Q0 Q0^T) tr((Q0 Q0^T)^{-1}), attaining tr(B^{1/2})^2.

Fourth-moment lemmas for standard random vectors (excess kurtosis kappa)
back the predictions; an online rank-one estimator of B and empirical
variance measurement utilities close the loop.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rnn
from .errors import ShapeError, SingularMatrixError, UnsupportedCutError
from .exact import EpisodeTensors, GradientVector, SuffixRows
from .linalg import frob_norm, psd_frac_power, sqrt_ratio_or_one, trace
from .noise import EpisodeNoise
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


# ---------------------------------------------------------------------------
# The C matrix and the alpha equilibration problem
# ---------------------------------------------------------------------------

def _causal_suffix_rows(b: np.ndarray):
    """The distinct suffix rows v_qr = sum_{t>=q} b[t, r] of a causal b
    (T, T, N_z), with b[t, r] = 0 for r > t and hence v_qr = v_rr for
    q <= r.  Returns (rows, q, r): the T(T+1)/2 rows with q >= r in
    np.tril_indices order, and their index arrays.  Row q's block
    (q, 0..q) gains the first q + 1 rows of block q + 1 in one in-place
    reverse pass, the same sums as a cumulative sum from the last step."""
    t_len = b.shape[0]
    q, r = np.tril_indices(t_len)
    rows = b[q, r]
    for t in range(t_len - 2, -1, -1):
        start = t * (t + 1) // 2
        end = start + t + 1
        rows[start:end] += rows[end:end + t + 1]
    return rows, q, r


def _rows_of(tensors: EpisodeTensors | SuffixRows):
    """(rows, q, r) as _causal_suffix_rows returns them: built from the b of
    an EpisodeTensors, or the rows of one episode's SuffixRows.  The callers
    read the rows and write nothing into them."""
    if not isinstance(tensors, SuffixRows):
        return _causal_suffix_rows(tensors.b)
    if tensors.rows.ndim != 2:
        raise ShapeError("this takes the rows of one episode: slice a block's "
                         "rows with rows.episode(j)")
    q, r = np.tril_indices(tensors.length)
    return tensors.rows, q, r


def _theta_weights(tensors: EpisodeTensors | SuffixRows,
                   Q0_inv: np.ndarray | None) -> np.ndarray:
    """w_q = ||Q0^{-1} J_q||_F^2 per step."""
    if tensors.cut == CutVertex.PREACTIVATION:
        scale = tensors.cut_dim if Q0_inv is None else float(np.sum(Q0_inv**2))
        return scale * tensors.a_norms**2
    jacobians = tensors.j_dense if Q0_inv is None else [
        Q0_inv @ j for j in tensors.j_dense]
    return np.array([float(np.sum(j**2)) for j in jacobians])


def _q0_pair(Q0: np.ndarray | None, Q0_inv: np.ndarray | None = None):
    """(Q0, Q0^{-1}); a Q0_inv the caller already computed is taken as is."""
    if Q0 is None:
        return None, None
    Q0 = np.asarray(Q0, dtype=np.float64)
    if Q0_inv is not None:
        return Q0, Q0_inv
    try:
        Q0_inv = np.linalg.inv(Q0)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("Q0 is singular") from exc
    if not np.all(np.isfinite(Q0_inv)):
        raise SingularMatrixError("Q0 is numerically singular")
    return Q0, Q0_inv


def compute_C(tensors: EpisodeTensors | SuffixRows, Q0: np.ndarray | None = None,
              Q0_inv: np.ndarray | None = None) -> np.ndarray:
    """The T x T nonnegative matrix defining the alpha objective
    sum_{q,r} (alpha_r^2 / alpha_q^2) C[q, r]:

        C[q, r] = || sum_{t>=q} b[t, r]^T Q0 ||^2 * ||Q0^{-1} J_q||_F^2.

    b must be causal, b[t, r] = 0 for r > t (as episode_tensors builds it):
    Q0 acts on the T(T+1)/2 distinct suffix rows only, and C[q, r] for
    q < r reads the diagonal row (r, r).  The rows of one episode's
    SuffixRows are taken as they are.  Q0_inv, if given, must be the inverse
    of Q0 (as ScalingSchedule holds it); otherwise it is computed here.
    """
    Q0, Q0_inv = _q0_pair(Q0, Q0_inv)
    rows, q, r = _rows_of(tensors)
    if Q0 is None:
        squares = np.square(rows)
    else:
        squares = rows @ Q0
        np.square(squares, out=squares)
    norms = np.sum(squares, axis=1)
    weights = _theta_weights(tensors, Q0_inv)
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


def _alpha_objective(c_scaled: np.ndarray) -> float:
    return float(np.sum(c_scaled))


def _rescaled(c: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Z^{-1} C Z with Z = diag(exp(zeta))."""
    return c * np.exp(zeta[None, :] - zeta[:, None])


def solve_alpha_newton(C: np.ndarray, eta: float = 1.0, damping: float = 1e-8,
                       tol: float = 1e-8, max_iter: int = 200) -> AlphaSolution:
    """Equilibrate C by a damped Newton method in log scale.

    The objective sum_{q,r} exp(zeta_r - zeta_q) C[q,r] is smooth and convex;
    its gradient is (Cbar^T - Cbar) 1 and its Hessian the graph Laplacian of
    Cbar + Cbar^T, damped because the all-ones shift is a null direction.
    Stationarity is equal row and column sums of Cbar.  The step is halved on
    stall.  C is normalized by its largest entry first (the minimizer is
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
    iterations = 0
    resolved = False
    for iterations in range(1, max_iter + 1):
        cbar = _rescaled(c, zeta)
        grad = cbar.sum(axis=0) - cbar.sum(axis=1)
        if float(np.max(np.abs(grad))) <= tol:
            break
        s = cbar + cbar.T
        hess = np.diag(s.sum(axis=1)) - s
        direction = np.linalg.solve(hess + damping * np.eye(t_len), grad)
        obj = _alpha_objective(cbar)
        if float(grad @ direction) <= t_len * EPS * obj:
            # The Newton decrement is below the rounding error of the
            # objective sum, so a line search could not tell descent from
            # noise: take the full step and stop.
            zeta = zeta - eta * direction
            resolved = True
            break
        step = eta
        for _ in range(50):
            candidate = zeta - step * direction
            candidate -= candidate.min()
            if _alpha_objective(_rescaled(c, candidate)) <= obj:
                zeta = candidate
                break
            step *= 0.5
        else:
            break  # no descent at the smallest step: stalled
    cbar = _rescaled(c, zeta)
    residual = float(np.max(np.abs(cbar.sum(axis=0) - cbar.sum(axis=1))))
    zeta = zeta - zeta.min()
    return AlphaSolution(
        zeta=zeta,
        alpha=np.exp(zeta / 2.0),
        residual=residual,
        objective=_alpha_objective(cbar) * scale,
        iterations=iterations,
        converged=residual <= tol or resolved,
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


# ---------------------------------------------------------------------------
# The B matrix, optimal Q0, and predicted variance
# ---------------------------------------------------------------------------

def _require_preactivation(tensors: EpisodeTensors, what: str):
    if tensors.cut != CutVertex.PREACTIVATION:
        raise UnsupportedCutError(f"{what} requires the preactivation cut")


def compute_B(tensors: EpisodeTensors | SuffixRows, alpha: np.ndarray,
              form: str = "qr") -> np.ndarray:
    """The PSD matrix whose trace pair with Q0 Q0^T gives the structured
    variance.  Two algebraically equal forms are provided:

      "qr":    sum_{q,r} (alpha_r^2/alpha_q^2) ||a_q||^2 v_qr v_qr^T
               with v_qr = sum_{s>=q} b[s, r];
      "minst": sum_{s,t} (sum_{q<=min} alpha_q^{-2} ||a_q||^2)
                         (sum_r alpha_r^2 b[s,r] b[t,r]^T).

    Both need b causal, b[t, r] = 0 for r > t (as episode_tensors builds
    it); "qr" sums over the T(T+1)/2 distinct rows v_qr, q >= r, which one
    episode's SuffixRows holds already ("qr" only).
    """
    _require_preactivation(tensors, "compute_B")
    alpha = np.asarray(alpha, dtype=np.float64)
    t_len = tensors.length
    if alpha.shape != (t_len,):
        raise ShapeError(f"alpha shape {alpha.shape} != ({t_len},)")
    a_sq = tensors.a_norms**2
    if form == "qr":
        b_mat = _qr_B(*_rows_of(tensors), a_sq, alpha)
    elif form == "minst" and isinstance(tensors, EpisodeTensors):
        b_mat = _minst_B(tensors.b, a_sq, alpha)
    else:
        raise ValueError(f"unknown form {form!r} for {type(tensors).__name__}")
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


def _minst_B(b: np.ndarray, a_sq: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The "minst" form of B summed over the loss steps s, t < len(b)."""
    k = b.shape[0]
    cum = np.cumsum(a_sq / alpha**2)
    gram = np.einsum("r,sri,trj->stij", alpha**2, b, b)
    mins = np.minimum.outer(np.arange(k), np.arange(k))
    return np.einsum("st,stij->ij", cum[mins], gram)


def compute_B_partial(tensors: EpisodeTensors, alpha: np.ndarray, k: int) -> np.ndarray:
    """The running B truncated to the first k steps (1 <= k <= T): the exact
    target of the online estimator at step k."""
    _require_preactivation(tensors, "compute_B_partial")
    if not 1 <= k <= tensors.length:
        raise ValueError(f"k = {k} is outside 1..{tensors.length}")
    alpha = np.asarray(alpha, dtype=np.float64)
    out = _qr_B(*_causal_suffix_rows(tensors.b[:k, :k]), tensors.a_norms**2, alpha)
    return 0.5 * (out + out.T)


def optimal_Q0(b_bar: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """The variance-optimal spatial matrix (B + damping * mean-eigenvalue I)
    to the power -1/4.  With zero damping and positive definite B it satisfies
    B (Q0 Q0^T) = (Q0 Q0^T)^{-1}."""
    b_bar = np.asarray(b_bar, dtype=np.float64)
    n = b_bar.shape[0]
    damped = b_bar + damping * (trace(b_bar) / n) * np.eye(n)
    return psd_frac_power(damped, -0.25)


FLAVOR_GENERAL = "general"
FLAVOR_STRUCTURED = "structured"
FLAVOR_PREUORO = "preuoro"


def predicted_VQ(tensors: EpisodeTensors, alpha: np.ndarray,
                 Q0: np.ndarray | None = None,
                 flavor: str = FLAVOR_STRUCTURED) -> float:
    """Predicted Q-dependent part of the total-gradient variance.

    "general" evaluates the double time sum of trace products directly (any
    cut); "structured" uses tr(B Q0 Q0^T) tr((Q0 Q0^T)^{-1}) (preactivation
    cut, to which it is algebraically equal); "preuoro" is the projection-free
    variant, which equals tr(B) and takes no Q0.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if flavor == FLAVOR_STRUCTURED:
        _require_preactivation(tensors, "structured flavor")
        b_mat = compute_B(tensors, alpha)
        n = b_mat.shape[0]
        if Q0 is None:
            return trace(b_mat) * n
        qq = Q0 @ Q0.T
        return trace(b_mat @ qq) * trace(np.linalg.inv(qq))
    if flavor == FLAVOR_PREUORO:
        if Q0 is not None:
            raise ValueError("the projection-free flavor takes no Q0")
        return trace(compute_B(tensors, alpha))
    if flavor != FLAVOR_GENERAL:
        raise ValueError(f"unknown flavor {flavor!r}")
    Q0, Q0_inv = _q0_pair(Q0)
    shaped = tensors.b if Q0 is None else tensors.b @ Q0
    left = np.einsum("r,tri,sri->st", alpha**2, shaped, shaped)
    weights = _theta_weights(tensors, Q0_inv)
    cum = np.cumsum(weights / alpha**2)
    t_len = tensors.length
    mins = np.minimum.outer(np.arange(t_len), np.arange(t_len))
    return float(np.sum(left * cum[mins]))


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


def check_minimizer(A: np.ndarray, X: np.ndarray, Y: np.ndarray,
                    rtol: float = 1e-8) -> bool:
    """True iff X A = gamma A^{-1} Y for some gamma > 0 within rtol."""
    m1 = X @ A
    m2 = np.linalg.inv(A) @ Y
    gamma = trace(m1) / trace(m2)
    if gamma <= 0:
        return False
    return frob_norm(m1 - gamma * m2) <= rtol * max(frob_norm(m1), 1e-300)


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
    if given, must be the inverse of Q0.
    """
    Q0, Q0_inv = _q0_pair(Q0, Q0_inv)
    alpha = np.asarray(alpha, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    t_len = tensors.length
    shaped_u = u if Q0 is None else u @ Q0.T  # row s = Q0 u_s
    left = np.einsum("tsi,s,si->t", tensors.b, alpha, shaped_u)
    unshaped = u if Q0_inv is None else u @ Q0_inv  # row s = u_s^T Q0^{-1}
    if tensors.cut == CutVertex.PREACTIVATION:
        rows = np.einsum("s,si,sj->sij", 1.0 / alpha, unshaped, tensors.a)
        rows = rows.reshape(t_len, -1)
    else:
        rows = np.stack(
            [unshaped[s] @ tensors.j_dense[s] / alpha[s] for s in range(t_len)]
        )
    # summed in place: one (T, P) array fewer alive
    return left @ np.cumsum(rows, axis=0, out=rows)


@dataclass
class OnlineBState:
    """Running state of the online B estimator (one spatial replica each)."""

    a_tilde: float
    h_tilde: np.ndarray
    nu_tilde: np.ndarray
    m_tilde: np.ndarray
    h_tilde_rep: np.ndarray
    mu_tilde: np.ndarray
    n_tilde: np.ndarray


ETA_ZETA_ONES = "ones"
ETA_ZETA_GIR = "gir"


def estimate_B_online(tape: EpisodeTape, noise: EpisodeNoise,
                      beta: np.ndarray, gamma: np.ndarray,
                      eta_zeta: str = ETA_ZETA_ONES):
    """Unbiased per-step estimates of the running B matrix.

    Maintains, alongside the usual sketch coefficients (beta, gamma),

        a~_t  = a~_{t-1}/gamma_t + sigma_t ||a_t|| / beta_t
        h~_t  = eta_t gamma_t J_state h~_{t-1} + zeta_t tau_t beta_t J_cut nu_t
        nu~_t = nu~_{t-1}/eta_t + nu_t/zeta_t
        m~_t  = m~_{t-1} + a~_t (dL_t/dstate . h~_t) nu~_t

    plus a replica n~ driven by the independent spatial stream mu (same
    temporal sigma, tau), and emits the symmetrized cross products
    (m~ n~^T + n~ m~^T)/2, one per step.  The inner coefficients (eta, zeta)
    only reduce variance; "gir" picks them by the same norm-equalizing rule.

    Returns (list of per-step N_z x N_z estimates, final OnlineBState).
    """
    params = tape.params
    n_z = params.preactivation_size
    if noise.dim != n_z:
        raise ShapeError(f"noise dim {noise.dim} != preactivation dim {n_z}")
    beta = np.asarray(beta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    cut = CutVertex.PREACTIVATION

    a_tilde = 0.0
    sketches = {
        "main": [np.zeros(params.state_size), np.zeros(n_z)],  # h~, nu~
        "rep": [np.zeros(params.state_size), np.zeros(n_z)],
    }
    m_tilde = np.zeros(n_z)
    n_tilde = np.zeros(n_z)
    estimates = []
    for t in range(tape.length):
        cache = tape.caches[t]
        g_full = tape.loss_grad_full(t)
        a_tilde = a_tilde / gamma[t] + noise.sigma[t] * float(np.linalg.norm(cache.a)) / beta[t]
        for key, spatial in (("main", noise.nu[t]), ("rep", noise.mu[t])):
            h_tl, v_tl = sketches[key]
            forwarded = gamma[t] * rnn.jvp_state(cache, h_tl)
            immediate = noise.tau[t] * beta[t] * rnn.jvp_cut(cache, cut, spatial)
            if eta_zeta == ETA_ZETA_GIR:
                eta = sqrt_ratio_or_one(np.linalg.norm(v_tl), np.linalg.norm(forwarded))
                zeta = sqrt_ratio_or_one(np.linalg.norm(spatial), np.linalg.norm(immediate))
            elif eta_zeta == ETA_ZETA_ONES:
                eta = zeta = 1.0
            else:
                raise ValueError(f"unknown eta/zeta mode {eta_zeta!r}")
            sketches[key] = [
                eta * forwarded + zeta * immediate,
                v_tl / eta + spatial / zeta,
            ]
        m_tilde = m_tilde + a_tilde * float(g_full @ sketches["main"][0]) * sketches["main"][1]
        n_tilde = n_tilde + a_tilde * float(g_full @ sketches["rep"][0]) * sketches["rep"][1]
        estimates.append(0.5 * (np.outer(m_tilde, n_tilde) + np.outer(n_tilde, m_tilde)))
    state = OnlineBState(
        a_tilde=a_tilde,
        h_tilde=sketches["main"][0],
        nu_tilde=sketches["main"][1],
        m_tilde=m_tilde,
        h_tilde_rep=sketches["rep"][0],
        mu_tilde=sketches["rep"][1],
        n_tilde=n_tilde,
    )
    return estimates, state


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
