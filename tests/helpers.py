"""Shared test fixtures: random instances and independent oracles.

The oracles here (central finite differences, dense contractions, brute-force
sums) deliberately avoid the library's fast paths so that agreement is a real
cross-check.
"""

from dataclasses import dataclass

import numpy as np

from uorolab import estimators, rnn, variance
from uorolab.errors import NumericOverflowError, ShapeError
from uorolab.exact import EpisodeTensors
from uorolab.noise import EpisodeNoise
from uorolab.rnn import BernoulliHead, RnnParams, SoftmaxHead, run_episode
from uorolab.tasks import make_queue_episode


def make_instance(
    rng,
    cell_kind=rnn.VANILLA_TANH,
    hidden=4,
    inputs_dim=2,
    length=6,
    n_classes=3,
    weight_scale=0.6,
):
    """A random episode instance with a per-step classification loss."""
    rows = 4 * hidden if cell_kind == rnn.LSTM else hidden
    w = weight_scale * rng.standard_normal((rows, hidden + inputs_dim + 1))
    w /= np.sqrt(hidden + inputs_dim + 1)
    params = RnnParams(w, cell_kind, hidden, inputs_dim)
    inputs = rng.standard_normal((length, inputs_dim))
    targets = [int(rng.integers(n_classes)) for _ in range(length)]
    head = SoftmaxHead(0.8 * rng.standard_normal((n_classes, hidden + 1)))
    return params, inputs, targets, head


class ConstantHead:
    """A custom head whose loss is one scalar whatever the rows."""

    def loss_and_grad(self, h, target):
        return 1.7, np.zeros_like(h)


def forbid_steps(monkeypatch):
    """Make any transition, sketch step or backward sweep step fail the
    test, so that a check must raise before the first one."""
    def fail(*args, **kwargs):
        raise AssertionError("a step ran before the inputs were checked")

    monkeypatch.setattr(rnn, "step", fail)
    monkeypatch.setattr(rnn, "sweep", fail)
    monkeypatch.setattr(estimators, "preuoro_step", fail)
    # run_uoro advances h~ itself through these products
    monkeypatch.setattr(rnn, "jvp_state", fail)
    monkeypatch.setattr(rnn, "jvp_cut", fail)
    # and the backward sweep (exact.cut_adjoints) through these
    monkeypatch.setattr(rnn, "vjp_to_cut", fail)
    monkeypatch.setattr(rnn, "vjp_to_cut_and_state", fail)


def reinforce_by_definition(params, inputs, targets, head, sigma, u, Q0=None,
                            baseline=None):
    """The score-function estimate of one episode by its definition, one
    unbatched step at a time: the dense score w_bar_t = w_bar_{t-1} +
    (1/sigma) u_t^T Q0^{-1} dh_t/dtheta_t and sum_t (L_t - b_t) w_bar_t.
    baseline is a per-step array, or None for the noise-free losses."""
    if baseline is None:
        baseline = run_episode(params, inputs, targets, head).losses
    q0_inv = np.eye(params.hidden_size) if Q0 is None else np.linalg.inv(Q0)
    q0 = np.eye(params.hidden_size) if Q0 is None else Q0
    state = np.zeros(params.state_size)
    w_bar = np.zeros(params.num_params)
    estimate = np.zeros(params.num_params)
    for t in range(len(inputs)):
        state, cache = rnn.step(params, state, inputs[t])
        score = rnn.embed_state_grad(params, q0_inv.T @ u[t])
        w_bar = w_bar + rnn.vjp_params(cache, score) / sigma
        state = state.copy()
        state[: params.hidden_size] += sigma * (q0 @ u[t])
        loss, _ = head.loss_and_grad(state[: params.hidden_size], targets[t])
        estimate += (loss - baseline[t]) * w_bar
    return estimate


def make_queue_instance(rng, hidden=4, length=8, delay=2):
    """A small queue-style instance with a one-bit Bernoulli head."""
    w = 0.5 * rng.standard_normal((hidden, hidden + 2)) / np.sqrt(hidden + 2)
    params = RnnParams(w, rnn.VANILLA_TANH, hidden, 1)
    bits = rng.integers(0, 2, size=length).astype(float)
    inputs = bits[:, None]
    targets = [None if t < delay else np.array([bits[t - delay]]) for t in range(length)]
    head = BernoulliHead(rng.standard_normal((1, hidden + 1)))
    return params, inputs, targets, head


def balanced_alpha(c, sweeps=10000):
    """Minimizer of sum_{q,r} (alpha_r^2 / alpha_q^2) C[q, r] by Osborne's
    cyclic balancing: each coordinate in turn is set to equalize its row and
    column sums of D^{-1} C D (D = diag(alpha^2)), until no entry moves by
    more than 1e-14 in log scale.  Returns alpha with min entry 1."""
    c = np.asarray(c, dtype=np.float64) / np.max(c)
    off = c - np.diag(np.diag(c))
    d = np.ones(c.shape[0])
    for _ in range(sweeps):
        change = 0.0
        for q in range(d.size):
            new = np.sqrt((off[q] @ d) / (off[:, q] @ (1.0 / d)))
            change = max(change, abs(np.log(new / d[q])))
            d[q] = new
        if change < 1e-14:
            break
    return np.sqrt(d / d.min())


def newton_oracle(C):
    """variance.solve_alpha_newton as it was before it kept the matrix its
    line search accepted: it rescales C again at the head of every iteration
    and once more after the loop.  It calls variance._rescaled through the
    module, so a test can count its calls: one per iteration, one per
    line-search trial, plus one."""
    C = np.asarray(C, dtype=np.float64)
    scale = float(C.max())
    c = C / scale
    t_len = c.shape[0]
    zeta = np.zeros(t_len)
    iterations = 0
    resolved = False
    for iterations in range(1, 201):
        cbar = variance._rescaled(c, zeta)
        grad = cbar.sum(axis=0) - cbar.sum(axis=1)
        if float(np.max(np.abs(grad))) <= variance.NEWTON_TOL:
            break
        s = cbar + cbar.T
        hess = np.diag(s.sum(axis=1)) - s
        direction = np.linalg.solve(hess + 1e-8 * np.eye(t_len), grad)
        obj = variance._alpha_objective(cbar)
        if float(grad @ direction) <= t_len * variance.EPS * obj:
            zeta = zeta - direction
            resolved = True
            break
        step = 1.0
        for _ in range(50):
            candidate = zeta - step * direction
            candidate -= candidate.min()
            if variance._alpha_objective(variance._rescaled(c, candidate)) <= obj:
                zeta = candidate
                break
            step *= 0.5
        else:
            break
    cbar = variance._rescaled(c, zeta)
    residual = float(np.max(np.abs(cbar.sum(axis=0) - cbar.sum(axis=1))))
    zeta = zeta - zeta.min()
    return variance.AlphaSolution(
        zeta=zeta,
        alpha=np.exp(zeta / 2.0),
        residual=residual,
        objective=variance._alpha_objective(cbar) * scale,
        iterations=iterations,
        converged=residual <= variance.NEWTON_TOL or resolved,
    )


def sqrt_ratio_or_one_oracle(numerator, denominator):
    """linalg.sqrt_ratio_or_one by explicit masks: sqrt(numerator /
    denominator), or 1 where either is nonpositive or not finite; a float
    for scalar arguments."""
    num = np.asarray(numerator, dtype=np.float64)
    den = np.asarray(denominator, dtype=np.float64)
    good = (num > 0.0) & (den > 0.0) & np.isfinite(num) & np.isfinite(den)
    out = np.where(good, np.sqrt(np.where(good, num, 1.0) / np.where(good, den, 1.0)), 1.0)
    return float(out) if out.ndim == 0 else out


def row_rel(value, reference):
    """Largest relative difference over the rows (..., n)."""
    diff = np.linalg.norm(np.atleast_2d(value - reference), axis=-1)
    return float(np.max(diff / np.maximum(np.linalg.norm(np.atleast_2d(reference),
                                                          axis=-1), 1e-300)))


def episode_tensors_per_loss(tape, cut):
    """b[t, s] = dL_t/dz_s by one backward sweep per loss index t, each
    pulling a single adjoint vector back from step t to step 0 (O(T^2)
    vector Jacobian products)."""
    params = tape.params
    t_len = tape.length
    cut = rnn.CutVertex(cut)
    b = np.zeros((t_len, t_len, params.cut_size(cut)))
    for t in range(t_len):
        delta = tape.loss_grad_full(t)
        for s in range(t, -1, -1):
            cache = tape.steps[s]
            b[t, s] = rnn.vjp_to_cut(cache, cut, delta)
            delta = rnn.vjp_state(cache, delta)
    return b


def episode_loss(params, inputs, targets, head, initial_state=None):
    tape = run_episode(params, inputs, targets, head, initial_state)
    return tape.total_loss()


def finite_difference_gradient(params, inputs, targets, head, eps=1e-5,
                               initial_state=None):
    """Central finite differences of the total episode loss w.r.t. theta."""
    theta = params.theta()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = eps
        up = episode_loss(params.with_theta(theta + bump), inputs, targets, head,
                          initial_state)
        down = episode_loss(params.with_theta(theta - bump), inputs, targets, head,
                            initial_state)
        grad[i] = (up - down) / (2 * eps)
    return grad


def finite_difference_loss_at_cut(tape, cut, t_loss, s_cut, direction, head,
                                  eps=1e-6):
    """d L_{t_loss} / d z_{s_cut} . direction by re-running a vanilla-cell
    episode with a perturbation injected additively at the cut value."""
    params = tape.params
    if params.cell_kind not in (rnn.VANILLA_TANH, rnn.VANILLA_LINEAR):
        raise NotImplementedError("cut-injection oracle covers vanilla cells")

    def perturbed_loss(scale):
        state = tape.initial_state.copy()
        loss_t = None
        for t in range(tape.length):
            a = np.concatenate([state, tape.inputs[t], [1.0]])
            z = params.weights @ a
            if t == s_cut and cut == rnn.CutVertex.PREACTIVATION:
                z = z + scale * direction
            h = np.tanh(z) if params.cell_kind == rnn.VANILLA_TANH else z
            if t == s_cut and cut == rnn.CutVertex.STATE:
                h = h + scale * direction
            state = h
            if t == t_loss:
                loss_t, _ = rnn.loss_grad(h, tape.targets[t], head)
        return loss_t

    return (perturbed_loss(eps) - perturbed_loss(-eps)) / (2 * eps)


@dataclass
class RankOneState:
    """The dense rank-one sketch (h~, w~), w~ a P-long vector per row."""

    h_tilde: np.ndarray  # ([B,] S)
    w_tilde: np.ndarray  # ([B,] P)


def uoro_step(state: RankOneState, cache, cut, u: np.ndarray,
              schedule: estimators.ScalingSchedule, t: int):
    """Advance the dense rank-one sketch one step, the oracle of run_uoro's
    factored recursion; u and the state may carry a batch axis.

    In "gir" mode the coefficients equalize the cross-term norms
    (estimators._gir_coefficients):

        gamma_t^2 = ||w~_{t-1}|| / ||J_state h~_{t-1}||
        beta_t^2  = ||u^T Q0^{-1} J_theta|| / ||J_cut Q0 u||

    and a new sketch within CANCEL_EPS_MULTIPLE eps of its two terms' summed
    norms is set to zero.
    Returns (new state, gamma_t, beta_t).  Raises NumericOverflowError naming
    the step if the propagated quantities leave the float range; under GIR
    that includes their norms, which the next coefficients are taken from.
    """
    col, norms = estimators._col, estimators._norms
    forwarded = rnn.jvp_state(cache, state.h_tilde)
    spatial_in = rnn.jvp_cut(cache, cut, schedule.shape_spatial(u))
    spatial_out = rnn.vjp_cut(cache, cut, schedule.unshape_spatial(u))
    greedy = schedule.mode == estimators.GIR
    if greedy:
        w_norm, fwd_norm = norms(state.w_tilde), norms(forwarded)
        out_norm, in_norm = norms(spatial_out), norms(spatial_in)
        gamma, beta = estimators._gir_coefficients(w_norm, fwd_norm, out_norm,
                                                   in_norm)
    else:
        gamma, beta = schedule.fixed_coefficients(t)
    with np.errstate(over="ignore", invalid="ignore"):
        h_tilde = col(gamma) * forwarded + col(beta) * spatial_in
        w_tilde = state.w_tilde / col(gamma) + spatial_out / col(beta)
        if greedy:
            h_norm, w_new_norm = norms(h_tilde), norms(w_tilde)
            h_tilde = estimators._zero_cancelled(h_tilde, h_norm,
                                                 gamma * fwd_norm + beta * in_norm)
            w_tilde = estimators._zero_cancelled(w_tilde, w_new_norm,
                                                 w_norm / gamma + out_norm / beta)
    checked = (h_norm, w_new_norm) if greedy else (h_tilde, w_tilde)
    if not all(np.isfinite(x).all() for x in checked):
        raise NumericOverflowError(f"rank-one sketch overflowed at step {t}")
    return RankOneState(h_tilde, w_tilde), gamma, beta


def uoro_contribution(state: RankOneState, loss_grad_full: np.ndarray) -> np.ndarray:
    """Per-step gradient contribution (dL_t/d state . h~_t) w~_t."""
    return (estimators._col(np.sum(loss_grad_full * state.h_tilde, axis=-1))
            * state.w_tilde)


def preuoro_contribution(state: estimators.PreUoroState,
                         loss_grad_full: np.ndarray) -> np.ndarray:
    """vec of the outer product (H~_t^T dL/dstate) w~_t^T, row-major."""
    return rnn.outer_rows(estimators._col(state.scale)
                          * estimators._carried(state.H_tilde, loss_grad_full),
                          state.w_tilde)


def uoro_replay(tape, cut, noise, schedule, contribution=estimators.CONTRIBUTION_CURRENT):
    """run_uoro's estimate and realized (gamma, beta) replayed step by step
    with the dense one-step form: uoro_step carries w~ as a P-long vector
    and uoro_contribution adds each step's contribution."""
    params = tape.params
    u = noise.u
    batch = np.broadcast_shapes(tape.batch_shape, u.shape[1:-1])
    state = RankOneState(np.zeros((*batch, params.state_size)),
                         np.zeros((*batch, params.num_params)))
    estimate = np.zeros((*batch, params.num_params))
    gammas = np.zeros((tape.length, *batch))
    betas = np.zeros((tape.length, *batch))
    for t in range(tape.length):
        cache = tape.steps[t]
        prev = state
        state, gammas[t], betas[t] = uoro_step(state, cache, cut, u[t], schedule, t)
        g_full = tape.loss_grad_full(t)
        if contribution == estimators.CONTRIBUTION_CURRENT:
            estimate += uoro_contribution(state, g_full)
        elif contribution == estimators.CONTRIBUTION_STALE_W:
            estimate += uoro_contribution(
                RankOneState(state.h_tilde, prev.w_tilde), g_full)
        else:
            carried = RankOneState(rnn.jvp_state(cache, prev.h_tilde), prev.w_tilde)
            estimate += (rnn.vjp_params(cache, g_full)
                         + uoro_contribution(carried, g_full))
    return estimate, gammas, betas


def preuoro_replay(tape, noise, schedule, initial=None):
    """run_preuoro's estimate and realized (gamma, beta) replayed step by step
    with the dense one-step form: the immediate term is J_cut applied to the
    identity basis, every norm is taken over the whole (N_z, [B,] S) rows,
    the cancellation rule zeroes a sketch by its dense norm (never where the
    terms' norms overflowed), a non-finite sketch norm under GIR raises, and
    preuoro_contribution adds each step's contribution.  The sketch starts
    from zero, or from the (H~, w~) pair initial."""
    params = tape.params
    n_z = params.preactivation_size
    tau = noise.tau
    batch = np.broadcast_shapes(tape.batch_shape, tau.shape[1:])
    rows = np.zeros((n_z, *batch, params.state_size))
    w_tilde = np.zeros((*batch, params.augmented_size))
    if initial is not None:
        rows = rows + np.moveaxis(initial[0], -1, 0)
        w_tilde = w_tilde + initial[1]
    estimate = np.zeros((*batch, params.num_params))
    gammas = np.zeros((tape.length, *batch))
    betas = np.zeros((tape.length, *batch))
    cancel_rtol = estimators.CANCEL_EPS_MULTIPLE * np.finfo(np.float64).eps

    def frobenius(x):
        return np.sqrt(np.einsum("k...i,k...i->...", x, x))

    def zero_cancelled(x, norm, scale):
        cancelled = (norm <= cancel_rtol * scale) & np.isfinite(scale)
        return np.where(np.asarray(cancelled)[..., None], 0.0, x)

    for t in range(tape.length):
        cache = tape.steps[t]
        forwarded = rnn.jvp_state(cache, rows)
        immediate = rnn.jvp_cut(cache, rnn.CutVertex.PREACTIVATION,
                                rnn.basis_rows(n_z, len(batch)))
        greedy = schedule.mode == estimators.GIR
        if greedy:
            w_norm = np.linalg.norm(w_tilde, axis=-1)
            a_norm = np.linalg.norm(cache.a, axis=-1)
            fwd_norm, imm_norm = frobenius(forwarded), frobenius(immediate)
            gamma, beta = estimators._gir_coefficients(w_norm, fwd_norm, a_norm,
                                                       imm_norm)
        else:
            gamma, beta = schedule.fixed_coefficients(t)
        gamma_col = np.asarray(gamma)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            rows = (gamma_col * forwarded
                    + np.asarray(beta * tau[t])[..., None] * immediate)
            w_tilde = (w_tilde / gamma_col
                       + np.asarray(tau[t] / beta)[..., None] * cache.a)
            checked = (rows, w_tilde)
            if greedy:
                size = np.abs(tau[t])
                checked = (frobenius(rows), np.linalg.norm(w_tilde, axis=-1))
                rows = zero_cancelled(rows, checked[0],
                                      gamma * fwd_norm + beta * size * imm_norm)
                w_tilde = zero_cancelled(w_tilde, checked[1],
                                         w_norm / gamma + size / beta * a_norm)
        if not all(np.isfinite(x).all() for x in checked):
            raise NumericOverflowError(f"projection-free sketch overflowed at step {t}")
        gammas[t], betas[t] = gamma, beta
        state = estimators.PreUoroState(np.moveaxis(rows, 0, -1), w_tilde)
        estimate += preuoro_contribution(state, tape.loss_grad_full(t))
    return estimate, gammas, betas


def online_B_replay(tape, noise, schedule, eta_zeta="ones"):
    """estimate_B_online for one episode and one EpisodeNoise, written out
    step by step with scalar coefficients and one sketch (h~, nu~) per
    spatial stream, nu for m~ and mu for n~.  Returns the (T, N_z, N_z)
    estimates and the final a~."""
    cut = rnn.CutVertex.PREACTIVATION
    a_tilde = 0.0
    sketches = {stream: (np.zeros(tape.params.state_size), np.zeros(noise.dim))
                for stream in ("nu", "mu")}
    sums = {stream: np.zeros(noise.dim) for stream in sketches}
    estimates = []
    for t in range(tape.length):
        cache = tape.steps[t]
        gamma, beta = schedule.fixed_coefficients(t)
        a_tilde = a_tilde / gamma + noise.sigma[t] * np.linalg.norm(cache.a) / beta
        for stream, (h_tilde, v_tilde) in sketches.items():
            spatial = getattr(noise, stream)[t]
            forwarded = gamma * rnn.jvp_state(cache, h_tilde)
            immediate = noise.tau[t] * beta * rnn.jvp_cut(cache, cut, spatial)
            eta = zeta = 1.0
            if eta_zeta == "gir":
                eta = sqrt_ratio_or_one_oracle(np.linalg.norm(v_tilde),
                                               np.linalg.norm(forwarded))
                zeta = sqrt_ratio_or_one_oracle(np.linalg.norm(spatial),
                                                np.linalg.norm(immediate))
            h_tilde = eta * forwarded + zeta * immediate
            v_tilde = v_tilde / eta + spatial / zeta
            sketches[stream] = h_tilde, v_tilde
            score = float(tape.loss_grad_full(t) @ h_tilde)
            sums[stream] = sums[stream] + a_tilde * score * v_tilde
        m, n = sums["nu"], sums["mu"]
        estimates.append(0.5 * (np.outer(m, n) + np.outer(n, m)))
    return np.array(estimates), a_tilde


def spatial_by_definition(tape, cut, noise):
    """run_spatial's estimate by forward accumulation of a dense S x P
    influence matrix, one row of the batch at a time:
        H_t = J_state(t) H_{t-1} + (J_cut nu_t)(nu_t^T J_theta(t)),
    summed as sum_t g_t^T H_t.  noise is one EpisodeNoise or a NoiseBlock,
    as for run_spatial; returns the estimate ([B,] P)."""
    params = tape.params
    single = isinstance(noise, EpisodeNoise)
    batch = np.broadcast_shapes(tape.batch_shape, () if single else (len(noise),))
    nu = noise.nu[: tape.length]
    nu = nu[:, None] if single else nu  # (T, 1 or B, N_z)
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
    return estimate.reshape(*batch, -1)


def suffix_sums(b):
    """suffix[q, r] = sum_{t >= q} b[t, r] over all T^2 pairs (q, r), by a
    cumulative sum over the flipped step axis."""
    return np.flip(np.cumsum(np.flip(b, axis=0), axis=0), axis=0)


def dense_theta_jacobians(steps, cut):
    """J_q = d(z_q)/d(theta) of each of a tape's steps (T, N_z, P), formed
    densely by rnn.dense_theta_jacobian from the steps, not from any tensors
    built over them."""
    return np.array([rnn.dense_theta_jacobian(steps[q], cut)
                     for q in range(len(steps.a))])


def theta_weights_oracle(tensors, steps, Q0=None):
    """w_q = ||Q0^{-1} J_q||_F^2 with J_q formed densely from the tape's steps
    at the tensors' cut."""
    q0_inv = np.eye(tensors.cut_dim) if Q0 is None else np.linalg.inv(Q0)
    return np.array([np.sum((q0_inv @ j) ** 2)
                     for j in dense_theta_jacobians(steps, tensors.cut)])


def compute_C_oracle(tensors, steps, Q0=None):
    """variance.compute_C over all T^2 suffix rows:
    C[q, r] = ||v_qr^T Q0||^2 ||Q0^{-1} J_q||_F^2, v_qr = sum_{t>=q} b[t, r],
    with J_q formed densely from the tape's steps."""
    shaped = suffix_sums(tensors.b)
    if Q0 is not None:
        shaped = shaped @ Q0
    return np.sum(shaped**2, axis=2) * theta_weights_oracle(tensors, steps, Q0)[:, None]


def predicted_VQ_oracle(tensors, steps, alpha, Q0=None):
    """variance.predicted_VQ as the double time sum over the tensors' b,

        sum_{s,t} (sum_r alpha_r^2 <b[t, r]^T Q0, b[s, r]^T Q0>)
                  (sum_{q<=min(s,t)} ||Q0^{-1} J_q||_F^2 / alpha_q^2),

    at either cut, with J_q formed densely from the tape's steps."""
    alpha = np.asarray(alpha, dtype=np.float64)
    shaped = tensors.b if Q0 is None else tensors.b @ Q0
    left = np.einsum("r,tri,sri->st", alpha**2, shaped, shaped)
    cum = np.cumsum(theta_weights_oracle(tensors, steps, Q0) / alpha**2)
    mins = np.minimum.outer(np.arange(tensors.length), np.arange(tensors.length))
    return float(np.sum(left * cum[mins]))


def qr_B_oracle(tensors, alpha, k=None):
    """The "qr" B truncated to the loss steps q < k (all of them by default)
    over all k T suffix rows: sum_{q,r} (alpha_r^2 / alpha_q^2) ||a_q||^2
    v_qr v_qr^T, symmetrized."""
    b = tensors.b if k is None else tensors.b[:k]
    k = b.shape[0]
    a_sq = tensors.a_norms**2
    v = suffix_sums(b).reshape(-1, b.shape[2])
    w = np.outer(a_sq[:k] / alpha[:k] ** 2, alpha**2).reshape(-1)
    root = np.sqrt(w)[:, None] * v
    out = root.T @ root
    return 0.5 * (out + out.T)


def minst_B(tensors, alpha):
    """B in its "minst" form, the oracle for variance.compute_B's "qr" form:

        sum_{s,t} (sum_{q<=min(s,t)} alpha_q^{-2} ||a_q||^2)
                  (sum_r alpha_r^2 b[s,r] b[t,r]^T),

    summed over the loss steps s, t < len(b) of an EpisodeTensors' causal b
    and symmetrized.  It reads b itself, so the suffix rows of a SuffixRows
    are refused."""
    if not isinstance(tensors, EpisodeTensors):
        raise ValueError(f"the minst form of B needs the b of an EpisodeTensors, "
                         f"not a {type(tensors).__name__}")
    b = tensors.b
    alpha = np.asarray(alpha, dtype=np.float64)
    k = b.shape[0]
    cum = np.cumsum(tensors.a_norms**2 / alpha**2)
    gram = np.einsum("r,sri,trj->stij", alpha**2, b, b)
    mins = np.minimum.outer(np.arange(k), np.arange(k))
    out = np.einsum("st,stij->ij", cum[mins], gram)
    return 0.5 * (out + out.T)


def greedy_coefficients(tensors, steps, Q0=None):
    """Per-step (beta_s, gamma_s) from the incremental equilibration problem
    that treats future adjoints as zero:

        beta_s^4  = ||Q0^{-1} J_s||_F^2 / ||b_s^{(s)T} Q0||^2
        gamma_s^4 = sum_{q<s} (overall_q)^{-2} ||Q0^{-1} J_q||_F^2
                    / sum_{r<s} (overall_r)^2 ||b_r^{(s)T} Q0||^2

    where overall_q is the running product beta_q gamma_{q+1} ... gamma_{s-1}.
    Degenerate sums fall back to 1 (in particular gamma_1).
    """
    t_len = tensors.length
    weights = theta_weights_oracle(tensors, steps, Q0)
    beta = np.ones(t_len)
    gamma = np.ones(t_len)
    overall = np.ones(t_len)  # running beta_q gamma_{q+1}..gamma_{s-1}
    for s in range(t_len):
        if s > 0:
            b_rows = tensors.b[s, :s]  # b_r^{(s)} for r < s
            shaped = b_rows if Q0 is None else b_rows @ Q0
            num = float(np.sum(weights[:s] / overall[:s] ** 2))
            den = float(np.sum(overall[:s] ** 2 * np.sum(shaped**2, axis=1)))
            if num > 0 and den > 0 and np.isfinite(num) and np.isfinite(den):
                gamma[s] = (num / den) ** 0.25
            overall[:s] *= gamma[s]
        own = tensors.b[s, s] if Q0 is None else tensors.b[s, s] @ Q0
        den = float(own @ own)
        if weights[s] > 0 and den > 0:
            beta[s] = (weights[s] / den) ** 0.25
        overall[s] = beta[s]
    return beta, gamma


def make_queue_batch(spec, seed, batch):
    """The first batch queue episodes of a seed, one make_queue_episode call
    each."""
    return [make_queue_episode(spec, seed, i) for i in range(batch)]


def median_filter(values, window=9):
    """Running median over an odd window (9 by default), as for smoothing a
    training curve; edges use the available samples."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    half = window // 2
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - half)
        hi = min(values.size, i + half + 1)
        out[i] = np.median(values[lo:hi])
    return out


def frob_inner(a, b):
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
