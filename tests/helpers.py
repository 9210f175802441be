"""Shared test fixtures: random instances and independent oracles.

The oracles here (central finite differences, dense contractions, brute-force
sums) deliberately avoid the library's fast paths so that agreement is a real
cross-check.
"""

import numpy as np

from uorolab import estimators, rnn
from uorolab.rnn import BernoulliHead, RnnParams, SoftmaxHead, run_episode


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
            cache = tape.caches[s]
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


def uoro_replay(tape, cut, noise, schedule, contribution=estimators.CONTRIBUTION_CURRENT):
    """run_uoro's estimate and realized (gamma, beta) replayed step by step
    with the dense one-step form: uoro_step carries w~ as a P-long vector
    and uoro_contribution adds each step's contribution."""
    params = tape.params
    u = estimators._draws(noise, "u")
    batch = np.broadcast_shapes(tape.batch_shape, u.shape[1:-1])
    state = estimators.RankOneState(np.zeros((*batch, params.state_size)),
                                    np.zeros((*batch, params.num_params)))
    estimate = np.zeros((*batch, params.num_params))
    gammas = np.zeros((tape.length, *batch))
    betas = np.zeros((tape.length, *batch))
    for t, cache in enumerate(tape.caches):
        prev = state
        state, gammas[t], betas[t] = estimators.uoro_step(state, cache, cut, u[t],
                                                          schedule, t)
        g_full = tape.loss_grad_full(t)
        if contribution == estimators.CONTRIBUTION_CURRENT:
            estimate += estimators.uoro_contribution(state, g_full)
        elif contribution == estimators.CONTRIBUTION_STALE_W:
            estimate += estimators.uoro_contribution(
                estimators.RankOneState(state.h_tilde, prev.w_tilde), g_full)
        else:
            carried = estimators.RankOneState(rnn.jvp_state(cache, prev.h_tilde),
                                              prev.w_tilde)
            estimate += (rnn.vjp_params(cache, g_full)
                         + estimators.uoro_contribution(carried, g_full))
    return estimate, gammas, betas
