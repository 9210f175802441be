"""Ground-truth differentiation over an episode tape.

Two exact engines compute the same total gradient by the two accumulation
orders: reverse accumulation (bptt_gradient) propagates a state adjoint
backwards, forward accumulation (rtrl_jacobians) carries the full
state-to-parameter influence matrix forwards as P rows of S, advanced by
rnn.jvp_state, the product the sketches take.  No engine forms a dense local
Jacobian: the dense oracles, RTRL's dense recursion among them, are in
tests/helpers.py.  BPTT's sweep, cut_adjoints, also serves the spatial
estimator.  suffix_rows gives the causal suffix sums of the per-step
adjoints dL_t/dz_s for a whole block of episodes at once: the one adjoint
form that the variance toolkit and the online/offline audit read
(episode_tensors takes them for one episode).  The full (T, T, N_z) tensor
of the adjoints themselves is formed by no engine here.
"""

from dataclasses import dataclass

import numpy as np

from . import rnn
from .errors import ShapeError, SizeGuardError
from .rnn import CutVertex, EpisodeTape

# Cap on T * state_size for the suffix-row sweep, whose output holds
# O(T^2 * N_z) floats per episode.
TENSOR_GUARD = 10**5

# Cap on P * state_size for rtrl_jacobians' T influence matrices (S, P).
DENSE_GUARD = 10**7


def _require_tensor_guard(tape: EpisodeTape):
    t_s = tape.length * tape.params.state_size
    if t_s > TENSOR_GUARD:
        raise SizeGuardError(f"adjoint sweep guard exceeded: T*S = {t_s}")


def _require_one_episode(tape: EpisodeTape):
    if tape.batch_shape:
        raise ShapeError("this engine takes one episode: slice a batched "
                         "tape with tape.episode(i)")


@dataclass
class GradientVector:
    """Total gradient dL/dtheta plus the total loss it differentiates; one
    row (and one loss) per episode of a batched tape."""

    g: np.ndarray
    total_loss: float | np.ndarray


def cut_adjoints(tape: EpisodeTape, cut) -> np.ndarray:
    """The adjoints c_t = dL/dz_t of the total loss at each step's cut value,
    (T, [B,] N_z), from one backward sweep over the tape.

    Maintains delta_t = dL/d(state_t) by
        delta_t = delta_{t+1} J_state(t+1) + dL_t/d(state_t)
    and pulls it back to the cut, c_t = delta_t J_cut(t).  A batched tape
    gives one row per episode.
    """
    if tape.length == 0:
        raise ShapeError("empty tape")
    c = np.empty((tape.length, *tape.batch_shape, tape.params.cut_size(cut)))
    delta = np.zeros((*tape.batch_shape, tape.params.state_size))
    steps = tape.step_caches
    for t in range(tape.length - 1, -1, -1):
        delta = delta + tape.loss_grad_full(t)
        if t:
            c[t], delta = rnn.vjp_to_cut_and_state(steps[t], cut, delta)
        else:  # nothing reads the adjoint of the state before step 0
            c[0] = rnn.vjp_to_cut(steps[0], cut, delta)
    return c


def bptt_gradient(tape: EpisodeTape) -> GradientVector:
    """Reverse accumulation: the preactivation adjoints g_t of cut_adjoints'
    sweep, and the gradient sum_t vec(g_t a_t^T) as one matrix product over
    the steps.  A batched tape gives one gradient row per episode.
    """
    g_z = cut_adjoints(tape, CutVertex.PREACTIVATION)
    grad = np.moveaxis(g_z, 0, -1) @ np.moveaxis(tape.steps.a, 0, -2)
    return GradientVector(grad.reshape(*tape.batch_shape, -1), tape.total_loss())


def rtrl_jacobians(tape: EpisodeTape):
    """Forward accumulation; returns the per-step influence matrices and the
    total gradient they imply.

    The influence matrix G_t = d(state_t)/d(theta) obeys
        G_t = J_state(t) G_{t-1} + d(state_t)/d(theta_t)
    and the gradient is sum_t dL_t/d(state_t) G_t.  G_t is carried as its P
    columns, rows (P, S) that one stacked rnn.jvp_state advances (the
    product preUORO's sketch takes; none at step 0, as G_{-1} = 0), and
    returned as their (S, P) transpose.  One episode per call.
    """
    if tape.length == 0:
        raise ShapeError("empty tape")
    _require_one_episode(tape)
    params = tape.params
    if params.num_params * params.state_size > DENSE_GUARD:
        raise SizeGuardError("influence matrix too large to materialize")
    eye = np.eye(params.state_size)
    jacobians = []
    grad = np.zeros(params.num_params)
    for t, cache in enumerate(tape.step_caches):
        immediate = rnn.vjp_params(cache, eye).T  # (P, S)
        rows = rnn.jvp_state(cache, rows) + immediate if t else immediate
        jacobians.append(rows.T)
        grad += rows @ tape.loss_grad_full(t)
    return jacobians, GradientVector(g=grad, total_loss=tape.total_loss())


@dataclass
class SuffixRows:
    """The distinct causal suffix rows of one episode or of a block of B.

    With b[t, s] = dL_t/dz_s (zero for s > t by causality), v_qr =
    sum_{t>=q} b[t, r] at a fixed cut vertex; v_qr = v_rr for q <= r, so
    only the T(T+1)/2 rows with q >= r are kept, in np.tril_indices(T)
    order: row q(q+1)/2 + r holds v_qr ([B,] N_z).  a is the tape's steps.a,
    uncopied, a_norms its row norms and d, at the state cut, the tape's
    f'(z), each with the block's batch axis after the step axis: the
    parameter Jacobian of step s is diag(f_s) (I (x) a_s^T), f_s = d[s] at
    the state cut and 1 at the preactivation cut, where d is None.
    """

    cut: CutVertex
    rows: np.ndarray  # (T(T+1)/2, [B,] N_z)
    a: np.ndarray  # (T, [B,] A)
    a_norms: np.ndarray  # (T, [B])
    d: np.ndarray | None = None  # (T, [B,] N_z) at the state cut

    @property
    def length(self) -> int:
        return self.a_norms.shape[0]

    @property
    def cut_dim(self) -> int:
        return self.rows.shape[-1]

    def episode(self, j: int) -> "SuffixRows":
        """The rows of episode j of a block, as views."""
        if self.rows.ndim != 3:
            raise ShapeError("these are the rows of one episode, not a block")
        return SuffixRows(
            self.cut, self.rows[:, j], self.a[:, j], self.a_norms[:, j],
            None if self.d is None else self.d[:, j])


def suffix_rows(tape: EpisodeTape, cut, out: np.ndarray | None = None) -> SuffixRows:
    """The causal suffix rows of every episode of a (batched) tape from one
    reverse sweep that carries suffix-summed adjoints.

    Going from s = T-1 down to 0, row t of the (T, [B,] S) adjoint matrix D
    holds, for every t >= s, the suffix sum sum_{t'>=t} dL_t'/d(state_s),
    which needs only D[s] = D[s+1] + dL_s/d(state_s) at step s.  The live
    rows t >= s are pulled back to the cut, giving v_ts, and, for s > 0,
    through J_state to state_{s-1} in one product; the adjoints of the state
    before step 0 are not formed, since nothing reads them.  The pullback
    writes the rows' state adjoints over them in place and their cut
    adjoints into one buffer, from which they go into the packed rows.  The
    sums are taken in state space before the pullback, so the rows equal the
    suffix sums of b to roundoff, not bit for bit.  out, if given, is the
    (T(T+1)/2, [B,] N_z) array the rows are written into, such as a buffer
    that successive blocks of episodes reuse."""
    cut = CutVertex(cut)
    _require_tensor_guard(tape)
    t_len = tape.length
    shape = (t_len * (t_len + 1) // 2, *tape.batch_shape, tape.params.cut_size(cut))
    if out is not None and out.shape != shape:
        raise ShapeError(f"rows buffer of shape {out.shape} for rows {shape}")
    rows = np.empty(shape) if out is None else out
    deltas = np.zeros((t_len, *tape.batch_shape, tape.params.state_size))
    cut_rows = np.empty((t_len, *shape[1:]))
    steps = tape.step_caches
    for s in range(t_len - 1, -1, -1):
        deltas[s] = tape.loss_grad_full(s)
        if s + 1 < t_len:
            deltas[s] += deltas[s + 1]
        # causality: losses before s have no adjoint here
        if s:
            g, _ = rnn.vjp_to_cut_and_state(steps[s], cut, deltas[s:],
                                            out=(cut_rows[s:], deltas[s:]))
        else:
            g = rnn.vjp_to_cut(steps[0], cut, deltas)
        q = np.arange(s, t_len)
        rows[q * (q + 1) // 2 + s] = g
    a = tape.steps.a
    return SuffixRows(cut=cut, rows=rows, a=a, a_norms=np.linalg.norm(a, axis=-1),
                      d=tape.steps.d if cut == CutVertex.STATE else None)


def episode_tensors(tape: EpisodeTape, cut) -> SuffixRows:
    """The suffix rows of one episode (suffix_rows), the input of
    variance.offline_total_estimate's audit.  One episode per call."""
    _require_one_episode(tape)
    return suffix_rows(tape, cut)
