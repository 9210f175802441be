"""Ground-truth differentiation over an episode tape.

Two exact engines compute the same total gradient by the two accumulation
orders: reverse accumulation (bptt_gradient) propagates a state adjoint
backwards, forward accumulation (rtrl_jacobians) carries the full
state-to-parameter influence matrix forwards.  BPTT's sweep, cut_adjoints,
also serves the spatial estimator.  suffix_rows gives the causal suffix
sums of the per-step adjoints dL_t/dz_s, the rows that the variance toolkit
consumes, for a whole block of episodes at once; episode_tensors, from the
same reverse sweep, materializes the adjoints themselves, which the
online/offline audit reads.
"""

from dataclasses import dataclass

import numpy as np

from . import rnn
from .errors import ShapeError, SizeGuardError
from .rnn import CutVertex, EpisodeTape

# Cap on T * state_size for the adjoint sweep, whose output holds
# O(T^2 * N_z) floats per episode.
TENSOR_GUARD = 10**5


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
    for t in range(tape.length - 1, -1, -1):
        delta = delta + tape.loss_grad_full(t)
        if t:
            c[t], delta = rnn.vjp_to_cut_and_state(tape.steps[t], cut, delta)
        else:  # nothing reads the adjoint of the state before step 0
            c[0] = rnn.vjp_to_cut(tape.steps[0], cut, delta)
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
    and the gradient is sum_t dL_t/d(state_t) G_t.  One episode per call.
    """
    if tape.length == 0:
        raise ShapeError("empty tape")
    _require_one_episode(tape)
    params = tape.params
    if params.num_params * params.state_size > rnn.DENSE_GUARD:
        raise SizeGuardError("influence matrix too large to materialize")
    influence = np.zeros((params.state_size, params.num_params))
    jacobians = []
    grad = np.zeros(params.num_params)
    eye = np.eye(params.state_size)
    j_state = rnn.dense_state_jacobian(tape.steps)
    for t in range(tape.length):
        influence = j_state[t] @ influence + rnn.vjp_params(tape.steps[t], eye)
        jacobians.append(influence.copy())
        grad += tape.loss_grad_full(t) @ influence
    return jacobians, GradientVector(g=grad, total_loss=tape.total_loss())


@dataclass
class EpisodeTensors:
    """Exact per-episode adjoints at a fixed cut vertex.

    b[t, s] = dL_{t+1}/dz_{s+1} (0-indexed; zero for s > t by causality),
    a[s] the augmented inputs, a_norms their Euclidean norms.  The parameter
    Jacobian of step s is d(z_s)/d(theta) = diag(f_s) (I (x) a_s^T), with
    f_s = d[s], the tape's f'(z_s), at the state cut and 1 at the
    preactivation cut, where d is None.
    """

    cut: CutVertex
    b: np.ndarray  # (T, T, N_z)
    a: np.ndarray  # (T, A)
    a_norms: np.ndarray  # (T,)
    d: np.ndarray | None = None  # (T, N_z) at the state cut

    @property
    def length(self) -> int:
        return self.b.shape[0]

    @property
    def cut_dim(self) -> int:
        return self.b.shape[2]

    def theta_frob_sq(self, s: int) -> float:
        """||d(z_s)/d(theta)||_F^2 = ||f_s||^2 ||a_s||^2."""
        f_sq = self.cut_dim if self.d is None else float(self.d[s] @ self.d[s])
        return f_sq * float(self.a_norms[s] ** 2)

    def total_gradient(self) -> np.ndarray:
        """sum_t sum_{s<=t} b[t,s]^T d(z_s)/d(theta), the sum over s of
        vec((f_s sum_{t>=s} b[t,s]) a_s^T); equals the BPTT gradient."""
        grad = None
        for s in range(self.length):
            coeff = self.b[s:, s].sum(axis=0)
            if self.d is not None:
                coeff = coeff * self.d[s]
            term = np.outer(coeff, self.a[s]).reshape(-1)
            grad = term if grad is None else grad + term
        return grad


def _adjoint_sweep(tape: EpisodeTape, cut: CutVertex, suffix: bool):
    """The reverse sweep behind episode_tensors and suffix_rows.

    Going from s = T-1 down to 0, row t of the (T, [B,] S) adjoint matrix D
    holds, for every t >= s, dL_t/d(state_s), or with suffix the suffix sum
    sum_{t'>=t} dL_t'/d(state_s), which needs only D[s] = D[s+1] +
    dL_s/d(state_s) at step s.  The live rows t >= s are pulled back to the
    cut and, for s > 0, through J_state to state_{s-1} in one product; the
    adjoints of the state before step 0 are not formed, since nothing reads
    them.  The pullback writes the rows' state adjoints over them in place
    and their cut adjoints into one buffer for the sweep.  Yields (s, g),
    g (T - s, [B,] N_z) the cut adjoints of rows s..T-1 at step s, valid
    until the next step overwrites them."""
    t_len = tape.length
    deltas = np.zeros((t_len, *tape.batch_shape, tape.params.state_size))
    cut_rows = np.empty((t_len, *tape.batch_shape, tape.params.cut_size(cut)))
    for s in range(t_len - 1, -1, -1):
        deltas[s] = tape.loss_grad_full(s)
        if suffix and s + 1 < t_len:
            deltas[s] += deltas[s + 1]
        # causality: losses before s have no adjoint here
        if s:
            g, _ = rnn.vjp_to_cut_and_state(tape.steps[s], cut, deltas[s:],
                                            out=(cut_rows[s:], deltas[s:]))
        else:
            g = rnn.vjp_to_cut(tape.steps[0], cut, deltas)
        yield s, g


def _step_terms(tape: EpisodeTape, cut: CutVertex):
    """(a, a_norms, d) of the tape's steps: the augmented inputs (T, [B,] A),
    their norms and, at the state cut, the steps' f'(z) (T, [B,] N_z), the
    row scaling of its parameter Jacobian (None at the preactivation cut)."""
    a = tape.steps.a
    d = tape.steps.d if cut == CutVertex.STATE else None
    return a, np.linalg.norm(a, axis=-1), d


def episode_tensors(tape: EpisodeTape, cut) -> EpisodeTensors:
    """One reverse sweep that carries the adjoints of all losses at once:
    at step s the live rows t >= s give b[t, s] (_adjoint_sweep).  Costs T
    stacked pullbacks and O(T^2 * N_z) memory for b (desk scale only).  One
    episode per call."""
    cut = CutVertex(cut)
    _require_one_episode(tape)
    _require_tensor_guard(tape)
    t_len = tape.length
    b = np.zeros((t_len, t_len, tape.params.cut_size(cut)))
    for s, g in _adjoint_sweep(tape, cut, suffix=False):
        b[s:, s] = g
    a, a_norms, d = _step_terms(tape, cut)
    return EpisodeTensors(cut=cut, b=b, a=a, a_norms=a_norms, d=d)


@dataclass
class SuffixRows:
    """The distinct causal suffix rows of one episode or of a block of B.

    v_qr = sum_{t>=q} b[t, r] at a fixed cut vertex; v_qr = v_rr for q <= r
    by causality, so only the T(T+1)/2 rows with q >= r are kept, in
    np.tril_indices(T) order: row q(q+1)/2 + r holds v_qr ([B,] N_z).
    a_norms and d are those of EpisodeTensors, with the block's batch axis
    after the step axis: the parameter Jacobian of step s is
    diag(f_s) (I (x) a_s^T), f_s = d[s] at the state cut and 1 at the
    preactivation cut, where d is None.
    """

    cut: CutVertex
    rows: np.ndarray  # (T(T+1)/2, [B,] N_z)
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
            self.cut, self.rows[:, j], self.a_norms[:, j],
            None if self.d is None else self.d[:, j])


def suffix_rows(tape: EpisodeTape, cut, out: np.ndarray | None = None) -> SuffixRows:
    """The causal suffix rows of every episode of a (batched) tape from one
    reverse sweep that carries suffix-summed adjoints (_adjoint_sweep): at
    step s its live rows pulled back to the cut are v_qs, q >= s, written
    straight into the packed rows.  Equal to the suffix sums of
    episode_tensors(...).b, to roundoff (the sums are taken in state space
    before the pullback).  out, if given, is the (T(T+1)/2, [B,] N_z) array
    the rows are written into, such as a buffer that successive blocks of
    episodes reuse."""
    cut = CutVertex(cut)
    _require_tensor_guard(tape)
    t_len = tape.length
    shape = (t_len * (t_len + 1) // 2, *tape.batch_shape, tape.params.cut_size(cut))
    if out is not None and out.shape != shape:
        raise ShapeError(f"rows buffer of shape {out.shape} for rows {shape}")
    rows = np.empty(shape) if out is None else out
    for s, g in _adjoint_sweep(tape, cut, suffix=True):
        q = np.arange(s, t_len)
        rows[q * (q + 1) // 2 + s] = g
    _, a_norms, d = _step_terms(tape, cut)
    return SuffixRows(cut=cut, rows=rows, a_norms=a_norms, d=d)
