"""Ground-truth differentiation over an episode tape.

Two exact engines compute the same total gradient by the two accumulation
orders: reverse accumulation (bptt_gradient) propagates a state adjoint
backwards, forward accumulation (rtrl_jacobians) carries the full
state-to-parameter influence matrix forwards.  episode_tensors materializes
the per-step adjoints dL_t/dz_s that the variance toolkit consumes.
"""

from dataclasses import dataclass

import numpy as np

from . import rnn
from .errors import ShapeError, SizeGuardError
from .rnn import CutVertex, EpisodeTape

# Cap on T * state_size for the adjoint sweep, whose output b holds
# O(T^2 * N_z) floats.
TENSOR_GUARD = 10**5


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


def bptt_gradient(tape: EpisodeTape) -> GradientVector:
    """Reverse accumulation: one backward sweep over the tape.

    Maintains delta_t = dL/d(state_t) by
        delta_t = delta_{t+1} J_state(t+1) + dL_t/d(state_t)
    and pulls it back to the preactivations, g_t = delta_t J_cut(t); the
    gradient sum_t vec(g_t a_t^T) is then one matrix product over the steps.
    A batched tape gives one gradient row per episode.
    """
    if tape.length == 0:
        raise ShapeError("empty tape")
    params = tape.params
    batch = tape.batch_shape
    g_z = np.empty((tape.length, *batch, params.preactivation_size))
    delta = np.zeros((*batch, params.state_size))
    for t in range(tape.length - 1, -1, -1):
        delta = delta + tape.loss_grad_full(t)
        g_z[t] = rnn.vjp_to_cut(tape.caches[t], CutVertex.PREACTIVATION, delta)
        delta = rnn.vjp_state(tape.caches[t], delta)
    a = np.stack([c.a for c in tape.caches])
    grad = np.moveaxis(g_z, 0, -1) @ np.moveaxis(a, 0, -2)
    return GradientVector(g=grad.reshape(*batch, -1), total_loss=tape.total_loss())


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
    for t in range(tape.length):
        cache = tape.caches[t]
        j_state = rnn.dense_state_jacobian(cache)
        influence = j_state @ influence + rnn.vjp_params(cache, eye)
        jacobians.append(influence.copy())
        grad += tape.loss_grad_full(t) @ influence
    return jacobians, GradientVector(g=grad, total_loss=tape.total_loss())


@dataclass
class EpisodeTensors:
    """Exact per-episode adjoints at a fixed cut vertex.

    b[t, s] = dL_{t+1}/dz_{s+1} (0-indexed; zero for s > t by causality),
    a[s] the augmented inputs, a_norms their Euclidean norms.  For cuts other
    than the preactivation, j_dense[s] holds d(z_s)/d(theta) densely.
    """

    cut: CutVertex
    b: np.ndarray  # (T, T, N_z)
    a: np.ndarray  # (T, A)
    a_norms: np.ndarray  # (T,)
    j_dense: list | None = None

    @property
    def length(self) -> int:
        return self.b.shape[0]

    @property
    def cut_dim(self) -> int:
        return self.b.shape[2]

    def theta_frob_sq(self, s: int) -> float:
        """||d(z_s)/d(theta)||_F^2 (= N_z ||a_s||^2 at the preactivation cut)."""
        if self.cut == CutVertex.PREACTIVATION:
            return self.cut_dim * float(self.a_norms[s] ** 2)
        return float(np.sum(self.j_dense[s] ** 2))

    def total_gradient(self) -> np.ndarray:
        """sum_t sum_{s<=t} b[t,s]^T d(z_s)/d(theta); equals the BPTT gradient."""
        t_len = self.length
        grad = None
        for s in range(t_len):
            coeff = self.b[s:, s].sum(axis=0)
            if self.cut == CutVertex.PREACTIVATION:
                term = np.outer(coeff, self.a[s]).reshape(-1)
            else:
                term = coeff @ self.j_dense[s]
            grad = term if grad is None else grad + term
        return grad


def episode_tensors(tape: EpisodeTape, cut) -> EpisodeTensors:
    """One reverse sweep that carries the adjoints of all losses at once.

    Going from s = T-1 down to 0, row t of the (T, S) adjoint matrix holds
    dL_t/d(state_s) for every t >= s; at step s row s gains dL_s/d(state_s),
    rows t >= s are pulled back to the cut to give b[t, s], and then through
    one stacked vjp_state to state_{s-1}.  Costs T stacked vjp calls and
    O(T^2 * N_z) memory for b (desk scale only).  One episode per call.
    """
    cut = CutVertex(cut)
    _require_one_episode(tape)
    params = tape.params
    t_len = tape.length
    if t_len * params.state_size > TENSOR_GUARD:
        raise SizeGuardError(
            f"episode_tensors guard exceeded: T*S = {t_len * params.state_size}"
        )
    n_z = params.cut_size(cut)
    b = np.zeros((t_len, t_len, n_z))
    deltas = np.zeros((t_len, params.state_size))  # row t: dL_t/d(state_s)
    for s in range(t_len - 1, -1, -1):
        deltas[s] = tape.loss_grad_full(s)
        live = deltas[s:]  # causality: losses before s have no adjoint here
        b[s:, s] = rnn.vjp_to_cut(tape.caches[s], cut, live)
        deltas[s:] = rnn.vjp_state(tape.caches[s], live)
    a = np.stack([c.a for c in tape.caches])
    tensors = EpisodeTensors(
        cut=cut,
        b=b,
        a=a,
        a_norms=np.linalg.norm(a, axis=1),
    )
    if cut != CutVertex.PREACTIVATION:
        tensors.j_dense = [rnn.dense_theta_jacobian(c, cut) for c in tape.caches]
    return tensors
