"""Recurrent cells and their local Jacobian machinery.

The transition is h_t = f(W a_t) with the augmented input
a_t = (h_{t-1}, x_t, 1).  Two cells are provided: a vanilla tanh cell and an
LSTM whose four gate blocks are stacked row-wise in W, plus a linear variant
of the vanilla cell used by tests.  For the LSTM the propagated recurrent
state is the pair (h, c), so "state vectors" below have dimension
S = H (vanilla) or S = 2H (lstm) with h stored first.

Each step records a cache from which three local Jacobians can be contracted
without re-running the step:

    J_state = d(new state)/d(previous state)          (S x S)
    J_cut   = d(new state)/d(cut value z)             (S x N_z)
    J_theta = d(cut value z)/d(parameters)            (N_z x P)

where the cut vertex z is either the new hidden output itself ("state",
vanilla only), the stacked preactivations W a_t ("preactivation"), or the
parameter vector ("parameter").  For the preactivation cut J_theta is exactly
the Kronecker structure I (x) a_t^T, which the estimators exploit.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    NumericOverflowError,
    ShapeError,
    SizeGuardError,
    UnsupportedCutError,
)

VANILLA_TANH = "vanilla-tanh"
VANILLA_LINEAR = "vanilla-linear"  # identity activation, for analytic tests
LSTM = "lstm"

DENSE_GUARD = 10**7  # refuse to materialize J^{state}_{theta} beyond this


class CutVertex(str, Enum):
    STATE = "state"
    PREACTIVATION = "preactivation"
    PARAMETER = "parameter"


def _as_cut(cut) -> CutVertex:
    return cut if isinstance(cut, CutVertex) else CutVertex(cut)


@dataclass(frozen=True)
class RnnParams:
    """Weight matrix plus architecture metadata.

    weights has shape (N_z, H + X + 1): (H, A) for the vanilla cells and
    (4H, A) for the LSTM with gate rows stacked in the order
    input, forget, candidate, output.  The parameter vector theta is the
    row-major flattening of weights.
    """

    weights: np.ndarray
    cell_kind: str
    hidden_size: int
    input_size: int

    def __post_init__(self):
        h, x = self.hidden_size, self.input_size
        rows = 4 * h if self.cell_kind == LSTM else h
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (rows, h + x + 1):
            raise ShapeError(
                f"weights shape {w.shape} != ({rows}, {h + x + 1}) for {self.cell_kind}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        object.__setattr__(self, "weights", w)

    @property
    def augmented_size(self) -> int:
        return self.hidden_size + self.input_size + 1

    @property
    def preactivation_size(self) -> int:
        return self.weights.shape[0]

    @property
    def state_size(self) -> int:
        """Dimension of the propagated recurrent state (2H for the LSTM)."""
        return 2 * self.hidden_size if self.cell_kind == LSTM else self.hidden_size

    @property
    def num_params(self) -> int:
        return self.weights.size

    def theta(self) -> np.ndarray:
        return self.weights.reshape(-1).copy()

    def with_theta(self, theta: np.ndarray) -> "RnnParams":
        return RnnParams(
            weights=np.asarray(theta, dtype=np.float64).reshape(self.weights.shape),
            cell_kind=self.cell_kind,
            hidden_size=self.hidden_size,
            input_size=self.input_size,
        )

    def cut_size(self, cut) -> int:
        cut = _as_cut(cut)
        if cut == CutVertex.STATE:
            if self.cell_kind == LSTM:
                raise UnsupportedCutError(
                    "state cut is only a valid cut vertex for the vanilla cell"
                )
            return self.hidden_size
        if cut == CutVertex.PREACTIVATION:
            return self.preactivation_size
        return self.num_params


def init_params(
    cell_kind: str,
    hidden_size: int,
    input_size: int,
    rng: np.random.Generator,
    recurrent_gain: float = 1.0,
) -> RnnParams:
    """Orthogonal recurrent blocks, scaled-uniform input block, zero biases
    (forget-gate bias +1 for the LSTM)."""
    h, x = hidden_size, input_size
    n_blocks = 4 if cell_kind == LSTM else 1
    blocks = []
    for _ in range(n_blocks):
        q, _ = np.linalg.qr(rng.standard_normal((h, h)))
        blocks.append(recurrent_gain * q)
    w = np.zeros((n_blocks * h, h + x + 1))
    w[:, :h] = np.vstack(blocks)
    bound = 1.0 / np.sqrt(h + x)
    w[:, h : h + x] = rng.uniform(-bound, bound, size=(n_blocks * h, x))
    if cell_kind == LSTM:
        w[h : 2 * h, -1] = 1.0  # forget-gate bias
    return RnnParams(w, cell_kind, h, x)


@dataclass
class StepCache:
    """Everything needed to contract the step's local Jacobians."""

    params: RnnParams
    a: np.ndarray  # (A,) augmented input (h_prev, x, 1)
    z: np.ndarray  # (N_z,) preactivations W a
    h: np.ndarray  # (H,) new hidden output
    d: np.ndarray | None = None  # vanilla: activation derivative f'(z)
    # LSTM internals
    c_prev: np.ndarray | None = None
    gates: dict | None = None  # i, f, g, o, c, tanh_c

    def state(self) -> np.ndarray:
        if self.params.cell_kind == LSTM:
            return np.concatenate([self.h, self.gates["c"]])
        return self.h


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def step(params: RnnParams, state_prev: np.ndarray, x: np.ndarray):
    """Run one transition; returns (new full state, cache).

    state_prev is the full recurrent state: (H,) for vanilla cells,
    (2H,) = (h, c) for the LSTM.
    """
    h_size = params.hidden_size
    state_prev = np.asarray(state_prev, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if state_prev.shape != (params.state_size,):
        raise ShapeError(
            f"state shape {state_prev.shape} != ({params.state_size},)"
        )
    if x.shape != (params.input_size,):
        raise ShapeError(f"input shape {x.shape} != ({params.input_size},)")

    h_prev = state_prev[:h_size]
    a = np.concatenate([h_prev, x, [1.0]])
    z = params.weights @ a

    if params.cell_kind == VANILLA_TANH:
        h = np.tanh(z)
        cache = StepCache(params, a, z, h, d=1.0 - h * h)
        new_state = h
    elif params.cell_kind == VANILLA_LINEAR:
        h = z.copy()
        cache = StepCache(params, a, z, h, d=np.ones_like(z))
        new_state = h
    elif params.cell_kind == LSTM:
        c_prev = state_prev[h_size:]
        i = _sigmoid(z[:h_size])
        f = _sigmoid(z[h_size : 2 * h_size])
        g = np.tanh(z[2 * h_size : 3 * h_size])
        o = _sigmoid(z[3 * h_size :])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache = StepCache(
            params, a, z, h,
            c_prev=c_prev.copy(),
            gates={"i": i, "f": f, "g": g, "o": o, "c": c, "tanh_c": tanh_c},
        )
        new_state = np.concatenate([h, c])
    else:
        raise ValueError(f"unknown cell kind {params.cell_kind!r}")

    if not np.all(np.isfinite(new_state)):
        raise NumericOverflowError("step produced non-finite state")
    return new_state, cache


def embed_state_grad(params: RnnParams, g_h: np.ndarray) -> np.ndarray:
    """Lift a dL/dh vector (H,) into the full state space (zero c-part)."""
    if params.cell_kind == LSTM:
        return np.concatenate([g_h, np.zeros(params.hidden_size)])
    return np.asarray(g_h, dtype=np.float64)


# ---------------------------------------------------------------------------
# Local Jacobian products.  All take/return plain vectors, except that
# vjp_state, vjp_to_cut and vjp_params also pull back adjoints stacked as
# rows (..., S); see module docstring for which Jacobian each computes.
# ---------------------------------------------------------------------------

def _lstm_zc_jvp(cache: StepCache, dz: np.ndarray, dc_prev: np.ndarray):
    """Perturbation (dz, dc_prev) -> (dh, dc) through the LSTM gates."""
    h = cache.params.hidden_size
    gt = cache.gates
    di = gt["i"] * (1 - gt["i"]) * dz[:h]
    df = gt["f"] * (1 - gt["f"]) * dz[h : 2 * h]
    dg = (1 - gt["g"] ** 2) * dz[2 * h : 3 * h]
    do = gt["o"] * (1 - gt["o"]) * dz[3 * h :]
    dc = df * cache.c_prev + gt["f"] * dc_prev + di * gt["g"] + gt["i"] * dg
    dh = do * gt["tanh_c"] + gt["o"] * (1 - gt["tanh_c"] ** 2) * dc
    return dh, dc


def _lstm_adjoint(cache: StepCache, v: np.ndarray):
    """Adjoint (g_h, g_c) -> (g_zbar, g_c_prev); v may stack adjoints as
    rows of shape (..., 2H).  g_h_prev is g_zbar W_h, left to the caller
    that needs it."""
    h = cache.params.hidden_size
    gt = cache.gates
    g_h, g_c = v[..., :h], v[..., h:]
    gc_total = g_c + g_h * gt["o"] * (1 - gt["tanh_c"] ** 2)
    g_z = np.concatenate([
        gc_total * gt["g"] * gt["i"] * (1 - gt["i"]),
        gc_total * cache.c_prev * gt["f"] * (1 - gt["f"]),
        gc_total * gt["i"] * (1 - gt["g"] ** 2),
        g_h * gt["tanh_c"] * gt["o"] * (1 - gt["o"]),
    ], axis=-1)
    return g_z, gc_total * gt["f"]


def jvp_state(cache: StepCache, v: np.ndarray) -> np.ndarray:
    """J_state v: forward-propagate a state perturbation through the step."""
    p = cache.params
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (p.state_size,):
        raise ShapeError(f"state vector shape {v.shape} != ({p.state_size},)")
    h = p.hidden_size
    dz = p.weights[:, :h] @ v[:h]
    if p.cell_kind == LSTM:
        dh, dc = _lstm_zc_jvp(cache, dz, v[h:])
        return np.concatenate([dh, dc])
    return cache.d * dz


def vjp_state(cache: StepCache, v: np.ndarray) -> np.ndarray:
    """v^T J_state: pull a state adjoint back to the previous state.

    v may stack adjoints as rows of shape (..., S); each row is pulled back.
    """
    p = cache.params
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (p.state_size,):
        raise ShapeError(f"state vector shape {v.shape} != (..., {p.state_size})")
    h = p.hidden_size
    if p.cell_kind == LSTM:
        g_z, g_c_prev = _lstm_adjoint(cache, v)
        return np.concatenate([g_z @ p.weights[:, :h], g_c_prev], axis=-1)
    return (v * cache.d) @ p.weights[:, :h]


def jvp_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """J_cut v: propagate a perturbation of the cut value to the new state."""
    p = cache.params
    cut = _as_cut(cut)
    if cut == CutVertex.PARAMETER:
        raise UnsupportedCutError(
            "parameter-cut jvp is handled by composition, not directly"
        )
    n_z = p.cut_size(cut)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n_z,):
        raise ShapeError(f"cut vector shape {v.shape} != ({n_z},)")
    if cut == CutVertex.STATE:
        return v.copy()
    if p.cell_kind == LSTM:
        dh, dc = _lstm_zc_jvp(cache, v, np.zeros(p.hidden_size))
        return np.concatenate([dh, dc])
    return cache.d * v


def vjp_to_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """v^T J_cut: pull a state adjoint back to the cut value.

    v may stack adjoints as rows of shape (..., S); each row is pulled back.
    """
    p = cache.params
    cut = _as_cut(cut)
    p.cut_size(cut)  # validates cut/cell compatibility
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (p.state_size,):
        raise ShapeError(f"state vector shape {v.shape} != (..., {p.state_size})")
    if cut == CutVertex.STATE:
        return v.copy()
    if cut == CutVertex.PARAMETER:
        return vjp_params(cache, v)
    if p.cell_kind == LSTM:
        g_z, _ = _lstm_adjoint(cache, v)
        return g_z
    return v * cache.d


def vjp_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """v^T J_theta: contract a cut-space adjoint against d(cut)/d(theta).

    For the preactivation cut this is exactly vec(v a^T) by the Kronecker
    structure; for the state cut it composes through the preactivation; for
    the parameter cut J_theta is the identity.
    """
    p = cache.params
    cut = _as_cut(cut)
    n_z = p.cut_size(cut)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n_z,):
        raise ShapeError(f"cut vector shape {v.shape} != ({n_z},)")
    if cut == CutVertex.PREACTIVATION:
        return np.outer(v, cache.a).reshape(-1)
    if cut == CutVertex.PARAMETER:
        return v.copy()
    # state cut, vanilla: d(h)/d(theta) = diag(d) (I (x) a^T)
    return np.outer(v * cache.d, cache.a).reshape(-1)


def vjp_params(cache: StepCache, v: np.ndarray) -> np.ndarray:
    """v^T d(new state)/d(theta): the step's immediate parameter adjoint.

    v may stack adjoints as rows of shape (..., S); each row gives vec(g_z a^T).
    """
    p = cache.params
    v = np.asarray(v, dtype=np.float64)
    if p.cell_kind == LSTM:
        g_z, _ = _lstm_adjoint(cache, v)
    else:
        g_z = v * cache.d
    return (g_z[..., :, None] * cache.a).reshape(*v.shape[:-1], -1)


def dense_state_jacobian(cache: StepCache) -> np.ndarray:
    """Materialize J_state (S x S)."""
    p = cache.params
    h = p.hidden_size
    if p.cell_kind != LSTM:
        return cache.d[:, None] * p.weights[:, :h]
    s = p.state_size
    out = np.empty((s, s))
    eye = np.eye(s)
    for j in range(s):
        out[:, j] = jvp_state(cache, eye[:, j])
    return out


def dense_cut_jacobian(cache: StepCache, cut) -> np.ndarray:
    """Materialize J_cut (S x N_z)."""
    p = cache.params
    cut = _as_cut(cut)
    n_z = p.cut_size(cut)
    if cut == CutVertex.STATE:
        return np.eye(n_z)
    if p.cell_kind != LSTM:
        return np.diag(cache.d)
    out = np.empty((p.state_size, n_z))
    eye = np.eye(n_z)
    for j in range(n_z):
        out[:, j] = jvp_cut(cache, cut, eye[:, j])
    return out


def dense_theta_jacobian(cache: StepCache, cut) -> np.ndarray:
    """Materialize J_theta (N_z x P), guarded against absurd sizes."""
    p = cache.params
    cut = _as_cut(cut)
    if p.num_params * p.state_size > DENSE_GUARD:
        raise SizeGuardError(
            f"dense Jacobian of {p.num_params} params refused (guard {DENSE_GUARD})"
        )
    if cut == CutVertex.PARAMETER:
        return np.eye(p.num_params)
    if cut == CutVertex.PREACTIVATION:
        return np.kron(np.eye(p.preactivation_size), cache.a[None, :])
    # state cut, vanilla
    return cache.d[:, None] * np.kron(np.eye(p.hidden_size), cache.a[None, :])


def dense_jacobians(cache: StepCache, cut):
    """(J_state, J_cut, J_theta) as dense matrices, for oracle checks."""
    return (
        dense_state_jacobian(cache),
        dense_cut_jacobian(cache, cut),
        dense_theta_jacobian(cache, cut),
    )


# ---------------------------------------------------------------------------
# Loss heads
# ---------------------------------------------------------------------------

class SoftmaxHead:
    """Linear softmax readout with cross-entropy loss.

    weights has shape (K, H + 1); logits = weights @ (h, 1).
    """

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("softmax head weights must be 2-d")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, h: np.ndarray) -> np.ndarray:
        return self.weights @ np.concatenate([h, [1.0]])

    def _probs(self, h):
        lg = self.logits(h)
        lg = lg - lg.max()
        e = np.exp(lg)
        return e / e.sum()

    def loss_and_grad(self, h: np.ndarray, target):
        if target is None:
            return 0.0, np.zeros_like(h)
        target = int(target)
        if not 0 <= target < self.n_classes:
            raise ValueError(f"target {target} out of range [0, {self.n_classes})")
        probs = self._probs(h)
        loss = -np.log(max(probs[target], 1e-300))
        err = probs.copy()
        err[target] -= 1.0
        return float(loss), err @ self.weights[:, :-1]

    def param_grad(self, h: np.ndarray, target) -> np.ndarray:
        """Exact dL/d(head weights); the head never feeds back into h."""
        if target is None:
            return np.zeros_like(self.weights)
        probs = self._probs(h)
        err = probs.copy()
        err[int(target)] -= 1.0
        return np.outer(err, np.concatenate([h, [1.0]]))


class BernoulliHead:
    """Per-bit sigmoid readout with Bernoulli cross-entropy.

    weights has shape (n_bits, H + 1).  A target of None marks a masked step
    (zero loss, zero gradient).
    """

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)

    @property
    def n_bits(self) -> int:
        return self.weights.shape[0]

    def logits(self, h: np.ndarray) -> np.ndarray:
        return self.weights @ np.concatenate([h, [1.0]])

    def loss_and_grad(self, h: np.ndarray, target):
        if target is None:
            return 0.0, np.zeros_like(h)
        t = np.atleast_1d(np.asarray(target, dtype=np.float64))
        if t.shape != (self.n_bits,):
            raise ShapeError(f"target shape {t.shape} != ({self.n_bits},)")
        lg = self.logits(h)
        # log(1 + exp(-|x|)) form keeps the loss finite for saturated logits
        loss = np.sum(np.maximum(lg, 0.0) - lg * t + np.log1p(np.exp(-np.abs(lg))))
        err = _sigmoid(lg) - t
        return float(loss), err @ self.weights[:, :-1]

    def param_grad(self, h: np.ndarray, target) -> np.ndarray:
        if target is None:
            return np.zeros_like(self.weights)
        t = np.atleast_1d(np.asarray(target, dtype=np.float64))
        err = _sigmoid(self.logits(h)) - t
        return np.outer(err, np.concatenate([h, [1.0]]))


def loss_grad(h: np.ndarray, target, head):
    """Loss and dL/dh for one step under the given readout head."""
    return head.loss_and_grad(np.asarray(h, dtype=np.float64), target)


# ---------------------------------------------------------------------------
# Episode tape
# ---------------------------------------------------------------------------

@dataclass
class EpisodeTape:
    """Per-step record of one episode: caches, losses and loss gradients.

    loss_grads rows are dL_t/dh_t (dimension H); embed_state_grad lifts them
    into the full state space where needed.
    """

    params: RnnParams
    initial_state: np.ndarray
    inputs: np.ndarray  # (T, X)
    caches: list = field(default_factory=list)
    losses: np.ndarray | None = None  # (T,)
    loss_grads: np.ndarray | None = None  # (T, H)
    targets: list | None = None

    @property
    def length(self) -> int:
        return len(self.caches)

    def total_loss(self) -> float:
        return float(np.sum(self.losses))

    def loss_grad_full(self, t: int) -> np.ndarray:
        return embed_state_grad(self.params, self.loss_grads[t])


def run_episode(
    params: RnnParams,
    inputs: np.ndarray,
    targets,
    head,
    initial_state: np.ndarray | None = None,
) -> EpisodeTape:
    """Forward pass over one episode, recording caches and per-step losses."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    total = inputs.shape[0]
    if total < 1:
        raise ShapeError("an episode needs at least one step")
    state = (
        np.zeros(params.state_size)
        if initial_state is None
        else np.asarray(initial_state, dtype=np.float64)
    )
    tape = EpisodeTape(
        params=params,
        initial_state=state.copy(),
        inputs=inputs,
        targets=list(targets),
    )
    losses = np.zeros(total)
    grads = np.zeros((total, params.hidden_size))
    for t in range(total):
        state, cache = step(params, state, inputs[t])
        tape.caches.append(cache)
        losses[t], grads[t] = loss_grad(state[: params.hidden_size], targets[t], head)
    tape.losses = losses
    tape.loss_grads = grads
    return tape
