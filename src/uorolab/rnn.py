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

Everything is batch-first: a step taken from states (B, S) and inputs (B, X)
records a cache whose arrays carry that leading batch axis, and the products
then take vectors (..., B, S), so B episodes advance in one call.  Without a
batch axis the same functions run one episode.  Either way a vector may stack
further rows in front: B noise seeds on one episode are rows (B, S) against an
unbatched cache.
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
    """Everything needed to contract the step's local Jacobians.  Arrays
    carry the step's batch shape, () or (B,), in front."""

    params: RnnParams
    a: np.ndarray  # ([B,] A) augmented input (h_prev, x, 1)
    z: np.ndarray  # ([B,] N_z) preactivations W a
    h: np.ndarray  # ([B,] H) new hidden output
    d: np.ndarray | None = None  # vanilla: activation derivative f'(z)
    # LSTM: forget gate f, cell c, and the step's gate derivatives, computed
    # once: dz = (dc/dz_i, dc/dz_f, dc/dz_g, direct dh/dz_o) per unit, stacked
    # like z, and dh_dc = o (1 - tanh(c)^2)
    gates: dict | None = None

    @property
    def batch_shape(self) -> tuple:
        return self.a.shape[:-1]

    def state(self) -> np.ndarray:
        if self.params.cell_kind == LSTM:
            return np.concatenate([self.h, self.gates["c"]], axis=-1)
        return self.h

    def episode(self, i: int) -> "StepCache":
        """The cache of episode i of a batched step."""
        def row(x):
            return None if x is None else x[i]

        return StepCache(
            self.params, self.a[i], self.z[i], self.h[i], d=row(self.d),
            gates=None if self.gates is None else {k: v[i] for k, v in self.gates.items()},
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows."""
    ex = np.exp(-np.abs(x))
    denominator = 1.0 + ex
    return np.where(x >= 0, 1.0 / denominator, ex / denominator)


def step(params: RnnParams, state_prev: np.ndarray, x: np.ndarray):
    """Run one transition; returns (new full state, cache).

    state_prev is the full recurrent state: (H,) for vanilla cells,
    (2H,) = (h, c) for the LSTM, or (B, S) for B episodes with inputs (B, X).
    """
    h_size = params.hidden_size
    state_prev = np.asarray(state_prev, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if state_prev.ndim > 2 or state_prev.shape[-1:] != (params.state_size,):
        raise ShapeError(
            f"state shape {state_prev.shape} != ([B,] {params.state_size})"
        )
    batch = state_prev.shape[:-1]
    if x.shape != (*batch, params.input_size):
        raise ShapeError(f"input shape {x.shape} != {(*batch, params.input_size)}")

    h_prev = state_prev[..., :h_size]
    a = np.concatenate([h_prev, x, np.ones((*batch, 1))], axis=-1)
    z = a @ params.weights.T

    if params.cell_kind == VANILLA_TANH:
        h = np.tanh(z)
        cache = StepCache(params, a, z, h, d=1.0 - h * h)
        new_state = h
    elif params.cell_kind == VANILLA_LINEAR:
        h = z.copy()
        cache = StepCache(params, a, z, h, d=np.ones_like(z))
        new_state = h
    elif params.cell_kind == LSTM:
        c_prev = state_prev[..., h_size:]
        i = _sigmoid(z[..., :h_size])
        f = _sigmoid(z[..., h_size : 2 * h_size])
        g = np.tanh(z[..., 2 * h_size : 3 * h_size])
        o = _sigmoid(z[..., 3 * h_size :])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        dz = np.concatenate([g * (i * (1 - i)), c_prev * (f * (1 - f)),
                             i * (1 - g * g), tanh_c * (o * (1 - o))], axis=-1)
        cache = StepCache(params, a, z, h, gates={
            "f": f, "c": c, "dz": dz, "dh_dc": o * (1 - tanh_c * tanh_c)})
        new_state = np.concatenate([h, c], axis=-1)
    else:
        raise ValueError(f"unknown cell kind {params.cell_kind!r}")

    if not np.isfinite(new_state).all():
        raise NumericOverflowError("step produced non-finite state")
    return new_state, cache


def embed_state_grad(params: RnnParams, g_h: np.ndarray) -> np.ndarray:
    """Lift dL/dh rows (..., H) into the full state space (zero c-part)."""
    g_h = np.asarray(g_h, dtype=np.float64)
    if params.cell_kind == LSTM:
        return np.concatenate([g_h, np.zeros_like(g_h)], axis=-1)
    return g_h


# ---------------------------------------------------------------------------
# Local Jacobian products.  Vectors are rows (..., S) (or (..., N_z) in cut
# space) whose trailing axes line up with the cache's batch shape; see the
# module docstring for which Jacobian each computes.
# ---------------------------------------------------------------------------

def _rows(v, size: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (size,):
        raise ShapeError(f"{what} vector shape {v.shape} != (..., {size})")
    return v


def outer_rows(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """vec(v a^T) row by row: (..., N) and (..., M) give (..., N*M)."""
    out = np.multiply(v[..., :, None], a[..., None, :], order="C")
    return out.reshape(*out.shape[:-2], -1)


def _scaled(factors: np.ndarray, product: np.ndarray) -> np.ndarray:
    """factors * product, written over product (a fresh array or a caller's
    out) when it already has the shape of the result."""
    fits = product.shape[product.ndim - factors.ndim:] == factors.shape
    return np.multiply(factors, product, out=product if fits else None)


def _lstm_zc_jvp(cache: StepCache, scaled: np.ndarray, dc_prev, out=None):
    """Perturbation (dz, dc_prev) -> state rows (dh, dc) through the LSTM
    gates, written into out if given; scaled is dz times the cache's gate
    derivatives."""
    h = cache.params.hidden_size
    gt = cache.gates
    if out is None:
        out = np.empty((*scaled.shape[:-1], 2 * h))
    dh, dc = out[..., :h], out[..., h:]
    np.add(scaled[..., :h], scaled[..., h : 2 * h], out=dc)
    dc += scaled[..., 2 * h : 3 * h]
    dc += gt["f"] * dc_prev
    np.multiply(gt["dh_dc"], dc, out=dh)
    dh += scaled[..., 3 * h :]
    return out


def _lstm_adjoint(cache: StepCache, v: np.ndarray):
    """Adjoint rows (g_h, g_c) -> (g_zbar, g_c_prev).  g_h_prev is
    g_zbar W_h, left to the caller that needs it."""
    h = cache.params.hidden_size
    gt = cache.gates
    g_h, g_c = v[..., :h], v[..., h:]
    gc_total = g_c + g_h * gt["dh_dc"]
    g_z = np.concatenate([gc_total, gc_total, gc_total, g_h], axis=-1) * gt["dz"]
    return g_z, gc_total * gt["f"]


def jvp_state(cache: StepCache, v: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """J_state v: forward-propagate state perturbations through the step.

    out, if given, receives the result: an array of the result's shape that
    shares no memory with v."""
    p = cache.params
    v = _rows(v, p.state_size, "state")
    h = p.hidden_size
    if p.cell_kind == LSTM:
        dz = v[..., :h] @ p.weights[:, :h].T
        return _lstm_zc_jvp(cache, _scaled(cache.gates["dz"], dz), v[..., h:], out)
    return _scaled(cache.d, np.matmul(v, p.weights[:, :h].T, out=out))


def vjp_state(cache: StepCache, v: np.ndarray) -> np.ndarray:
    """v^T J_state: pull state adjoints back to the previous state (through
    the preactivations, whatever the cut)."""
    return vjp_to_cut_and_state(cache, CutVertex.PREACTIVATION, v)[1]


def jvp_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """J_cut v: propagate perturbations of the cut value to the new state."""
    p = cache.params
    cut = _as_cut(cut)
    if cut == CutVertex.PARAMETER:
        raise UnsupportedCutError(
            "parameter-cut jvp is handled by composition, not directly"
        )
    v = _rows(v, p.cut_size(cut), "cut")
    if cut == CutVertex.STATE:
        return v.copy()
    if p.cell_kind == LSTM:
        return _lstm_zc_jvp(cache, cache.gates["dz"] * v, 0.0)
    return cache.d * v


def vjp_to_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """v^T J_cut: pull state adjoints back to the cut value."""
    p = cache.params
    cut = _as_cut(cut)
    p.cut_size(cut)  # validates cut/cell compatibility
    v = _rows(v, p.state_size, "state")
    if cut == CutVertex.STATE:
        return v.copy()
    if cut == CutVertex.PARAMETER:
        return vjp_params(cache, v)
    if p.cell_kind == LSTM:
        g_z, _ = _lstm_adjoint(cache, v)
        return g_z
    return v * cache.d


def vjp_to_cut_and_state(cache: StepCache, cut, v: np.ndarray):
    """(v^T J_cut, v^T J_state): vjp_to_cut and vjp_state of the same rows,
    equal to them bit for bit.  At the preactivation cut both come from one
    pullback to the preactivations (one _lstm_adjoint for the LSTM); the
    state adjoint always goes through that pullback."""
    p = cache.params
    cut = _as_cut(cut)
    to_cut = None if cut == CutVertex.PREACTIVATION else vjp_to_cut(cache, cut, v)
    v = _rows(v, p.state_size, "state")
    w_h = p.weights[:, : p.hidden_size]
    if p.cell_kind == LSTM:
        g_z, g_c_prev = _lstm_adjoint(cache, v)
        to_state = np.concatenate([g_z @ w_h, g_c_prev], axis=-1)
    else:
        g_z = v * cache.d
        to_state = g_z @ w_h
    return (g_z if to_cut is None else to_cut), to_state


def vjp_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """v^T J_theta: contract cut-space adjoints against d(cut)/d(theta).

    For the preactivation cut this is exactly vec(v a^T) by the Kronecker
    structure; for the state cut it composes through the preactivation; for
    the parameter cut J_theta is the identity.
    """
    p = cache.params
    cut = _as_cut(cut)
    v = _rows(v, p.cut_size(cut), "cut")
    if cut == CutVertex.PREACTIVATION:
        return outer_rows(v, cache.a)
    if cut == CutVertex.PARAMETER:
        return v.copy()
    # state cut, vanilla: d(h)/d(theta) = diag(d) (I (x) a^T)
    return outer_rows(v * cache.d, cache.a)


def vjp_params(cache: StepCache, v: np.ndarray) -> np.ndarray:
    """v^T d(new state)/d(theta): the step's immediate parameter adjoint,
    vec(g_z a^T) for each row of v."""
    p = cache.params
    v = np.asarray(v, dtype=np.float64)
    if p.cell_kind == LSTM:
        g_z, _ = _lstm_adjoint(cache, v)
    else:
        g_z = v * cache.d
    return outer_rows(g_z, cache.a)


def preactivation_cut_nonzeros(cache: StepCache):
    """The nonzeros of J_cut at the preactivation cut, as (state_index,
    cut_index, values): J_cut[..., state_index[n], cut_index[n]] =
    values[..., n], values carrying the cache's batch shape.

    vanilla: the H diagonal entries f'(z).  LSTM: 7H entries.  Column k of
    the input, forget or candidate gate of unit j holds dh_dc[j] dz[k] at h_j
    and dz[k] at c_j; column k of the output gate holds dz[k] at h_j (dz and
    dh_dc are the cache's gate derivatives)."""
    h = cache.params.hidden_size
    units = np.arange(h)
    if cache.params.cell_kind != LSTM:
        return units, units, cache.d
    gt = cache.gates
    dz = gt["dz"]
    cell_gates = dz[..., : 3 * h]
    through_c = (cell_gates.reshape(*dz.shape[:-1], 3, h)
                 * gt["dh_dc"][..., None, :]).reshape(cell_gates.shape)
    gate_columns = np.arange(3 * h)
    return (np.concatenate([np.tile(units, 3), np.tile(units + h, 3), units]),
            np.concatenate([gate_columns, gate_columns, units + 3 * h]),
            np.concatenate([through_c, cell_gates, dz[..., 3 * h :]], axis=-1))


def basis_rows(size: int, batch_ndim: int) -> np.ndarray:
    """The identity as `size` stacked rows that broadcast over batch_ndim
    batch axes: shape (size, 1, .., 1, size)."""
    return np.eye(size).reshape(size, *(1,) * batch_ndim, size)


def dense_state_jacobian(cache: StepCache) -> np.ndarray:
    """Materialize J_state ([B,] S x S)."""
    s = cache.params.state_size
    return np.moveaxis(jvp_state(cache, basis_rows(s, len(cache.batch_shape))), 0, -1)


def dense_cut_jacobian(cache: StepCache, cut) -> np.ndarray:
    """Materialize J_cut ([B,] S x N_z)."""
    cut = _as_cut(cut)
    n_z = cache.params.cut_size(cut)
    if cut == CutVertex.STATE:
        return np.zeros((*cache.batch_shape, n_z, n_z)) + np.eye(n_z)
    return np.moveaxis(jvp_cut(cache, cut, basis_rows(n_z, len(cache.batch_shape))), 0, -1)


def dense_theta_jacobian(cache: StepCache, cut) -> np.ndarray:
    """Materialize J_theta ([B,] N_z x P), guarded against absurd sizes."""
    p = cache.params
    cut = _as_cut(cut)
    if p.num_params * p.state_size > DENSE_GUARD:
        raise SizeGuardError(
            f"dense Jacobian of {p.num_params} params refused (guard {DENSE_GUARD})"
        )
    n_z = p.cut_size(cut)
    return np.moveaxis(vjp_cut(cache, cut, basis_rows(n_z, len(cache.batch_shape))), 0, -2)


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

def _with_bias(h: np.ndarray) -> np.ndarray:
    return np.concatenate([h, np.ones((*h.shape[:-1], 1))], axis=-1)


def _step_targets(target, batch_shape: tuple, fill):
    """Targets for h of shape (*batch_shape, H), as (a flat list of one value
    per row, supervised mask of batch_shape): a single target for one h, a
    sequence of B for (B, H), nested sequences for more leading axes.  A None
    target marks an unsupervised row (zero loss, zero gradient) and reads as
    fill."""
    rows = [target]
    for _ in batch_shape:
        rows = [t for nested in rows for t in nested]
    supervised = np.array([t is not None for t in rows], dtype=np.float64)
    return [fill if t is None else t for t in rows], supervised.reshape(batch_shape)


def _scalar_or_rows(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


class SoftmaxHead:
    """Linear softmax readout with cross-entropy loss.

    weights has shape (K, H + 1); logits = weights @ (h, 1).  h may carry
    leading axes, such as B episodes (B, H) with one target per episode.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("softmax head weights must be 2-d")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.weights[:, :-1].T + self.weights[:, -1]

    def _error(self, h, target):
        """Loss and probs - onehot(target) per row."""
        if h.ndim == 1:
            return self._error_one(h, target)
        labels, supervised = _step_targets(target, h.shape[:-1], 0)
        labels = [int(k) for k in labels]
        if min(labels) < 0 or max(labels) >= self.n_classes:
            raise ValueError(f"target {target} out of range [0, {self.n_classes})")
        probs = self.logits(h).reshape(-1, self.n_classes)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        flat = probs.reshape(-1)  # a view: probs is a new contiguous array
        picked = np.array([i * self.n_classes + k for i, k in enumerate(labels)])
        loss = -np.log(np.maximum(flat[picked], 1e-300))
        flat[picked] -= 1.0
        err = probs.reshape(*supervised.shape, -1)
        return loss.reshape(supervised.shape) * supervised, err * supervised[..., None]

    def _error_one(self, h, target):
        """_error for one unbatched h, with the same arithmetic and without
        the per-row target bookkeeping."""
        label = 0 if target is None else int(target)
        if not 0 <= label < self.n_classes:
            raise ValueError(f"target {target} out of range [0, {self.n_classes})")
        probs = self.logits(h)
        probs -= probs.max()
        np.exp(probs, out=probs)
        probs /= probs.sum()
        loss = -np.log(max(probs[label], 1e-300))
        probs[label] -= 1.0
        return (loss * 0.0, probs * 0.0) if target is None else (loss, probs)

    def loss_and_grad(self, h: np.ndarray, target):
        loss, err = self._error(h, target)
        return _scalar_or_rows(loss), err @ self.weights[:, :-1]

    def param_grad(self, h: np.ndarray, target) -> np.ndarray:
        """Exact dL/d(head weights) per row; the head never feeds back into h."""
        _, err = self._error(h, target)
        return err[..., :, None] * _with_bias(h)[..., None, :]


class BernoulliHead:
    """Per-bit sigmoid readout with Bernoulli cross-entropy.

    weights has shape (n_bits, H + 1).  A target of None marks a masked step
    (zero loss, zero gradient).  h may carry leading axes, as for
    SoftmaxHead.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)

    @property
    def n_bits(self) -> int:
        return self.weights.shape[0]

    def logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.weights[:, :-1].T + self.weights[:, -1]

    def _error(self, h, target):
        """Loss and sigmoid(logits) - target per row."""
        if h.ndim == 1:
            return self._error_one(h, target)
        t, supervised = _step_targets(target, h.shape[:-1], np.zeros(self.n_bits))
        t = np.array(t, dtype=np.float64).reshape(*h.shape[:-1], -1)
        if t.shape[-1] != self.n_bits:
            raise ShapeError(f"target shape {t.shape[-1:]} != ({self.n_bits},)")
        lg = self.logits(h)
        # log(1 + exp(-|x|)) form keeps the loss finite for saturated logits
        loss = np.sum(np.maximum(lg, 0.0) - lg * t + np.log1p(np.exp(-np.abs(lg))),
                      axis=-1)
        return loss * supervised, (_sigmoid(lg) - t) * supervised[..., None]

    def _error_one(self, h, target):
        """_error for one unbatched h, with the same arithmetic and without
        the per-row target bookkeeping."""
        t = (np.zeros(self.n_bits) if target is None
             else np.asarray(target, dtype=np.float64).reshape(-1))
        if t.shape[-1] != self.n_bits:
            raise ShapeError(f"target shape {t.shape[-1:]} != ({self.n_bits},)")
        lg = self.logits(h)
        loss = np.sum(np.maximum(lg, 0.0) - lg * t + np.log1p(np.exp(-np.abs(lg))))
        err = _sigmoid(lg) - t
        return (loss * 0.0, err * 0.0) if target is None else (loss, err)

    def loss_and_grad(self, h: np.ndarray, target):
        loss, err = self._error(h, target)
        return _scalar_or_rows(loss), err @ self.weights[:, :-1]

    def param_grad(self, h: np.ndarray, target) -> np.ndarray:
        _, err = self._error(h, target)
        return err[..., :, None] * _with_bias(h)[..., None, :]


def loss_grad(h: np.ndarray, target, head):
    """Loss and dL/dh for one step under the given readout head."""
    return head.loss_and_grad(np.asarray(h, dtype=np.float64), target)


# ---------------------------------------------------------------------------
# Episode tape
# ---------------------------------------------------------------------------

@dataclass
class EpisodeTape:
    """Per-step record of one episode, or of B episodes run together:
    caches, losses and loss gradients.

    loss_grads rows are dL_t/dh_t (dimension H); embed_state_grad lifts them
    into the full state space where needed.
    """

    params: RnnParams
    initial_state: np.ndarray  # ([B,] S)
    inputs: np.ndarray  # ([B,] T, X)
    caches: list = field(default_factory=list)
    losses: np.ndarray | None = None  # (T, [B])
    loss_grads: np.ndarray | None = None  # (T, [B,] H)
    targets: list | None = None  # T targets, or one list of T per episode

    @property
    def length(self) -> int:
        return len(self.caches)

    @property
    def batch_shape(self) -> tuple:
        return self.initial_state.shape[:-1]

    def total_loss(self):
        """The summed loss of the episode, or (B,) per-episode sums."""
        return _scalar_or_rows(np.sum(self.losses, axis=0))

    def loss_grad_full(self, t: int) -> np.ndarray:
        return embed_state_grad(self.params, self.loss_grads[t])

    def episode(self, i: int) -> "EpisodeTape":
        """The tape of episode i of a batched tape; its arrays are views."""
        return EpisodeTape(
            params=self.params,
            initial_state=self.initial_state[i],
            inputs=self.inputs[i],
            caches=[c.episode(i) for c in self.caches],
            losses=self.losses[:, i],
            loss_grads=self.loss_grads[:, i],
            targets=self.targets[i],
        )


def run_episode(
    params: RnnParams,
    inputs: np.ndarray,
    targets,
    head,
    initial_state: np.ndarray | None = None,
) -> EpisodeTape:
    """Forward pass over one episode, recording caches and per-step losses.

    inputs (B, T, X) with one target list per episode run B episodes as one
    batch.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 3:
        inputs = np.atleast_2d(inputs)
    batch = inputs.shape[:-2]
    total = inputs.shape[-2]
    if total < 1:
        raise ShapeError("an episode needs at least one step")
    state = (
        np.zeros((*batch, params.state_size))
        if initial_state is None
        else np.asarray(initial_state, dtype=np.float64)
    )
    targets = list(targets)
    tape = EpisodeTape(
        params=params,
        initial_state=state.copy(),
        inputs=inputs,
        targets=targets,
    )
    losses = np.zeros((total, *batch))
    grads = np.zeros((total, *batch, params.hidden_size))
    for t in range(total):
        state, cache = step(params, state, inputs[..., t, :])
        tape.caches.append(cache)
        step_targets = [tg[t] for tg in targets] if batch else targets[t]
        losses[t], grads[t] = loss_grad(state[..., : params.hidden_size],
                                        step_targets, head)
    tape.losses = losses
    tape.loss_grads = grads
    return tape
