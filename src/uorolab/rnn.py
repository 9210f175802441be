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
vanilla only) or the stacked preactivations W a_t ("preactivation").  At
both, J_theta has the one form diag(f_t) (I (x) a_t^T): f_t is 1 at the
preactivation cut, which leaves the Kronecker structure itself, and the
step's f'(z_t), the cache's d, at the state cut.  The estimators and the
variance toolkit use that form and never materialize J_theta.  Nothing here
materializes a local Jacobian: RTRL (exact.rtrl_jacobians) advances its
influence matrix as rows through jvp_state, and the dense J_state, J_cut and
J_theta are test oracles (tests/helpers.py).

Everything is batch-first: a step taken from states (B, S) and inputs (B, X)
records a cache whose arrays carry that leading batch axis, and the products
then take vectors (..., B, S), so B episodes advance in one call.  Without a
batch axis the same functions run one episode.  Either way a vector may stack
further rows in front: B noise seeds on one episode are rows (B, S) against an
unbatched cache.

An episode's tape holds its steps as one StepCache whose arrays have the step
axis first, (T, [B,] .), filled in place by sweep, which checks the shapes,
writes the inputs and takes the vanilla f'(z) once per tape; step is a sweep
of one step.  Indexing a cache indexes every array, as Targets does: steps[t]
is step t and steps[:, i] episode i, both views.  A product that needs no
recursion over the steps is taken over the whole tape in one call, with
vectors (T, [B,] S).
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NumericOverflowError, ShapeError, UnsupportedCutError

VANILLA_TANH = "vanilla-tanh"
VANILLA_LINEAR = "vanilla-linear"  # identity activation, for analytic tests
LSTM = "lstm"
CELL_KINDS = (VANILLA_TANH, VANILLA_LINEAR, LSTM)


class CutVertex(str, Enum):
    STATE = "state"
    PREACTIVATION = "preactivation"


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
        if self.cell_kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.cell_kind!r}: expected one "
                             f"of {', '.join(CELL_KINDS)}")
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

    @cached_property
    def w_h_t(self) -> np.ndarray:
        """W_h^T as a C-contiguous array, made on first read: weights are
        never changed in place (with_theta makes new parameters)."""
        return np.ascontiguousarray(self.weights[:, : self.hidden_size].T)

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
        return self.preactivation_size


def init_params(
    cell_kind: str,
    hidden_size: int,
    input_size: int,
    rng: np.random.Generator,
) -> RnnParams:
    """Orthogonal recurrent blocks, scaled-uniform input block, zero biases
    (forget-gate bias +1 for the LSTM)."""
    h, x = hidden_size, input_size
    n_blocks = 4 if cell_kind == LSTM else 1
    blocks = []
    for _ in range(n_blocks):
        q, _ = np.linalg.qr(rng.standard_normal((h, h)))
        blocks.append(q)
    w = np.zeros((n_blocks * h, h + x + 1))
    w[:, :h] = np.vstack(blocks)
    bound = 1.0 / np.sqrt(h + x)
    w[:, h : h + x] = rng.uniform(-bound, bound, size=(n_blocks * h, x))
    if cell_kind == LSTM:
        w[h : 2 * h, -1] = 1.0  # forget-gate bias
    return RnnParams(w, cell_kind, h, x)


@dataclass
class StepCache:
    """Everything needed to contract a step's local Jacobians.  Every array
    carries the same leading shape: (), or (B,) for a step of B episodes, or
    (T, [B]) for the steps of a tape.  Indexing indexes every array: of a
    tape's steps, steps[t] is step t and steps[:, i] episode i, as views."""

    params: RnnParams
    a: np.ndarray  # (..., A) augmented input (h_prev, x, 1)
    h: np.ndarray  # (..., H) new hidden output
    d: np.ndarray | None = None  # vanilla: activation derivative f'(z)
    # LSTM: forget gate f and the step's gate derivatives (no product reads
    # the cell state c): dz = (dc/dz_i, dc/dz_f, dc/dz_g, direct dh/dz_o) per
    # unit, stacked like the preactivations, and dh_dc = o (1 - tanh(c)^2)
    f: np.ndarray | None = None
    dz: np.ndarray | None = None
    dh_dc: np.ndarray | None = None

    @property
    def batch_shape(self) -> tuple:
        return self.a.shape[:-1]

    def __getitem__(self, index) -> "StepCache":
        return StepCache(self.params, **{name: x[index] for name, x in vars(self).items()
                                         if x is not None and name != "params"})


def empty_steps(params: RnnParams, shape: tuple) -> StepCache:
    """An unfilled StepCache whose arrays have the leading shape given, such
    as a tape's (T, [B]), for sweep (or a single step) to fill."""
    h = params.hidden_size

    def empty(size):
        return np.empty((*shape, size))

    if params.cell_kind == LSTM:
        return StepCache(params, empty(params.augmented_size), empty(h), f=empty(h),
                         dz=empty(4 * h), dh_dc=empty(h))
    return StepCache(params, empty(params.augmented_size), empty(h), d=empty(h))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows."""
    ex = np.exp(-np.abs(x))
    denominator = 1.0 + ex
    return np.where(x >= 0, 1.0 / denominator, ex / denominator)


def sweep(params: RnnParams, state: np.ndarray, inputs: np.ndarray,
          steps: StepCache, offsets: np.ndarray | None = None) -> np.ndarray:
    """Run the transitions of a tape from state, filling its steps in place;
    returns the final state.

    state is the full recurrent state ([B,] S), inputs are (T, [B,] X), one
    row per step, and steps is a StepCache of leading shape (T, [B]), such as
    empty_steps(params, (T, [B])).  offsets, if given, are (T, [B,] S):
    step t adds its new state into offsets[t], in place, and the next step
    starts from that sum, so the sweep leaves the offset states there.

    The shapes are checked, the inputs and the bias column written into
    steps.a, the vanilla f'(z) taken over the whole tape and the hidden
    states checked finite once per sweep, the LSTM cell state (two rolling
    rows) at each step; the first step whose new state (before its offset)
    is not finite raises NumericOverflowError naming it.
    """
    h_size = params.hidden_size
    state = np.asarray(state, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if state.ndim > 2 or state.shape[-1:] != (params.state_size,):
        raise ShapeError(
            f"state shape {state.shape} != ([B,] {params.state_size})"
        )
    batch = state.shape[:-1]
    total = len(inputs) if inputs.ndim else 0
    if total < 1:
        raise ShapeError("a sweep needs at least one step")
    if inputs.shape != (total, *batch, params.input_size):
        raise ShapeError(f"input shape {inputs.shape[1:]} != "
                         f"{(*batch, params.input_size)}")
    if steps.a.shape != (total, *batch, params.augmented_size):
        raise ShapeError(f"steps of shape {steps.batch_shape} for inputs of "
                         f"shape {inputs.shape[:-1]}")
    if offsets is not None and offsets.shape != (total, *batch, params.state_size):
        raise ShapeError(f"offsets shape {offsets.shape} != "
                         f"{(total, *batch, params.state_size)}")

    a = steps.a
    a_h = a[..., :h_size]  # each step's h_prev
    a_h[0] = state[..., :h_size]
    a[..., h_size:-1] = inputs
    a[..., -1] = 1.0
    lstm = params.cell_kind == LSTM
    tanh = params.cell_kind == VANILLA_TANH
    w_t = params.weights.T
    offset_h = None if offsets is None else offsets[..., :h_size]
    offset_c = None if offsets is None else offsets[..., h_size:]
    c = state[..., h_size:]  # the LSTM cell state
    cells = np.empty((2, *batch, h_size)) if lstm else None
    first = total  # the first step whose state is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(total):
            if lstm:
                h, c = _lstm_cell(steps, t, a[t] @ w_t, c, cells[t % 2])
                if first == total and not np.isfinite(c).all():
                    first = t
            else:
                h = np.matmul(a[t], w_t, out=steps.h[t])
                if tanh:
                    np.tanh(h, out=h)
            if offsets is not None:
                h = np.add(h, offset_h[t], out=offset_h[t])
                if lstm:
                    c = np.add(c, offset_c[t], out=offset_c[t])
            if t + 1 < total:
                a_h[t + 1] = h

    if tanh:
        np.subtract(1.0, np.multiply(steps.h, steps.h, out=steps.d), out=steps.d)
    elif not lstm:  # VANILLA_LINEAR
        steps.d.fill(1.0)
    finite = np.isfinite(steps.h)
    if not finite.all():
        first = min(first, np.argmin(finite.reshape(total, -1).all(axis=1)))
    if first < total:
        raise NumericOverflowError(f"step {first} produced non-finite state")
    return np.concatenate([h, c], axis=-1) if lstm else h


def _lstm_cell(steps: StepCache, t: int, z: np.ndarray, c_prev: np.ndarray,
               c_out: np.ndarray):
    """The LSTM transition of step t from its preactivations z and the
    previous cell state: fills the step's f, h, dz and dh_dc, writes its cell
    state into c_out, not c_prev (read last), and returns its (h, c)."""
    h_size = steps.params.hidden_size
    i = _sigmoid(z[..., :h_size])
    f = _sigmoid(z[..., h_size : 2 * h_size])
    g = np.tanh(z[..., 2 * h_size : 3 * h_size])
    o = _sigmoid(z[..., 3 * h_size :])
    steps.f[t] = f
    c = np.add(f * c_prev, i * g, out=c_out)
    tanh_c = np.tanh(c)
    h = np.multiply(o, tanh_c, out=steps.h[t])
    np.concatenate([g * (i * (1 - i)), c_prev * (f * (1 - f)),
                    i * (1 - g * g), tanh_c * (o * (1 - o))], axis=-1, out=steps.dz[t])
    np.multiply(o, 1 - tanh_c * tanh_c, out=steps.dh_dc[t])
    return h, c


def step(params: RnnParams, state_prev: np.ndarray, x: np.ndarray,
         out: StepCache | None = None):
    """Run one transition, a sweep of one step; returns (new full state,
    cache).  No loop of the package calls it, since every tape is one sweep;
    it serves the tests and perfbench's step count.

    state_prev is the full recurrent state: (H,) for vanilla cells,
    (2H,) = (h, c) for the LSTM, or (B, S) for B episodes with inputs (B, X).
    out, if given, is the cache the step fills, such as step t of a tape,
    tape.steps[t]; otherwise the step allocates its own.
    """
    state_prev = np.asarray(state_prev, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    cache = empty_steps(params, state_prev.shape[:-1]) if out is None else out
    try:
        new_state = sweep(params, state_prev, x[None], cache[None])
    except NumericOverflowError:  # a step alone does not know its index
        raise NumericOverflowError("step produced non-finite state") from None
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


def _lstm_zc_jvp(cache: StepCache, scaled: np.ndarray, dc_prev, forget, out=None):
    """Perturbation (dz, dc_prev) -> state rows (dh, dc) through the LSTM
    gates, written into out if given; scaled is dz times the cache's gate
    derivatives, and forget the factor of dc_prev (the cache's f, or f
    times a scale)."""
    h = cache.params.hidden_size
    if out is None:
        out = np.empty((*scaled.shape[:-1], 2 * h))
    dh, dc = out[..., :h], out[..., h:]
    np.add(scaled[..., :h], scaled[..., h : 2 * h], out=dc)
    dc += scaled[..., 2 * h : 3 * h]
    dc += forget * dc_prev
    np.multiply(cache.dh_dc, dc, out=dh)
    dh += scaled[..., 3 * h :]
    return out


def _lstm_adjoint(cache: StepCache, v: np.ndarray, out: np.ndarray | None = None):
    """Adjoint rows (g_h, g_c) -> (g_zbar, g_c_prev), g_zbar written into out
    if given.  g_h_prev is g_zbar W_h, left to the caller that needs it."""
    h = cache.params.hidden_size
    g_h, g_c = v[..., :h], v[..., h:]
    gc_total = g_c + g_h * cache.dh_dc
    g_z = np.concatenate([gc_total, gc_total, gc_total, g_h], axis=-1)
    return np.multiply(g_z, cache.dz, out=out), gc_total * cache.f


def jvp_state(cache: StepCache, v: np.ndarray, out: np.ndarray | None = None,
              scale=None) -> np.ndarray:
    """J_state v: forward-propagate state perturbations through the step.

    out, if given, receives the result: an array of the result's shape that
    shares no memory with v.  scale, if given, is a scalar or per-row
    scalars (..., as the rows' batch axes) that multiply the result, s J_state
    v.  It is folded into the step's derivative factors, the vanilla f'(z)
    or the LSTM's gate derivatives and forget gate, which have one row per
    batch row, so no pass over the rows is added."""
    p = cache.params
    v = _rows(v, p.state_size, "state")
    h = p.hidden_size
    s = None if scale is None else np.asarray(scale)[..., None]
    # p.w_h_t is W_h^T made C-contiguous once per parameter set, not the
    # transposed column-slice view: numpy then runs one GEMM per leading slice
    # of stacked rows (N_z, B, S), not one over N_z*B rows, and each slice's
    # result is bit for bit the per-slice call's.  One Xeon core, OpenBLAS
    # 0.3.31 (Haswell kernel): the product took 850 -> 480 us at rows
    # (50, 100, 50) and 6900 -> 4700 us at the LSTM's (200, 50, 100), and
    # perfbench queue-ablation's temporal (preUORO) arm 89.3 -> 72.6 ms per
    # update (medians of 10 pairs).
    if p.cell_kind == LSTM:
        dz = v[..., :h] @ p.w_h_t
        gates, forget = (cache.dz, cache.f) if s is None else (s * cache.dz, s * cache.f)
        return _lstm_zc_jvp(cache, _scaled(gates, dz), v[..., h:], forget, out)
    d = cache.d if s is None else s * cache.d
    return _scaled(d, np.matmul(v, p.w_h_t, out=out))


def jvp_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """J_cut v: propagate perturbations of the cut value to the new state."""
    p = cache.params
    cut = _as_cut(cut)
    v = _rows(v, p.cut_size(cut), "cut")
    if cut == CutVertex.STATE:
        return v.copy()
    if p.cell_kind == LSTM:
        return _lstm_zc_jvp(cache, cache.dz * v, 0.0, cache.f)
    return cache.d * v


def vjp_to_cut(cache: StepCache, cut, v: np.ndarray) -> np.ndarray:
    """v^T J_cut: pull state adjoints back to the cut value."""
    p = cache.params
    cut = _as_cut(cut)
    p.cut_size(cut)  # validates cut/cell compatibility
    v = _rows(v, p.state_size, "state")
    if cut == CutVertex.STATE:
        return v.copy()
    if p.cell_kind == LSTM:
        g_z, _ = _lstm_adjoint(cache, v)
        return g_z
    return v * cache.d


def vjp_to_cut_and_state(cache: StepCache, cut, v: np.ndarray, out=None):
    """(v^T J_cut, v^T J_state) of the same rows, the first equal to
    vjp_to_cut bit for bit.  At the preactivation cut both come from one
    pullback to the preactivations (one _lstm_adjoint for the LSTM); the
    state adjoint always goes through that pullback.  out, if given, is the
    pair of arrays they are written into and returned; its second may be v
    itself, as v is read before it is written."""
    p = cache.params
    cut = _as_cut(cut)
    p.cut_size(cut)  # validates cut/cell compatibility
    v = _rows(v, p.state_size, "state")
    to_cut, to_state = (None, None) if out is None else out
    pre = cut == CutVertex.PREACTIVATION
    if not pre:  # the state cut's adjoint is v; np.positive copies it
        to_cut = np.positive(v, out=to_cut)
    w_h = p.weights[:, : p.hidden_size]
    if p.cell_kind == LSTM:  # at the preactivation cut
        g_z, g_c_prev = _lstm_adjoint(cache, v, to_cut)
        to_state = np.concatenate([g_z @ w_h, g_c_prev], axis=-1, out=to_state)
    else:
        g_z = np.multiply(v, cache.d, out=to_cut if pre else None)
        to_state = np.matmul(g_z, w_h, out=to_state)
    return (g_z if pre else to_cut), to_state


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
    dz = cache.dz
    cell_gates = dz[..., : 3 * h]
    through_c = (cell_gates.reshape(*dz.shape[:-1], 3, h)
                 * cache.dh_dc[..., None, :]).reshape(cell_gates.shape)
    gate_columns = np.arange(3 * h)
    return (np.concatenate([np.tile(units, 3), np.tile(units + h, 3), units]),
            np.concatenate([gate_columns, gate_columns, units + 3 * h]),
            np.concatenate([through_c, cell_gates, dz[..., 3 * h :]], axis=-1))


# ---------------------------------------------------------------------------
# Targets and loss heads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Targets:
    """The targets of a batch of rows as one array pair: values (*rows, K)
    floats for BernoulliHead or (*rows,) integer labels for SoftmaxHead, and
    mask (*rows,), 1.0 at supervised rows and 0.0 at masked rows, whose
    values are a zero fill.  Indexing slices both arrays: of an episode's
    (T, [B]) pair, targets[t] is step t and targets[:, i] episode i."""

    values: np.ndarray
    mask: np.ndarray

    def __getitem__(self, index) -> "Targets":
        return Targets(self.values[index], self.mask[index])


def _expected(shape: tuple, axes: str) -> str:
    return f"{axes} = {shape}" if axes else f"{shape}"


def _as_targets(targets, shape: tuple, axes: str = "") -> Targets:
    """targets as a Targets pair of rows of the given shape: a Targets of
    that shape as it is, or the list form, sequences nested to that shape
    (one target for shape ()) of targets, None at masked rows.  Any other
    shape raises ShapeError naming the expected one, its axes named axes."""
    if isinstance(targets, Targets):
        if targets.mask.shape != shape:
            raise ShapeError(f"targets of shape {targets.mask.shape}, "
                             f"expected {_expected(shape, axes)}")
        return targets
    if isinstance(targets, list) and len(shape) == 1 and len(targets) == shape[0]:
        if all([t is not None for t in targets]):  # a flat list, every row supervised
            return Targets(np.array(targets), np.ones(shape))
    rows = [targets]
    for size in shape:
        try:
            fits = all(len(r) == size for r in rows)
        except TypeError:  # a target or None where a sequence belongs
            fits = False
        if not fits:
            raise ShapeError("targets do not have the expected shape "
                             f"{_expected(shape, axes)}")
        rows = [t for r in rows for t in r]
    present = [t is not None for t in rows]
    if not all(present):  # masked rows hold a zero fill
        fill = next((np.zeros_like(t) for t in rows if t is not None), 0)
        rows = [fill if t is None else t for t in rows]
    values = np.array(rows)
    return Targets(values.reshape(shape + values.shape[1:]),
                   np.array(present, dtype=np.float64).reshape(shape))


def episode_targets(targets, episodes: tuple, length: int) -> Targets:
    """The targets of episodes of the given length as one (T, [B]) pair,
    from a Targets of that shape or the list form: T targets for episodes
    (), one list of T per episode for episodes (B,)."""
    if isinstance(targets, Targets) or not episodes:
        return _as_targets(targets, (length, *episodes),
                           "(T, B)" if episodes else "(T,)")
    pair = _as_targets(targets, (*episodes, length), "(B, T)")
    return Targets(np.swapaxes(pair.values, 0, 1), pair.mask.T)


def _scalar_or_rows(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


class _LinearHead:
    """A linear readout, logits = weights @ (h, 1), with weights (K, H + 1).
    h may carry leading axes, such as B episodes (B, H), and target is a
    Targets pair of those axes or its list form (_as_targets); a masked row
    has zero loss and zero gradient.  A subclass gives the loss per row, and
    unless errors is false its logit gradient, the error rows, in
    _error(h, values, mask, errors)."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("head weights must be 2-d")

    def logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.weights[:, :-1].T + self.weights[:, -1]

    def _rows_error(self, h, target, errors=True):
        pair = _as_targets(target, h.shape[:-1])
        return self._error(h, pair.values, pair.mask, errors)

    def loss_and_grad(self, h: np.ndarray, target):
        loss, err = self._rows_error(h, target)
        return _scalar_or_rows(loss), err @ self.weights[:, :-1]

    def losses(self, h: np.ndarray, target):
        """The loss per row alone, bit for bit as loss_and_grad gives it;
        no error row is formed."""
        return _scalar_or_rows(self._rows_error(h, target, errors=False)[0])

    def param_grad(self, h: np.ndarray, target) -> np.ndarray:
        """Exact dL/d(head weights) per row; the head never feeds back into h."""
        _, err = self._rows_error(h, target)
        with_bias = np.concatenate([h, np.ones((*h.shape[:-1], 1))], axis=-1)
        return err[..., :, None] * with_bias[..., None, :]


class SoftmaxHead(_LinearHead):
    """Linear softmax readout with cross-entropy loss; a target is a class
    label in [0, K), and any other label raises ValueError naming it."""

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def _error(self, h, labels, mask, errors=True):
        """Loss and probs - onehot(label) per row.  Without the errors the
        label's probability alone is normalized."""
        onehot = labels[..., None] == np.arange(self.n_classes)
        if np.count_nonzero(onehot) != labels.size:  # a label matches no class
            bad = labels[~onehot.any(axis=-1)].flat[0]
            if bad != np.trunc(bad):
                raise ValueError(f"label {bad} is not an integer")
            raise ValueError(f"label {bad} out of range [0, {self.n_classes})")
        probs = self.logits(h)
        probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        total = np.add.reduce(probs, axis=-1, keepdims=True)
        if errors:
            probs /= total
            picked = probs[onehot]
        else:  # the label's entry of probs / total alone
            picked = probs[onehot] / total.reshape(-1)
        loss = -np.log(np.maximum(picked, 1e-300)).reshape(labels.shape) * mask
        if not errors:
            return loss, None
        probs[onehot] -= 1.0
        return loss, probs * mask[..., None]


class BernoulliHead(_LinearHead):
    """Per-bit sigmoid readout with Bernoulli cross-entropy; a target is
    n_bits values in [0, 1]."""

    @property
    def n_bits(self) -> int:
        return self.weights.shape[0]

    def _error(self, h, values, mask, errors=True):
        """Loss and sigmoid(logits) - target per row."""
        t = np.asarray(values, dtype=np.float64).reshape(mask.shape + (-1,))
        # with no supervised row the fill is one zero per row; it broadcasts
        if t.shape[-1] != self.n_bits and mask.any():
            raise ShapeError(f"target shape {t.shape[-1:]} != ({self.n_bits},)")
        lg = self.logits(h)
        # log(1 + exp(-|x|)) form keeps the loss finite for saturated logits
        loss = np.sum(np.maximum(lg, 0.0) - lg * t + np.log1p(np.exp(-np.abs(lg))),
                      axis=-1)
        return loss * mask, (_sigmoid(lg) - t) * mask[..., None] if errors else None


def loss_grad(h: np.ndarray, target, head):
    """Loss and dL/dh for one step under the given readout head."""
    return head.loss_and_grad(np.asarray(h, dtype=np.float64), target)


# ---------------------------------------------------------------------------
# Episode tape
# ---------------------------------------------------------------------------

@dataclass
class EpisodeTape:
    """Record of one episode, or of B episodes run together: the steps'
    caches, targets, losses and loss gradients, each with the step axis
    first.  steps is one StepCache of (T, [B,] .) arrays: tape.steps[t] is
    step t's cache and tape.steps[:, i] episode i's, both views.

    loss_grads rows are dL_t/dh_t (dimension H); embed_state_grad lifts them
    into the full state space where needed.
    """

    params: RnnParams
    initial_state: np.ndarray  # ([B,] S)
    inputs: np.ndarray  # ([B,] T, X)
    steps: StepCache  # (T, [B,] .) arrays
    losses: np.ndarray | None = None  # (T, [B])
    loss_grads: np.ndarray | None = None  # (T, [B,] H)
    targets: Targets | None = None  # (T, [B]) rows

    @property
    def length(self) -> int:
        return self.steps.a.shape[0]

    @property
    def batch_shape(self) -> tuple:
        return self.initial_state.shape[:-1]

    def total_loss(self):
        """The summed loss of the episode, or (B,) per-episode sums."""
        return _scalar_or_rows(np.sum(self.losses, axis=0))

    def loss_grad_full(self, t: int) -> np.ndarray:
        return embed_state_grad(self.params, self.loss_grads[t])

    def episode(self, i: int | slice) -> "EpisodeTape":
        """The tape of episode i of a batched tape, or the batched tape of
        the episodes of a slice i; its arrays are views."""
        return EpisodeTape(
            params=self.params,
            initial_state=self.initial_state[i],
            inputs=self.inputs[i],
            steps=self.steps[:, i],
            losses=self.losses[:, i],
            loss_grads=self.loss_grads[:, i],
            targets=self.targets[:, i],
        )


def run_episode(
    params: RnnParams,
    inputs: np.ndarray,
    targets,
    head,
    initial_state: np.ndarray | None = None,
) -> EpisodeTape:
    """Forward pass over one episode, recording its steps and losses.

    inputs (B, T, X) with one target list per episode run B episodes as one
    batch.  One sweep fills the tape's (T, [B,] .) step arrays in place.
    The targets become the tape's (T, [B]) Targets once (episode_targets),
    and one head call after the sweep takes every step: the hidden states as
    (T, B, H), or (T, 1, H) for one episode, so that each step's matrix
    products have the shapes, and round as, a call per step.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 3:
        inputs = np.atleast_2d(inputs)
    batch = inputs.shape[:-2]
    total = inputs.shape[-2]
    if total < 1:
        raise ShapeError("an episode needs at least one step")
    targets = episode_targets(targets, batch, total)
    state = (
        np.zeros((*batch, params.state_size))
        if initial_state is None
        else np.array(initial_state, dtype=np.float64)
    )
    tape = EpisodeTape(
        params=params,
        initial_state=state,
        inputs=inputs,
        steps=empty_steps(params, (total, *batch)),
        targets=targets,
    )
    sweep(params, state, np.swapaxes(inputs, 0, -2), tape.steps)
    rows = batch or (1,)
    losses = np.empty((total, *rows))  # filled as well from one scalar loss
    losses[...], grads = loss_grad(tape.steps.h.reshape(total, *rows, -1),
                                   targets if batch else targets[:, None], head)
    tape.losses = losses.reshape(total, *batch)
    tape.loss_grads = grads.reshape(total, *batch, params.hidden_size)
    return tape
