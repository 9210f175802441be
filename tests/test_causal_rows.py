"""compute_C, compute_B and compute_B_partial work on one episode's
T(T+1)/2 distinct suffix rows v_qr, q >= r (exact.suffix_rows; v_qr = v_rr
for q <= r by causality); against the oracles over all T^2 suffix sums of the
episode's own b (exact.episode_tensors) they must agree to roundoff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab import rnn
from uorolab.exact import episode_tensors, suffix_rows
from uorolab.rnn import CutVertex, run_episode
from uorolab.variance import (
    _tril_indices,
    compute_B,
    compute_B_partial,
    compute_C,
)

from helpers import compute_C_oracle, make_instance, qr_B_oracle, suffix_sums

RTOL = 1e-12

CELLS = [rnn.VANILLA_TANH, rnn.VANILLA_LINEAR, rnn.LSTM]


def rows_for(seed, cell, hidden=3, length=5, cut=CutVertex.PREACTIVATION):
    """(steps, rows, tensors): the tape's steps, from which the oracles form
    J_theta densely, the episode's suffix rows, and its tensors, whose b the
    oracles read."""
    rng = np.random.default_rng(seed)
    params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=hidden,
                                                  length=length)
    tape = run_episode(params, inputs, targets, head)
    return tape.steps, suffix_rows(tape, cut), episode_tensors(tape, cut)


def dense_q0(rng, n):
    """A dense, non-symmetric, well-conditioned Q0."""
    return np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)


def assert_close(value, reference):
    scale = np.abs(reference).max()
    assert np.abs(value - reference).max() <= RTOL * scale


class TestRows:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("length", [1, 2, 6])
    def test_rows_equal_the_flipped_cumsum(self, cell, length):
        _, rows, tensors = rows_for(100 + length, cell, length=length)
        q, r = _tril_indices(length)
        np.testing.assert_array_equal(q, np.tril_indices(length)[0])
        np.testing.assert_array_equal(r, np.tril_indices(length)[1])
        assert_close(rows.rows, suffix_sums(tensors.b)[q, r])

    def test_index_arrays_are_shared_and_read_only(self):
        q, r = _tril_indices(4)
        q_again, r_again = _tril_indices(4)
        assert q is q_again and r is r_again  # made once per length
        for index in (q, r):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1


class TestAgainstAllRows:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("with_q0", [False, True])
    def test_C(self, cell, with_q0):
        steps, rows, tensors = rows_for(110, cell)
        q0 = dense_q0(np.random.default_rng(111), rows.cut_dim) if with_q0 else None
        assert_close(compute_C(rows, q0), compute_C_oracle(tensors, steps, q0))

    @pytest.mark.parametrize("with_q0", [False, True])
    def test_C_at_the_state_cut(self, with_q0):
        steps, rows, tensors = rows_for(112, rnn.VANILLA_TANH, cut=CutVertex.STATE)
        q0 = dense_q0(np.random.default_rng(113), rows.cut_dim) if with_q0 else None
        assert_close(compute_C(rows, q0), compute_C_oracle(tensors, steps, q0))

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("alpha_kind", ["ones", "random"])
    def test_B(self, cell, alpha_kind):
        _, rows, tensors = rows_for(114, cell, length=6)
        rng = np.random.default_rng(115)
        alpha = np.ones(6) if alpha_kind == "ones" else rng.uniform(0.3, 3.0, 6)
        assert_close(compute_B(rows, alpha), qr_B_oracle(tensors, alpha))

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("alpha_kind", ["ones", "random"])
    def test_B_partial_at_every_k(self, cell, alpha_kind):
        _, rows, tensors = rows_for(116, cell, length=6)
        rng = np.random.default_rng(117)
        alpha = np.ones(6) if alpha_kind == "ones" else rng.uniform(0.3, 3.0, 6)
        for k in range(1, 7):
            assert_close(compute_B_partial(rows, alpha, k),
                         qr_B_oracle(tensors, alpha, k))

    @pytest.mark.parametrize("k", [-1, 0, 7])
    def test_B_partial_refuses_k_outside_the_episode(self, k):
        """A slice would take these quietly: k = -1 as the first 5 steps,
        k = 7 as all 6."""
        _, rows, _ = rows_for(118, rnn.VANILLA_TANH, length=6)
        with pytest.raises(ValueError, match="k = "):
            compute_B_partial(rows, np.ones(6), k)


@settings(max_examples=40, deadline=None)
@given(
    cell=st.sampled_from(CELLS),
    hidden=st.integers(1, 6),
    length=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_distinct_rows_match_all_rows(cell, hidden, length, seed):
    steps, rows, tensors = rows_for(seed, cell, hidden=hidden, length=length)
    rng = np.random.default_rng(seed)
    assert_close(rows.rows, suffix_sums(tensors.b)[_tril_indices(length)])
    q0 = dense_q0(rng, rows.cut_dim)
    for shape in (None, q0):
        assert_close(compute_C(rows, shape), compute_C_oracle(tensors, steps, shape))
    alpha = rng.uniform(0.3, 3.0, length)
    assert_close(compute_B(rows, alpha), qr_B_oracle(tensors, alpha))
    for k in range(1, length + 1):
        assert_close(compute_B_partial(rows, alpha, k), qr_B_oracle(tensors, alpha, k))
