"""exact.suffix_rows: one reverse sweep over a (batched) tape that carries
suffix-summed adjoints gives each episode's causal suffix rows, which must
equal those variance._causal_suffix_rows builds from the episode's own
episode_tensors, to roundoff; and rnn.vjp_to_cut_and_state, the one pullback
per step behind it, must equal vjp_to_cut and vjp_state bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab import rnn
from uorolab.errors import ShapeError
from uorolab.exact import episode_tensors, suffix_rows
from uorolab.rnn import CutVertex, run_episode
from uorolab.variance import _causal_suffix_rows, compute_B, compute_C

from helpers import make_instance

RTOL = 1e-12

CELLS = [rnn.VANILLA_TANH, rnn.VANILLA_LINEAR, rnn.LSTM]
CELL_CUTS = [(cell, CutVertex.PREACTIVATION) for cell in CELLS] + [
    (rnn.VANILLA_TANH, CutVertex.STATE), (rnn.VANILLA_LINEAR, CutVertex.STATE)]


def batched_tape(seed, cell, batch=3, hidden=3, length=5):
    """A tape of `batch` episodes with per-step class targets (None for a
    single unbatched episode)."""
    rng = np.random.default_rng(seed)
    params, inputs, targets, head = make_instance(rng, cell_kind=cell,
                                                  hidden=hidden, length=length)
    if batch is None:
        return run_episode(params, inputs, targets, head)
    inputs = rng.standard_normal((batch, length, params.input_size))
    targets = [[int(rng.integers(3)) for _ in range(length)] for _ in range(batch)]
    return run_episode(params, inputs, targets, head)


def episodes(tape):
    return [tape] if not tape.batch_shape else [
        tape.episode(j) for j in range(tape.batch_shape[0])]


def assert_close(value, reference):
    scale = np.abs(reference).max()
    assert np.abs(value - reference).max() <= RTOL * scale


def assert_rows_match(tape, cut):
    block = suffix_rows(tape, cut)
    for j, single in enumerate(episodes(tape)):
        rows = block if not tape.batch_shape else block.episode(j)
        expected, _, _ = _causal_suffix_rows(episode_tensors(single, cut).b)
        assert rows.rows.shape == expected.shape
        assert_close(rows.rows, expected)


class TestSweepRows:
    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    @pytest.mark.parametrize("batch", [None, 1, 3])
    def test_rows_equal_those_of_each_episodes_tensors(self, cell, cut, batch):
        assert_rows_match(batched_tape(200, cell, batch=batch), cut)

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_step_terms_are_the_episodes(self, cell, cut):
        tape = batched_tape(201, cell)
        block = suffix_rows(tape, cut)
        for j, single in enumerate(episodes(tape)):
            tensors = episode_tensors(single, cut)
            rows = block.episode(j)
            np.testing.assert_array_equal(rows.a_norms, tensors.a_norms)
            assert rows.length == tensors.length
            assert rows.cut_dim == tensors.cut_dim
            if cut == CutVertex.PREACTIVATION:
                assert rows.d is None and tensors.d is None
            else:
                np.testing.assert_array_equal(rows.d, tensors.d)

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_C_of_an_episodes_rows(self, cell, cut):
        tape = batched_tape(202, cell)
        block = suffix_rows(tape, cut)
        n_z = block.cut_dim
        rng = np.random.default_rng(203)
        q0 = np.eye(n_z) + 0.4 * rng.standard_normal((n_z, n_z)) / np.sqrt(n_z)
        for j, single in enumerate(episodes(tape)):
            tensors = episode_tensors(single, cut)
            for shape in (None, q0):
                assert_close(compute_C(block.episode(j), shape),
                             compute_C(tensors, shape))

    @pytest.mark.parametrize("cell", CELLS)
    def test_B_of_an_episodes_rows(self, cell):
        tape = batched_tape(204, cell, batch=4)
        block = suffix_rows(tape, CutVertex.PREACTIVATION)
        alphas = np.random.default_rng(205).uniform(0.3, 3.0, (tape.length, 4))
        for j, single in enumerate(episodes(tape)):
            tensors = episode_tensors(single, CutVertex.PREACTIVATION)
            assert_close(compute_B(block.episode(j), alphas[:, j]),
                         compute_B(tensors, alphas[:, j]))

    def test_block_rows_refused_where_one_episode_is_needed(self):
        block = suffix_rows(batched_tape(206, rnn.LSTM), CutVertex.PREACTIVATION)
        with pytest.raises(ShapeError):
            compute_C(block)
        with pytest.raises(ShapeError):
            compute_B(block, np.ones(block.length))
        with pytest.raises(ValueError, match="minst"):
            compute_B(block.episode(0), np.ones(block.length), form="minst")
        with pytest.raises(ShapeError):
            block.episode(0).episode(0)


@settings(max_examples=40, deadline=None)
@given(
    cell=st.sampled_from(CELLS),
    hidden=st.integers(1, 6),
    length=st.integers(1, 8),
    batch=st.sampled_from([None, 1, 2, 4]),
    state_cut=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_sweep_rows_match_episode_tensors(cell, hidden, length, batch, state_cut,
                                          seed):
    cut = (CutVertex.STATE if state_cut and cell != rnn.LSTM
           else CutVertex.PREACTIVATION)
    tape = batched_tape(seed, cell, batch=batch, hidden=hidden, length=length)
    assert_rows_match(tape, cut)


class TestFusedPullback:
    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    @pytest.mark.parametrize("rows_shape", [(), (4,), (2, 3)])
    def test_equals_vjp_to_cut_and_vjp_state_bit_for_bit(self, cell, cut,
                                                         rows_shape):
        tape = batched_tape(207, cell)
        rng = np.random.default_rng(208)
        cache = tape.steps[2]
        v = rng.standard_normal((*rows_shape, *cache.batch_shape,
                                 tape.params.state_size))
        to_cut, to_state = rnn.vjp_to_cut_and_state(cache, cut, v)
        np.testing.assert_array_equal(to_cut, rnn.vjp_to_cut(cache, cut, v))
        np.testing.assert_array_equal(to_state, rnn.vjp_state(cache, v))

    def test_checks_the_rows(self):
        tape = batched_tape(209, rnn.LSTM)
        with pytest.raises(ShapeError):
            rnn.vjp_to_cut_and_state(tape.steps[0], CutVertex.PREACTIVATION,
                                     np.ones((3, 5)))
