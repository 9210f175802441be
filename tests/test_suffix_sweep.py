"""exact.suffix_rows: one reverse sweep over a (batched) tape that carries
suffix-summed adjoints gives each episode's causal suffix rows, which must
equal the suffix sums of the episode's own dense b
(helpers.episode_tensors_oracle), to roundoff;
and rnn.vjp_to_cut_and_state, the one pullback per step behind it, must
equal vjp_to_cut and vjp_state bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab import estimators, rnn, variance
from uorolab.errors import ShapeError
from uorolab.exact import suffix_rows
from uorolab.noise import episode_noises
from uorolab.rnn import CutVertex, run_episode
from uorolab.variance import (
    compute_B,
    compute_B_partial,
    compute_C,
    offline_total_estimate,
    predicted_VQ,
)

from helpers import (
    compute_C_oracle,
    episode_tensors_oracle,
    make_instance,
    minst_B,
    qr_B_oracle,
    suffix_sums,
    vjp_state,
)

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
        q, r = np.tril_indices(single.length)
        expected = suffix_sums(episode_tensors_oracle(single, cut).b)[q, r]
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
            tensors = episode_tensors_oracle(single, cut)
            rows = block.episode(j)
            np.testing.assert_array_equal(rows.a, tensors.a)
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
            tensors = episode_tensors_oracle(single, cut)
            for shape in (None, q0):
                assert_close(compute_C(block.episode(j), shape),
                             compute_C_oracle(tensors, single.steps, shape))

    @pytest.mark.parametrize("cell", CELLS)
    def test_B_of_an_episodes_rows(self, cell):
        tape = batched_tape(204, cell, batch=4)
        block = suffix_rows(tape, CutVertex.PREACTIVATION)
        alphas = np.random.default_rng(205).uniform(0.3, 3.0, (tape.length, 4))
        for j, single in enumerate(episodes(tape)):
            tensors = episode_tensors_oracle(single, CutVertex.PREACTIVATION)
            assert_close(compute_B(block.episode(j), alphas[:, j]),
                         qr_B_oracle(tensors, alphas[:, j]))

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_a_is_the_tapes_steps_a_uncopied(self, cell, cut):
        """SuffixRows.a is a view of the tape's steps.a, for a block and for
        episode(j), so the audit reads the inputs without a copy."""
        tape = batched_tape(216, cell)
        block = suffix_rows(tape, cut)
        assert np.shares_memory(block.a, tape.steps.a)
        np.testing.assert_array_equal(block.a, tape.steps.a)
        for j in range(tape.batch_shape[0]):
            rows = block.episode(j)
            assert np.shares_memory(rows.a, tape.steps.a)
            np.testing.assert_array_equal(rows.a, tape.steps.a[:, j])

    def test_block_rows_refused_where_one_episode_is_needed(self):
        """compute_C takes a block's rows (TestBlockC); the other readers of
        suffix rows take one episode's."""
        block = suffix_rows(batched_tape(206, rnn.LSTM), CutVertex.PREACTIVATION)
        ones = np.ones(block.length)
        u = np.ones((block.length, block.cut_dim))
        with pytest.raises(ShapeError):
            compute_B(block, ones)
        with pytest.raises(ShapeError):
            compute_B_partial(block, ones, 1)
        with pytest.raises(ShapeError):
            predicted_VQ(block, ones)
        with pytest.raises(ShapeError):
            offline_total_estimate(block, u, ones)
        with pytest.raises(ValueError, match="minst"):
            minst_B(block.episode(0), np.ones(block.length))
        with pytest.raises(ShapeError):
            block.episode(0).episode(0)


def spd(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return np.eye(n) + m @ m.T / n


def assert_block_C_is_each_episodes(tape, cut, blocks, q0):
    """compute_C of each block's rows, swept as training sweeps them into one
    reused rows buffer (so a ragged tail's rows are a strided view), is the
    (b, T, T) stack of the episodes' own calls, bit for bit."""
    buffer = None
    for a, b in blocks:
        rows = suffix_rows(tape.episode(slice(a, b)), cut,
                           out=None if buffer is None else buffer[:, : b - a])
        if buffer is None:
            buffer = rows.rows
        for shape in (None, q0):
            stack = compute_C(rows, shape)
            assert stack.shape == (b - a, tape.length, tape.length)
            for j in range(b - a):
                single = compute_C(rows.episode(j), shape)
                assert stack[j].tobytes() == single.tobytes(), (a, j, shape is None)


class TestBlockC:
    """compute_C of a block's suffix rows is one call per block in training;
    each slice of its stack is the episode's own call bit for bit."""

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_each_slice_is_the_episodes_call(self, cell, cut):
        params, inputs, targets, head = minibatch(220, cell)
        tape = run_episode(params, inputs, targets, head)
        assert_block_C_is_each_episodes(tape, cut, ((0, 6), (6, 8)),
                                        spd(params.cut_size(cut), 221))

    @pytest.mark.parametrize("cell,cut", [(rnn.LSTM, CutVertex.PREACTIVATION),
                                          (rnn.VANILLA_TANH, CutVertex.STATE)])
    def test_each_slice_is_the_episodes_call_at_the_digits_shape(self, cell, cut):
        """T = 28 and H = 50: N_z = 200 for the LSTM, as in the digits
        protocol, and 50 for the vanilla cell, where a product over several
        episodes' rows would round differently from the episode's own (at
        OpenBLAS's small-matrix threshold), so the block multiplies each
        episode's rows by Q0 alone."""
        params, inputs, targets, head = minibatch(222, cell, batch=10,
                                                  hidden=50, length=28)
        tape = run_episode(params, inputs, targets, head)
        assert_block_C_is_each_episodes(tape, cut, ((0, 8), (8, 10)),
                                        spd(params.cut_size(cut), 223))

    def test_a_block_of_one_is_the_episodes_call(self):
        tape = batched_tape(224, rnn.LSTM, batch=1)
        rows = suffix_rows(tape, CutVertex.PREACTIVATION)
        q0 = spd(rows.cut_dim, 225)
        assert (compute_C(rows, q0)[0].tobytes()
                == compute_C(rows.episode(0), q0).tobytes())

    def test_wrong_q0_shape_is_refused_before_any_work(self, monkeypatch):
        block = suffix_rows(batched_tape(226, rnn.LSTM), CutVertex.PREACTIVATION)
        n_z = block.cut_dim

        def forbidden(*args):
            raise AssertionError("work before the shape check")

        monkeypatch.setattr(variance, "_tril_indices", forbidden)
        monkeypatch.setattr(variance, "_theta_weights", forbidden)
        with pytest.raises(ShapeError, match=rf"\({n_z + 1}, {n_z + 1}\) != "
                                             rf"\({n_z}, {n_z}\)"):
            compute_C(block, np.eye(n_z + 1))

    def test_stack_is_fresh_per_call(self):
        block = suffix_rows(batched_tape(227, rnn.LSTM), CutVertex.PREACTIVATION)
        first = compute_C(block)
        kept = first.copy()
        second = compute_C(block)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() == second.tobytes()


# a minibatch of 8 in blocks of 3, with a ragged tail of 2 (a block of one
# episode would run its products as matrix-vector products, which may round
# differently from a row of a matrix product)
BLOCKS = ((0, 3), (3, 6), (6, 8))


def minibatch(seed, cell, batch=8, hidden=3, length=5):
    """(params, inputs (B, T, X), targets, head) of a minibatch."""
    rng = np.random.default_rng(seed)
    params, _, _, head = make_instance(rng, cell_kind=cell, hidden=hidden,
                                       length=length)
    inputs = rng.standard_normal((batch, length, params.input_size))
    targets = [[int(rng.integers(3)) for _ in range(length)] for _ in range(batch)]
    return params, inputs, targets, head


class TestMinibatchBlocks:
    """The exact training protocol runs one forward and one sketch over a
    minibatch but sweeps its suffix rows a block of episodes at a time, on
    views of the minibatch tape, into one reused rows buffer."""

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_rows_of_a_block_view_are_those_of_its_own_forward(self, cell, cut):
        params, inputs, targets, head = minibatch(210, cell)
        tape = run_episode(params, inputs, targets, head)
        buffer = None
        for a, b in BLOCKS:
            own = suffix_rows(run_episode(params, inputs[a:b], targets[a:b], head), cut)
            view = suffix_rows(tape.episode(slice(a, b)), cut)
            if buffer is None:
                buffer = np.full(view.rows.shape, np.nan)
            reused = suffix_rows(tape.episode(slice(a, b)), cut,
                                 out=buffer[:, : b - a])
            for rows in (view, reused):
                np.testing.assert_array_equal(rows.rows, own.rows)
                np.testing.assert_array_equal(rows.a_norms, own.a_norms)
                if cut == CutVertex.STATE:
                    np.testing.assert_array_equal(rows.d, own.d)
            assert np.shares_memory(reused.rows, buffer)

    def test_rows_buffer_of_another_shape_is_refused(self):
        tape = batched_tape(211, rnn.LSTM, batch=3)
        rows = suffix_rows(tape, CutVertex.PREACTIVATION)
        with pytest.raises(ShapeError, match="rows buffer"):
            suffix_rows(tape.episode(slice(0, 2)), CutVertex.PREACTIVATION,
                        out=rows.rows)

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    def test_one_sketch_call_matches_a_call_per_block(self, cell, cut):
        """Each row of one fixed-alpha run_uoro over the minibatch, under
        one Q0 and an alpha column per episode, is the row of the block's
        own run on its own forward, to relative 1e-12, tails of two and of
        one episode included."""
        params, inputs, targets, head = minibatch(212, cell, batch=9)
        tape = run_episode(params, inputs, targets, head)
        n_z = params.cut_size(cut)
        rng = np.random.default_rng(213)
        q0 = np.eye(n_z) + 0.4 * rng.standard_normal((n_z, n_z)) / np.sqrt(n_z)
        alphas = rng.uniform(0.5, 2.0, (tape.length, 9))
        base = estimators.ScalingSchedule(estimators.GIR, Q0=q0)
        noises = episode_noises(214, range(9), tape.length, n_z)
        whole = estimators.run_uoro(tape, cut, noises, base.with_alpha(alphas))
        for a, b in (*BLOCKS, (8, 9)):
            own = run_episode(params, inputs[a:b], targets[a:b], head)
            block = estimators.run_uoro(own, cut, noises[a:b],
                                        base.with_alpha(alphas[:, a:b]))
            for j in range(b - a):
                reference = block.estimate[j]
                error = np.abs(whole.estimate[a + j] - reference).max()
                assert error <= RTOL * np.abs(reference).max()


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
        np.testing.assert_array_equal(to_state, vjp_state(cache, v))

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    @pytest.mark.parametrize("rows_shape", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("alias", [False, True], ids=["fresh", "over-v"])
    def test_out_equals_the_call_without_out_bit_for_bit(self, cell, cut,
                                                         rows_shape, alias):
        """With out=, the results are written into the pair given, a fresh
        one or one whose state rows are v itself (as the sweep passes its
        live rows), bit for bit those of the call without out."""
        tape = batched_tape(207, cell)
        rng = np.random.default_rng(208)
        cache = tape.steps[2]
        v = rng.standard_normal((*rows_shape, *cache.batch_shape,
                                 tape.params.state_size))
        to_cut, to_state = rnn.vjp_to_cut_and_state(cache, cut, v)
        rows = v.copy()
        out = (np.full(to_cut.shape, np.nan),
               rows if alias else np.full(to_state.shape, np.nan))
        written = rnn.vjp_to_cut_and_state(cache, cut, rows, out=out)
        assert written[0] is out[0] and written[1] is out[1]
        assert written[0].tobytes() == to_cut.tobytes()
        assert written[1].tobytes() == to_state.tobytes()
        if not alias:
            assert rows.tobytes() == v.tobytes()

    @pytest.mark.parametrize("cell,cut", CELL_CUTS)
    @pytest.mark.parametrize("batch", [None, 3])
    def test_sweep_rows_equal_a_replay_without_out(self, cell, cut, batch):
        """suffix_rows, whose sweep pulls back in place, gives bit for bit
        the rows of a per-step replay through the calls without out=."""
        tape = batched_tape(215, cell, batch=batch, length=6)
        t_len = tape.length
        deltas = np.zeros((t_len, *tape.batch_shape, tape.params.state_size))
        expected = np.empty((t_len * (t_len + 1) // 2, *tape.batch_shape,
                             tape.params.cut_size(cut)))
        for s in range(t_len - 1, -1, -1):
            deltas[s] = tape.loss_grad_full(s)
            if s + 1 < t_len:
                deltas[s] += deltas[s + 1]
            if s:
                g, deltas[s:] = rnn.vjp_to_cut_and_state(tape.steps[s], cut,
                                                         deltas[s:])
            else:
                g = rnn.vjp_to_cut(tape.steps[0], cut, deltas)
            q = np.arange(s, t_len)
            expected[q * (q + 1) // 2 + s] = g
        assert suffix_rows(tape, cut).rows.tobytes() == expected.tobytes()

    def test_checks_the_rows(self):
        tape = batched_tape(209, rnn.LSTM)
        with pytest.raises(ShapeError):
            rnn.vjp_to_cut_and_state(tape.steps[0], CutVertex.PREACTIVATION,
                                     np.ones((3, 5)))
