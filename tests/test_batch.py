"""The batch-first engine: B episodes of a batched tape, or B seeds on one
tape, advanced in one call must give row by row what per-episode calls and
batches of one give, and what the offline formula gives from the episode's
adjoint tensors."""

import numpy as np
import pytest

from uorolab import exact, rnn, training
from uorolab.config import ExperimentConfig, queue_config
from uorolab.errors import ShapeError, SingularMatrixError
from uorolab.estimators import (
    CONTRIBUTION_SPLIT,
    CONTRIBUTION_STALE_W,
    FIXED_ALPHA,
    GIR,
    ScalingSchedule,
    reinforce_episode,
    run_preuoro,
    run_spatial,
    run_uoro,
)
from uorolab.exact import bptt_gradient, episode_tensors
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import BernoulliHead, CutVertex, RnnParams, run_episode
from uorolab.variance import estimate_B_online, offline_total_estimate

from helpers import (ConstantHead, episode_tensors_oracle, forbid_steps,
                     make_instance, reinforce_by_definition, row_rel,
                     spatial_by_definition)

RTOL = 1e-12


def rel(value, reference):
    return np.linalg.norm(value - reference) / max(np.linalg.norm(reference), 1e-300)


def softmax_batch(rng, cell=rnn.VANILLA_TANH, batch=3, length=6, hidden=4):
    """B episodes with per-step class targets; some steps of some episodes
    are unsupervised, so a step's mask differs across the batch."""
    params, _, _, head = make_instance(rng, cell_kind=cell, hidden=hidden,
                                       length=length)
    inputs = rng.standard_normal((batch, length, params.input_size))
    targets = [[None if (t + b) % 4 == 0 else int(rng.integers(3))
                for t in range(length)] for b in range(batch)]
    return params, inputs, targets, head


def queue_batch(rng, batch=3, length=7, hidden=5):
    params = RnnParams(
        0.6 * rng.standard_normal((hidden, hidden + 2)) / np.sqrt(hidden + 2),
        rnn.VANILLA_TANH, hidden, 1,
    )
    inputs = rng.integers(0, 2, size=(batch, length, 1)).astype(float)
    head = BernoulliHead(0.4 * rng.standard_normal((1, hidden + 1)))
    targets = [[None if t < 2 else np.array([inputs[b, t - 2, 0]])
                for t in range(length)] for b in range(batch)]
    return params, inputs, targets, head


def singles(params, inputs, targets, head):
    return [run_episode(params, inputs[b], targets[b], head)
            for b in range(inputs.shape[0])]


def head_grads(tape, head):
    """Summed head gradient of each episode, from per-step param_grad."""
    return sum(head.param_grad(tape.steps.h[t], tape.targets[t])
               for t in range(tape.length))


def alpha_of(report):
    """beta_s gamma_{s+1} ... gamma_T, row by row, recomputed directly."""
    gammas, betas = report.realized_gamma, report.realized_beta
    return np.stack([betas[s] * np.prod(gammas[s + 1:], axis=0)
                     for s in range(len(betas))])


def preuoro_offline(tensors, tau, alpha):
    """The projection-free sketch is the sum of the rank-one sketches driven
    by tau_s e_i over the spatial basis e_i."""
    return sum(offline_total_estimate(tensors, np.outer(tau, e), alpha)
               for e in np.eye(tensors.cut_dim))


def assert_forward_matches(params, inputs, targets, head):
    tape = run_episode(params, inputs, targets, head)
    assert tape.batch_shape == (inputs.shape[0],)
    grads = head_grads(tape, head)
    for b, single in enumerate(singles(params, inputs, targets, head)):
        sliced = tape.episode(b)
        for t in range(tape.length):
            mine, ref = sliced.steps[t], single.steps[t]
            arrays = {name for name, x in vars(ref).items()
                      if isinstance(x, np.ndarray)}
            assert arrays == {name for name, x in vars(mine).items()
                              if isinstance(x, np.ndarray)}
            for name in arrays:  # the LSTM's cell c and gate arrays included
                np.testing.assert_allclose(getattr(mine, name), getattr(ref, name),
                                           rtol=RTOL, atol=1e-15)
        np.testing.assert_allclose(tape.losses[:, b], single.losses, rtol=RTOL, atol=1e-15)
        np.testing.assert_allclose(tape.loss_grads[:, b], single.loss_grads,
                                   rtol=RTOL, atol=1e-15)
        assert tape.total_loss()[b] == pytest.approx(single.total_loss(), rel=RTOL)
        np.testing.assert_allclose(grads[b], head_grads(single, head),
                                   rtol=RTOL, atol=1e-15)


class TestForwardAndLosses:
    def test_forward_matches_per_episode(self):
        rng = np.random.default_rng(120)
        for cell in (rnn.VANILLA_TANH, rnn.LSTM):
            assert_forward_matches(*softmax_batch(rng, cell=cell))

    def test_bernoulli_losses_match(self):
        assert_forward_matches(*queue_batch(np.random.default_rng(121)))

    def test_softmax_losses_match(self):
        rng = np.random.default_rng(122)
        params, inputs, targets, head = softmax_batch(rng, batch=4, length=5)
        assert_forward_matches(params, inputs, targets, head)
        # a step with no supervised episode contributes nothing
        tape = run_episode(params, inputs, [[None] * 5] * 4, head)
        assert np.all(tape.losses == 0.0) and np.all(tape.loss_grads == 0.0)

    def test_target_count_must_match_inputs(self):
        params, inputs, targets, head = softmax_batch(np.random.default_rng(124))
        forms = [
            (inputs[0], targets[0] + [1, 2, 0], r"\(T,\) = \(6,\)"),
            (inputs[0], targets[0][:5], r"\(T,\) = \(6,\)"),
            (inputs, targets[:2], r"\(B, T\) = \(3, 6\)"),
            (inputs, targets[:2] + [targets[2][:4]], r"\(B, T\) = \(3, 6\)"),
            (inputs, targets[0], r"\(B, T\) = \(3, 6\)"),
        ]
        for episode_inputs, episode_targets, match in forms:
            with pytest.raises(ShapeError, match=match):
                run_episode(params, episode_inputs, episode_targets, head)

    def test_batched_step_checks_shapes(self):
        params = RnnParams(np.zeros((3, 6)), rnn.VANILLA_TANH, 3, 2)
        with pytest.raises(ShapeError):
            rnn.step(params, np.zeros((4, 3)), np.zeros((5, 2)))

    def test_per_episode_engines_refuse_a_batched_tape(self):
        params, inputs, targets, head = softmax_batch(np.random.default_rng(123))
        tape = run_episode(params, inputs, targets, head)
        with pytest.raises(ShapeError):
            episode_tensors(tape, CutVertex.PREACTIVATION)


CONFIGS = [
    (rnn.VANILLA_TANH, CutVertex.PREACTIVATION),
    (rnn.VANILLA_TANH, CutVertex.STATE),
    (rnn.LSTM, CutVertex.PREACTIVATION),
]


def schedule_for(mode, length, rng, q0=None):
    if mode == "gir":
        return ScalingSchedule(GIR, Q0=q0)
    alpha = np.ones(length) if mode == "ones" else rng.uniform(0.5, 2.0, length)
    return ScalingSchedule(FIXED_ALPHA, Q0=q0, alpha=alpha)


def general_q0(rng, n):
    """A well-conditioned Q0 that is not symmetric, so Q0 and Q0^T differ."""
    return rng.standard_normal((n, n)) + 3.0 * np.eye(n)


class TestGradientKernels:
    def test_bptt_batch_matches(self):
        rng = np.random.default_rng(124)
        for cell in (rnn.VANILLA_TANH, rnn.LSTM):
            params, inputs, targets, head = softmax_batch(rng, cell=cell)
            grads = bptt_gradient(run_episode(params, inputs, targets, head)).g
            for b, single in enumerate(singles(params, inputs, targets, head)):
                one = run_episode(params, inputs[b:b + 1], targets[b:b + 1], head)
                tensors = episode_tensors_oracle(single, CutVertex.PREACTIVATION)
                assert rel(grads[b], bptt_gradient(single).g) <= RTOL
                assert rel(grads[b], bptt_gradient(one).g[0]) <= RTOL
                assert rel(grads[b], tensors.total_gradient()) <= RTOL

    @pytest.mark.parametrize("mode", ["gir", "fixed", "ones"])
    def test_uoro_batch_matches(self, mode):
        rng = np.random.default_rng(125)
        for cell, cut in CONFIGS:
            for use_q0 in (False, True):
                params, inputs, targets, head = softmax_batch(rng, cell=cell)
                n_z = params.cut_size(cut)
                schedule = schedule_for(mode, 6, rng,
                                        general_q0(rng, n_z) if use_q0 else None)
                noises = episode_noises(7, range(3), 6, n_z)
                tape = run_episode(params, inputs, targets, head)
                report = run_uoro(tape, cut, noises, schedule)
                alpha = alpha_of(report)
                for b, single in enumerate(singles(params, inputs, targets, head)):
                    ref = run_uoro(single, cut, noises[b], schedule).estimate
                    one = run_uoro(tape.episode(b), cut, noises[b:b + 1],
                                   schedule).estimate
                    offline = offline_total_estimate(
                        episode_tensors(single, cut), noises[b].u, alpha[:, b],
                        schedule.Q0)
                    where = f"{cell}/{cut.value}/Q0={use_q0}/episode {b}"
                    assert rel(report.estimate[b], ref) <= RTOL, where
                    assert rel(report.estimate[b], one[0]) <= RTOL, where
                    assert rel(report.estimate[b], offline) <= RTOL, where

    @pytest.mark.parametrize("contribution", [CONTRIBUTION_STALE_W, CONTRIBUTION_SPLIT])
    def test_uoro_contribution_modes_match(self, contribution):
        rng = np.random.default_rng(126)
        for cell, cut in CONFIGS:
            params, inputs, targets, head = softmax_batch(rng, cell=cell)
            noises = episode_noises(8, range(3), 6, params.cut_size(cut))
            tape = run_episode(params, inputs, targets, head)
            schedule = ScalingSchedule(GIR)
            batched = run_uoro(tape, cut, noises, schedule, contribution).estimate
            for b, single in enumerate(singles(params, inputs, targets, head)):
                ref = run_uoro(single, cut, noises[b], schedule, contribution).estimate
                one = run_uoro(tape.episode(b), cut, noises[b:b + 1], schedule,
                               contribution).estimate
                assert rel(batched[b], ref) <= RTOL
                assert rel(batched[b], one[0]) <= RTOL

    @pytest.mark.parametrize("mode", ["gir", "fixed", "ones"])
    def test_preuoro_batch_matches(self, mode):
        rng = np.random.default_rng(127)
        for cell in (rnn.VANILLA_TANH, rnn.LSTM):
            params, inputs, targets, head = softmax_batch(rng, cell=cell)
            noises = episode_noises(9, range(3), 6, params.preactivation_size)
            schedule = schedule_for(mode, 6, rng)
            tape = run_episode(params, inputs, targets, head)
            report = run_preuoro(tape, noises, schedule)
            alpha = alpha_of(report)
            for b, single in enumerate(singles(params, inputs, targets, head)):
                ref = run_preuoro(single, noises[b], schedule).estimate
                one = run_preuoro(tape.episode(b), noises[b:b + 1], schedule).estimate
                offline = preuoro_offline(
                    episode_tensors(single, CutVertex.PREACTIVATION),
                    noises[b].tau, alpha[:, b])
                assert rel(report.estimate[b], ref) <= RTOL, f"{cell}/{b}"
                assert rel(report.estimate[b], one[0]) <= RTOL, f"{cell}/{b}"
                assert rel(report.estimate[b], offline) <= RTOL, f"{cell}/{b}"


class TestPerRowAlpha:
    """A (T, B) alpha gives row j of a batched run the schedule of column j:
    the rows equal single-episode runs under with_alpha(alpha[:, j])."""

    def test_uoro_rows_match_single_episode_schedules(self):
        rng = np.random.default_rng(130)
        for cell, cut in CONFIGS:
            for use_q0 in (False, True):
                params, inputs, targets, head = softmax_batch(rng, cell=cell)
                n_z = params.cut_size(cut)
                base = ScalingSchedule(GIR, Q0=general_q0(rng, n_z) if use_q0 else None)
                alpha = rng.uniform(0.5, 2.0, (6, 3))
                schedule = base.with_alpha(alpha)
                noises = episode_noises(10, range(3), 6, n_z)
                report = run_uoro(run_episode(params, inputs, targets, head), cut,
                                  noises, schedule)
                for b, single in enumerate(singles(params, inputs, targets, head)):
                    column = base.with_alpha(alpha[:, b])
                    for t in range(6):  # gamma_0 is the scalar 1 for every row
                        for mine, theirs in zip(schedule.fixed_coefficients(t),
                                                column.fixed_coefficients(t)):
                            assert np.broadcast_to(mine, (3,))[b] == theirs
                    ref = run_uoro(single, cut, noises[b], column)
                    where = f"{cell}/{cut.value}/Q0={use_q0}/episode {b}"
                    assert rel(report.estimate[b], ref.estimate) <= RTOL, where
                    np.testing.assert_allclose(report.realized_beta[:, b],
                                               ref.realized_beta, rtol=RTOL)
                    np.testing.assert_allclose(report.realized_gamma[:, b],
                                               ref.realized_gamma, rtol=RTOL)

    def test_preuoro_rows_match_single_episode_schedules(self):
        rng = np.random.default_rng(131)
        params, inputs, targets, head = softmax_batch(rng, cell=rnn.LSTM)
        alpha = rng.uniform(0.5, 2.0, (6, 3))
        noises = episode_noises(11, range(3), 6, params.preactivation_size)
        report = run_preuoro(run_episode(params, inputs, targets, head), noises,
                             ScalingSchedule(GIR).with_alpha(alpha))
        for b, single in enumerate(singles(params, inputs, targets, head)):
            ref = run_preuoro(single, noises[b],
                              ScalingSchedule(GIR).with_alpha(alpha[:, b]))
            assert rel(report.estimate[b], ref.estimate) <= RTOL, f"episode {b}"

    def test_alpha_rows_must_match_the_batch(self):
        rng = np.random.default_rng(132)
        params, inputs, targets, head = softmax_batch(rng)
        tape = run_episode(params, inputs, targets, head)
        noises = episode_noises(12, range(3), 6, 4)
        schedule = ScalingSchedule(GIR).with_alpha(np.ones((6, 2)))
        with pytest.raises(ShapeError, match=r"\(6, 2\).*\(3,\)"):
            run_uoro(tape, CutVertex.PREACTIVATION, noises, schedule)
        with pytest.raises(ShapeError, match=r"\(6, 2\).*\(3,\)"):
            run_preuoro(tape, noises, schedule)
        with pytest.raises(ShapeError, match=r"\(6, 2\).*\(\)"):
            run_uoro(tape.episode(0), CutVertex.PREACTIVATION, noises[0], schedule)


class TestSeedsOnOneTape:
    @pytest.mark.parametrize("mode", ["gir", "fixed"])
    def test_seed_rows_match_per_seed_runs(self, mode):
        rng = np.random.default_rng(128)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=5)
        tape = run_episode(params, inputs, targets, head)
        tensors = episode_tensors(tape, CutVertex.PREACTIVATION)
        noises = episode_noises(31, range(6), 5, 3)
        for q0 in (None, general_q0(rng, 3)):
            schedule = schedule_for(mode, 5, rng, q0)
            report = run_uoro(tape, CutVertex.PREACTIVATION, noises, schedule)
            alpha = alpha_of(report)
            for i, noise in enumerate(noises):
                ref = run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule)
                offline = offline_total_estimate(tensors, noise.u, alpha[:, i], q0)
                assert rel(report.estimate[i], ref.estimate) <= RTOL
                assert rel(report.estimate[i], offline) <= RTOL
        schedule = schedule_for(mode, 5, rng)
        report = run_preuoro(tape, noises, schedule)
        alpha = alpha_of(report)
        for i, noise in enumerate(noises):
            ref = run_preuoro(tape, noise, schedule).estimate
            assert rel(report.estimate[i], ref) <= RTOL
            assert rel(report.estimate[i],
                       preuoro_offline(tensors, noise.tau, alpha[:, i])) <= RTOL

    def test_measure_estimator_blocks_match_per_seed_runs(self):
        rng = np.random.default_rng(129)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        config = ExperimentConfig(hidden=3, base_seed=41)
        n_seeds = training.SEED_BLOCK + 5  # two blocks, the second partial
        schedule = ScalingSchedule(GIR)
        for estimator, run in (
            ("uoro", lambda n: run_uoro(tape, CutVertex.PREACTIVATION, n, schedule)),
            ("preuoro", lambda n: run_preuoro(tape, n, schedule)),
        ):
            rows = training.measure_estimator(config, params, tape, None, estimator,
                                              schedule, n_seeds, seed_offset=3)
            for i in (0, training.SEED_BLOCK - 1, n_seeds - 1):
                ref = run(episode_noise(41, 3 + i, 4, 3)).estimate
                assert rel(rows[i], ref) <= RTOL, f"{estimator} seed {i}"


class TestSpatialBlocks:
    """run_spatial takes a NoiseBlock: B seeds on one tape share one backward
    sweep, so each row equals the call on its view bit for bit.  On a
    batched tape row j runs episode j in one sweep of the B episodes, whose
    rows equal the one-episode calls to relative 1e-12."""

    @pytest.mark.parametrize("cell,cut", [
        (rnn.VANILLA_TANH, CutVertex.PREACTIVATION),
        (rnn.VANILLA_TANH, CutVertex.STATE),
        (rnn.LSTM, CutVertex.PREACTIVATION)])
    def test_seeds_on_one_tape_equal_views(self, monkeypatch, cell, cut):
        rng = np.random.default_rng(141)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell,
                                                      hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        noises = episode_noises(142, range(5, 9), 4, params.cut_size(cut))
        views = [run_spatial(tape, cut, noise).estimate for noise in noises]
        sweeps = []
        sweep = exact.cut_adjoints
        monkeypatch.setattr(exact, "cut_adjoints",
                            lambda *args: sweeps.append(1) or sweep(*args))
        report = run_spatial(tape, cut, noises)
        assert len(sweeps) == 1  # one backward sweep, shared by the seeds
        assert report.estimate.shape == (4, params.num_params)
        assert report.episode_index == noises.indices
        for j, view in enumerate(views):
            np.testing.assert_array_equal(report.estimate[j], view)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_batched_tape_rows_equal_episode_views(self, cell):
        """Bit for bit at this size only: the sweep's pullback is a matrix
        product over the B rows of a batched tape and a matrix-vector
        product for one episode, which OpenBLAS rounds alike at H = 3 but
        not from a cut dimension of 4 on.  The case at H = 8 below holds
        the rows to relative 1e-12 instead."""
        rng = np.random.default_rng(143)
        params, inputs, targets, head = softmax_batch(rng, cell=cell, batch=3,
                                                      length=5, hidden=3)
        tape = run_episode(params, inputs, targets, head)
        cut = CutVertex.PREACTIVATION
        noises = episode_noises(144, range(3), 5, params.cut_size(cut))
        report = run_spatial(tape, cut, noises)
        for j in range(3):
            np.testing.assert_array_equal(
                report.estimate[j],
                run_spatial(tape.episode(j), cut, noises[j]).estimate)

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_batched_tape_rows_equal_episode_views_at_h8(self, cell):
        rng = np.random.default_rng(150)
        params, inputs, targets, head = softmax_batch(rng, cell=cell, batch=3,
                                                      length=5, hidden=8)
        tape = run_episode(params, inputs, targets, head)
        cut = CutVertex.PREACTIVATION
        noises = episode_noises(151, range(3), 5, params.cut_size(cut))
        report = run_spatial(tape, cut, noises)
        for j in range(3):
            view = run_spatial(tape.episode(j), cut, noises[j]).estimate
            assert row_rel(report.estimate[j], view) <= RTOL

    @pytest.mark.parametrize("cell,cut", [
        (rnn.VANILLA_TANH, CutVertex.STATE),
        (rnn.VANILLA_TANH, CutVertex.PREACTIVATION),
        (rnn.LSTM, CutVertex.PREACTIVATION)])
    def test_matches_the_dense_recursion(self, cell, cut):
        """The backward sweep gives the estimate of the dense influence
        recursion on one episode, on a batched tape with one noise per
        episode, and for a block of seeds on one tape."""
        rng = np.random.default_rng(147)
        params, inputs, targets, head = softmax_batch(rng, cell=cell, batch=3,
                                                      length=5, hidden=4)
        batched = run_episode(params, inputs, targets, head)
        n_z = params.cut_size(cut)
        cases = [(batched.episode(1), episode_noise(148, 0, 5, n_z)),
                 (batched, episode_noises(148, range(3), 5, n_z)),
                 (batched.episode(0), episode_noises(149, range(4), 5, n_z))]
        for tape, noise in cases:
            estimate = run_spatial(tape, cut, noise).estimate
            reference = spatial_by_definition(tape, cut, noise)
            assert estimate.shape == reference.shape
            assert row_rel(estimate, reference) <= RTOL

    def test_noise_dim_mismatch_raises_before_the_sweep(self, monkeypatch):
        rng = np.random.default_rng(145)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=4)
        tape = run_episode(params, inputs, targets, head)
        forbid_steps(monkeypatch)
        for noise in (episode_noise(146, 0, 4, 1), episode_noises(146, range(2), 4, 1)):
            with pytest.raises(ShapeError, match="noise dim 1 != cut dim 3"):
                run_spatial(tape, CutVertex.PREACTIVATION, noise)

    def test_training_and_measure_make_one_call_per_block(self, monkeypatch):
        """A spatial minibatch and measure_estimator's spatial arm call
        run_spatial once per batch or per NoiseBlock of SEED_BLOCK seeds."""
        calls = []
        monkeypatch.setattr(training, "run_spatial",
                            lambda *args: calls.append(args) or run_spatial(*args))
        config = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                                  estimator="spatial", minibatch=4, updates=2,
                                  num_seeds=training.SEED_BLOCK + 3)
        training.run_training(config)
        assert [len(args[2]) for args in calls] == [4, 4]
        calls.clear()
        params, tape = training.build_report_instance(config)
        training.measure_estimator(config, params, tape, None, "spatial",
                                   ScalingSchedule(GIR), config.num_seeds)
        assert [len(args[2]) for args in calls] == [training.SEED_BLOCK, 3]


class TestNoiseBlocks:
    """A sub-block of a larger block, and the EpisodeNoise view of one of its
    columns, drive the estimators exactly as a fresh block or episode_noise
    of the same indices do: same draws, so the same bits out."""

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_sub_blocks_and_views_equal_fresh_noise(self, cell):
        rng = np.random.default_rng(130)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=3,
                                                      length=5)
        tape = run_episode(params, inputs, targets, head)
        n_z = params.preactivation_size
        runs = [
            (lambda n: run_uoro(tape, CutVertex.PREACTIVATION, n,
                                ScalingSchedule(GIR)), n_z),
            (lambda n: run_preuoro(tape, n, ScalingSchedule(GIR)), n_z),
            (lambda n: reinforce_episode(params, inputs, targets, head, SIGMA, n),
             params.hidden_size),
        ]
        for run, dim in runs:
            root = episode_noises(61, range(12), 5, dim, "gaussian")
            pairs = [(root[2:9], episode_noises(61, range(2, 9), 5, dim, "gaussian")),
                     (root[2:9][3], episode_noise(61, 5, 5, dim, "gaussian"))]
            for noise, fresh in pairs:
                a, b = run(noise), run(fresh)
                assert np.array_equal(a.estimate, b.estimate)
                assert (a.base_seed, a.episode_index) == (b.base_seed, b.episode_index)
                if a.realized_gamma is not None:
                    assert np.array_equal(a.realized_gamma, b.realized_gamma)


SIGMA = 1e-3
# The 1/sigma score amplifies roundoff in L_t - baseline_t, so reinforce rows
# are held to this fraction of the largest entry rather than to RTOL.
REINFORCE_RTOL = 1e-10


def max_entry_rel(value, reference):
    return np.max(np.abs(value - reference)) / max(np.max(np.abs(reference)), 1e-300)


def spd_q0(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + 2.0 * np.eye(n)


def reinforce_baselines(kind, rng, length, batch):
    """(the batched call's baseline, row j -> the per-row call's baseline,
    row j -> the by-definition baseline, None for noise-free)."""
    if kind == "noise-free":
        return kind, lambda j: kind, lambda j: None
    if kind == "none":
        return kind, lambda j: kind, lambda j: np.zeros(length)
    if kind == "steps":
        values = rng.standard_normal(length)
        return values, lambda j: values, lambda j: values
    values = rng.standard_normal((length, batch))
    return values, lambda j: values[:, j], lambda j: values[:, j]


def one_row(baseline):
    """A per-row baseline as the baseline of a batch of one."""
    return baseline[:, None] if np.ndim(baseline) == 1 else baseline


class TestReinforceBatch:
    """reinforce_episode over B seeds on one episode, or over B episodes:
    every row equals the per-seed call, a batch of one and the estimate by
    its definition (a dense score accumulated step by step) to
    REINFORCE_RTOL of its largest entry."""

    def assert_rows(self, batched, refs):
        for name, ref in refs.items():
            err = max_entry_rel(batched, ref)
            assert err <= REINFORCE_RTOL, f"{name}: {err:.2e}"

    @pytest.mark.parametrize("baseline", ["noise-free", "none", "steps", "rows"])
    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_seed_rows_match_per_seed_calls(self, cell, baseline):
        rng = np.random.default_rng(150)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=4,
                                                      length=6)
        noises = episode_noises(151, range(5), 6, 4)
        batched_baseline, row_baseline, oracle_baseline = reinforce_baselines(
            baseline, rng, 6, 5)
        for q0 in (None, np.eye(4), spd_q0(rng, 4)):
            report = reinforce_episode(params, inputs, targets, head, SIGMA, noises,
                                       Q0=q0, baseline=batched_baseline)
            assert report.estimate.shape == (5, params.num_params)
            assert report.base_seed == (151,) * 5
            for i, noise in enumerate(noises):
                b = row_baseline(i)
                self.assert_rows(report.estimate[i], {
                    "per-seed": reinforce_episode(params, inputs, targets, head, SIGMA,
                                                  noise, Q0=q0, baseline=b).estimate,
                    "batch of one": reinforce_episode(
                        params, inputs, targets, head, SIGMA, noises[i:i + 1], Q0=q0,
                        baseline=b if isinstance(b, str) else one_row(b)).estimate[0],
                    "definition": reinforce_by_definition(
                        params, inputs, targets, head, SIGMA, noise.u, q0,
                        oracle_baseline(i)),
                })

    @pytest.mark.parametrize("baseline", ["noise-free", "none", "steps", "rows"])
    @pytest.mark.parametrize("instance", ["vanilla", "lstm", "queue"])
    def test_episode_rows_match_per_episode_calls(self, instance, baseline):
        rng = np.random.default_rng(152)
        if instance == "queue":
            params, inputs, targets, head = queue_batch(rng)
        else:
            cell = rnn.LSTM if instance == "lstm" else rnn.VANILLA_TANH
            params, inputs, targets, head = softmax_batch(rng, cell=cell)
        batch, length = inputs.shape[:2]
        h = params.hidden_size
        noises = episode_noises(153, range(batch), length, h)
        batched_baseline, row_baseline, oracle_baseline = reinforce_baselines(
            baseline, rng, length, batch)
        for q0 in (None, spd_q0(rng, h)):
            report = reinforce_episode(params, inputs, targets, head, SIGMA, noises,
                                       Q0=q0, baseline=batched_baseline)
            if baseline == "noise-free":  # the training path's baseline
                tape = run_episode(params, inputs, targets, head)
                self.assert_rows(report.estimate, {"tape losses": reinforce_episode(
                    params, inputs, targets, head, SIGMA, noises, Q0=q0,
                    baseline=tape.losses).estimate})
            for j, noise in enumerate(noises):
                b = row_baseline(j)
                self.assert_rows(report.estimate[j], {
                    "per-episode": reinforce_episode(
                        params, inputs[j], targets[j], head, SIGMA, noise, Q0=q0,
                        baseline=b).estimate,
                    "batch of one": reinforce_episode(
                        params, inputs[j:j + 1], targets[j:j + 1], head, SIGMA,
                        noises[j:j + 1], Q0=q0,
                        baseline=b if isinstance(b, str) else one_row(b)).estimate[0],
                    "definition": reinforce_by_definition(
                        params, inputs[j], targets[j], head, SIGMA, noise.u, q0,
                        oracle_baseline(j)),
                })

    def test_custom_head_with_a_scalar_loss(self):
        rng = np.random.default_rng(154)
        params, inputs, targets, _ = make_instance(rng, hidden=3, length=4)
        noises = episode_noises(155, range(4), 4, 3)
        head = ConstantHead()
        clean = reinforce_episode(params, inputs, targets, head, 0.5, noises)
        np.testing.assert_array_equal(clean.estimate, 0.0)
        report = reinforce_episode(params, inputs, targets, head, 0.5, noises,
                                   baseline="none")
        assert np.all(np.any(report.estimate != 0.0, axis=1))
        for i, noise in enumerate(noises):
            self.assert_rows(report.estimate[i], {
                "per-seed": reinforce_episode(params, inputs, targets, head, 0.5, noise,
                                              baseline="none").estimate,
                "definition": reinforce_by_definition(params, inputs, targets, head,
                                                      0.5, noise.u,
                                                      baseline=np.zeros(4)),
            })

    @pytest.mark.parametrize("case, error, match", [
        ("sigma", ValueError, "sigma"),
        ("sigma nan", ValueError, "sigma must be finite and positive"),
        ("sigma inf", ValueError, "sigma must be finite and positive"),
        ("noise dim", ShapeError, "noise dim"),
        ("noise length", ShapeError, "steps"),
        ("Q0 size", ShapeError, "Q0"),
        ("Q0 singular", SingularMatrixError, "condition"),
        ("baseline shape", ShapeError, "baseline"),
        ("baseline mode", ValueError, "baseline"),
        ("episodes", ShapeError, "episodes"),
        ("targets", ShapeError, r"\(B, T\) = \(3, 6\)"),
    ])
    def test_rejects_bad_inputs_before_a_step(self, monkeypatch, case, error, match):
        rng = np.random.default_rng(156)
        params, inputs, targets, head = softmax_batch(rng)
        noises = episode_noises(157, range(3), 6, 4)
        kwargs = {"sigma": SIGMA, "noise": noises}
        if case.startswith("sigma"):
            kwargs["sigma"] = {"sigma": 0.0, "sigma nan": np.nan,
                               "sigma inf": np.inf}[case]
        elif case == "noise dim":
            kwargs["noise"] = episode_noises(157, range(3), 6, 5)
        elif case == "noise length":
            kwargs["noise"] = episode_noises(157, range(3), 5, 4)
        elif case == "Q0 size":
            kwargs["Q0"] = np.eye(3)
        elif case == "Q0 singular":
            kwargs["Q0"] = np.diag([1.0, 1.0, 1.0, 1e-12])
        elif case == "baseline shape":
            kwargs["baseline"] = np.zeros((6, 4))
        elif case == "baseline mode":
            kwargs["baseline"] = "mean"
        elif case == "targets":
            targets = targets[:2]
        else:
            kwargs["noise"] = noises[:2]
        forbid_steps(monkeypatch)
        with pytest.raises(error, match=match):
            reinforce_episode(params, inputs, targets, head, **kwargs)


@pytest.fixture(scope="module")
def criterion_11_minibatch():
    """Update 0 of the criterion-11 queue protocol at base_seed=2: vanilla
    H=50, T=24, B=100, orthogonal initialization."""
    cfg = queue_config("both", stream_length=24, updates=1, base_seed=2,
                       data_seed=1001)
    task = training.build_task(cfg)
    rng = np.random.default_rng(cfg.base_seed)
    params = rnn.init_params(cfg.cell, cfg.hidden, task.input_size, rng)
    head = task.make_head(rng)
    episodes = [task.episode(cfg.data_seed, j) for j in range(cfg.minibatch)]
    tape = run_episode(params, np.stack([e[0] for e in episodes]),
                       [e[1] for e in episodes], head)
    noises = episode_noises(cfg.base_seed, range(cfg.minibatch), 24, 50)
    return tape, noises


class TestCriterion11Minibatch:
    @pytest.mark.parametrize("arm", ["temporal", "both"])
    def test_batch_equals_per_episode_equals_offline(self, criterion_11_minibatch, arm):
        tape, noises = criterion_11_minibatch
        schedule = ScalingSchedule(GIR)
        cut = CutVertex.PREACTIVATION
        if arm == "both":
            def run(t, n):
                return run_uoro(t, cut, n, schedule)
        else:
            def run(t, n):
                return run_preuoro(t, n, schedule)
        report = run(tape, noises)
        alpha = alpha_of(report)
        worst = {"per-episode": 0.0, "batch of one": 0.0, "offline": 0.0}
        for b, noise in enumerate(noises):
            single = tape.episode(b)
            tensors = episode_tensors(single, cut)
            if arm == "both":
                offline = offline_total_estimate(tensors, noise.u, alpha[:, b])
            else:
                offline = preuoro_offline(tensors, noise.tau, alpha[:, b])
            for name, ref in (("per-episode", run(single, noise).estimate),
                              ("batch of one", run(single, noises[b:b + 1]).estimate[0]),
                              ("offline", offline)):
                worst[name] = max(worst[name], rel(report.estimate[b], ref))
        assert max(worst.values()) <= RTOL, worst

    def test_cancelled_sketch_falls_back_exactly(self, criterion_11_minibatch):
        """With x_0 = x_1 = 0 and opposite tau signs the projection-free w~
        cancels at step 1 in exact arithmetic; it is then exactly zero, so
        the greedy gamma of step 2 falls back to exactly 1."""
        tape, noises = criterion_11_minibatch
        report = run_preuoro(tape, noises, ScalingSchedule(GIR))
        x = tape.inputs[:, :2, 0]
        tau = np.stack([n.tau[:2] for n in noises])
        cancels = (x[:, 0] == 0) & (x[:, 1] == 0) & (tau[:, 0] == -tau[:, 1])
        assert cancels.sum() > 0
        np.testing.assert_array_equal(report.realized_gamma[2] == 1.0, cancels)



@pytest.mark.parametrize("engine", ["run_uoro", "run_preuoro", "estimate_B_online",
                                    "run_spatial", "reinforce_episode"])
def test_count_mismatch_raises_the_same_error_in_every_engine(monkeypatch, engine):
    """A tape of 3 episodes with a block of 2 noises is refused with the
    same ShapeError by each engine, before any step."""
    rng = np.random.default_rng(158)
    params, inputs, targets, head = softmax_batch(rng, length=4, hidden=3)
    tape = run_episode(params, inputs, targets, head)
    noises = episode_noises(159, range(2), 4, 3)
    fixed = ScalingSchedule(FIXED_ALPHA, alpha=np.ones(4))
    calls = {
        "run_uoro": lambda: run_uoro(tape, CutVertex.PREACTIVATION, noises, fixed),
        "run_preuoro": lambda: run_preuoro(tape, noises, fixed),
        "estimate_B_online": lambda: estimate_B_online(tape, noises, fixed),
        "run_spatial": lambda: run_spatial(tape, CutVertex.PREACTIVATION, noises),
        "reinforce_episode": lambda: reinforce_episode(params, inputs, targets, head,
                                                       SIGMA, noises),
    }
    forbid_steps(monkeypatch)
    with pytest.raises(ShapeError, match="^3 episodes for 2 noises$"):
        calls[engine]()
