"""The batch-first engine: B episodes of a batched tape, or B seeds on one
tape, advanced in one call must give row by row what per-episode calls and
batches of one give, and what the offline formula gives from the episode's
adjoint tensors."""

import numpy as np
import pytest

from uorolab import rnn, training
from uorolab.config import ExperimentConfig, queue_config
from uorolab.errors import ShapeError
from uorolab.estimators import (
    CONTRIBUTION_SPLIT,
    CONTRIBUTION_STALE_W,
    FIXED_ALPHA,
    GIR,
    ScalingSchedule,
    run_preuoro,
    run_uoro,
)
from uorolab.exact import bptt_gradient, episode_tensors
from uorolab.noise import episode_noise
from uorolab.rnn import BernoulliHead, CutVertex, RnnParams, run_episode
from uorolab.variance import offline_total_estimate

from helpers import make_instance

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
    batched = bool(tape.batch_shape)
    return sum(
        head.param_grad(c.h, [tg[t] for tg in tape.targets] if batched
                        else tape.targets[t])
        for t, c in enumerate(tape.caches))


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
            mine, ref = sliced.caches[t], single.caches[t]
            for name in ("a", "z", "h"):
                np.testing.assert_allclose(getattr(mine, name), getattr(ref, name),
                                           rtol=RTOL, atol=1e-15)
            np.testing.assert_allclose(mine.state(), ref.state(), rtol=RTOL, atol=1e-15)
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
                tensors = episode_tensors(single, CutVertex.PREACTIVATION)
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
                noises = [episode_noise(7, j, 6, n_z) for j in range(3)]
                tape = run_episode(params, inputs, targets, head)
                report = run_uoro(tape, cut, noises, schedule)
                alpha = alpha_of(report)
                for b, single in enumerate(singles(params, inputs, targets, head)):
                    ref = run_uoro(single, cut, noises[b], schedule).estimate
                    one = run_uoro(tape.episode(b), cut, [noises[b]], schedule).estimate
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
            noises = [episode_noise(8, j, 6, params.cut_size(cut)) for j in range(3)]
            tape = run_episode(params, inputs, targets, head)
            schedule = ScalingSchedule(GIR)
            batched = run_uoro(tape, cut, noises, schedule, contribution).estimate
            for b, single in enumerate(singles(params, inputs, targets, head)):
                ref = run_uoro(single, cut, noises[b], schedule, contribution).estimate
                one = run_uoro(tape.episode(b), cut, [noises[b]], schedule,
                               contribution).estimate
                assert rel(batched[b], ref) <= RTOL
                assert rel(batched[b], one[0]) <= RTOL

    @pytest.mark.parametrize("mode", ["gir", "fixed", "ones"])
    def test_preuoro_batch_matches(self, mode):
        rng = np.random.default_rng(127)
        for cell in (rnn.VANILLA_TANH, rnn.LSTM):
            params, inputs, targets, head = softmax_batch(rng, cell=cell)
            noises = [episode_noise(9, j, 6, params.preactivation_size)
                      for j in range(3)]
            schedule = schedule_for(mode, 6, rng)
            tape = run_episode(params, inputs, targets, head)
            report = run_preuoro(tape, noises, schedule)
            alpha = alpha_of(report)
            for b, single in enumerate(singles(params, inputs, targets, head)):
                ref = run_preuoro(single, noises[b], schedule).estimate
                one = run_preuoro(tape.episode(b), [noises[b]], schedule).estimate
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
                noises = [episode_noise(10, j, 6, n_z) for j in range(3)]
                report = run_uoro(run_episode(params, inputs, targets, head), cut,
                                  noises, schedule)
                for b, single in enumerate(singles(params, inputs, targets, head)):
                    column = base.with_alpha(alpha[:, b])
                    np.testing.assert_array_equal(schedule.sketch_coefficients[:, b],
                                                  column.sketch_coefficients)
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
        noises = [episode_noise(11, j, 6, params.preactivation_size) for j in range(3)]
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
        noises = [episode_noise(12, j, 6, 4) for j in range(3)]
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
        noises = [episode_noise(31, i, 5, 3) for i in range(6)]
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
    noises = [episode_noise(cfg.base_seed, j, 24, 50) for j in range(cfg.minibatch)]
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
                              ("batch of one", run(single, [noise]).estimate[0]),
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
