"""The fixed-alpha step loops of run_uoro and run_preuoro, which read their
per-step scalars from arrays made once and check finiteness once, against
the step-at-a-time loops they replaced (tests/helpers.py), bit for bit."""

import numpy as np
import pytest

from uorolab import rnn
from uorolab.errors import NumericOverflowError
from uorolab.estimators import (
    CONTRIBUTIONS,
    FIXED_ALPHA,
    ScalingSchedule,
    run_preuoro,
    run_uoro,
)
from uorolab.noise import GAUSSIAN, SIGN, episode_noises
from uorolab.rnn import CutVertex, run_episode

from helpers import make_instance, preuoro_fixed_alpha_oracle, uoro_fixed_alpha_oracle

T, B = 6, 3


def instance(cell, batched, seed=5):
    """A tape of T steps, batched (B episodes) or not, and its noise block of
    B (one per episode, or B seeds on the one tape)."""
    rng = np.random.default_rng(seed)
    params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=3, length=T)
    if batched:
        inputs = np.stack([inputs + 0.1 * k for k in range(B)])
        targets = [targets] * B
    return run_episode(params, inputs, targets, head)


def schedule(alpha_shape, q0=None):
    alpha = np.exp(np.random.default_rng(7).uniform(-1, 1, alpha_shape))
    return ScalingSchedule(FIXED_ALPHA, Q0=q0, alpha=alpha)


def assert_same_report(got, want):
    for name in ("realized_gamma", "realized_beta"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.factors.left, want.factors.left)
    assert np.array_equal(got.factors.right, want.factors.right)
    assert np.array_equal(got.estimate, want.estimate)


CASES = [(cell, cut) for cell in (rnn.VANILLA_TANH, rnn.LSTM)
         for cut in (CutVertex.PREACTIVATION, CutVertex.STATE)
         if not (cell == rnn.LSTM and cut == CutVertex.STATE)]


@pytest.mark.parametrize("cell, cut", CASES)
@pytest.mark.parametrize("contribution", CONTRIBUTIONS)
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("alpha_shape", [(T,), (T, B)])
@pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
def test_run_uoro_matches_the_step_loop(cell, cut, contribution, batched, alpha_shape,
                                        tau_kind):
    tape = instance(cell, batched)
    n_z = tape.params.cut_size(cut)
    noise = episode_noises(11, range(B), T, n_z, tau_kind)
    q0 = np.eye(n_z) + 0.2 * np.diag(np.arange(n_z - 1), 1)
    for sched in (schedule(alpha_shape), schedule(alpha_shape, q0)):
        assert_same_report(run_uoro(tape, cut, noise, sched, contribution),
                           uoro_fixed_alpha_oracle(tape, cut, noise, sched, contribution))


@pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("alpha_shape", [(T,), (T, B)])
@pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
def test_run_preuoro_matches_the_step_loop(cell, batched, alpha_shape, tau_kind):
    tape = instance(cell, batched)
    noise = episode_noises(12, range(B), T, 2, tau_kind)
    sched = schedule(alpha_shape)
    assert_same_report(run_preuoro(tape, noise, sched),
                       preuoro_fixed_alpha_oracle(tape, noise, sched))


@pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
def test_one_episode_matches_the_step_loop(cell):
    tape = instance(cell, False)
    n_z = tape.params.preactivation_size
    noise = episode_noises(13, [0], T, n_z)[0]  # one EpisodeNoise
    sched = schedule((T,))
    assert_same_report(run_uoro(tape, CutVertex.PREACTIVATION, noise, sched),
                       uoro_fixed_alpha_oracle(tape, CutVertex.PREACTIVATION, noise, sched))
    assert_same_report(run_preuoro(tape, noise, sched),
                       preuoro_fixed_alpha_oracle(tape, noise, sched))


def plant(tape, field, step=2):
    """An infinite entry in the tape's field at one step."""
    getattr(tape.steps, field)[step, ..., 0] = np.inf


@pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
@pytest.mark.parametrize("batched", [False, True])
def test_overflow_at_step_2_is_named(cell, batched):
    """An overflow planted at step 2 of 6 raises naming step 2, as the step
    loop does, though the check runs after the loop: in the sketch (J_cut's
    factors), in w~ (the step's a) and in the coefficients (1 / beta)."""
    derivative = "dz" if cell == rnn.LSTM else "d"
    for field in (derivative, "a"):
        tape = instance(cell, batched)
        plant(tape, field)
        noise = episode_noises(14, range(B), T, tape.params.preactivation_size)
        sched = schedule((T,))
        runs = [lambda: run_preuoro(tape, noise, sched),
                lambda: preuoro_fixed_alpha_oracle(tape, noise, sched)]
        if field != "a":  # a reaches run_uoro's factors, not its recursion
            runs += [lambda: run_uoro(tape, CutVertex.PREACTIVATION, noise, sched),
                     lambda: uoro_fixed_alpha_oracle(tape, CutVertex.PREACTIVATION,
                                                     noise, sched)]
        for run in runs:
            with pytest.raises(NumericOverflowError, match="at step 2$"):
                run()
    tape = instance(cell, batched)
    noise = episode_noises(14, range(B), T, tape.params.preactivation_size)
    alpha = np.ones(T)
    alpha[2] = 1e-310  # 1 / beta_2 leaves the float range
    sched = ScalingSchedule(FIXED_ALPHA, alpha=alpha)
    for run in (run_uoro, uoro_fixed_alpha_oracle):
        with pytest.raises(NumericOverflowError, match="at step 2$"):
            run(tape, CutVertex.PREACTIVATION, noise, sched)


def test_a_late_sketch_overflow_names_an_earlier_bad_w():
    """preUORO checks its w~ after the loop but its H~ at each step: an H~
    overflow at step 4 still names step 2, where w~ overflowed first."""
    tape = instance(rnn.VANILLA_TANH, False)
    plant(tape, "a")
    plant(tape, "d", step=4)
    noise = episode_noises(15, range(B), T, 2)
    sched = schedule((T,))
    for run in (run_preuoro, preuoro_fixed_alpha_oracle):
        with pytest.raises(NumericOverflowError, match="at step 2$"):
            run(tape, noise, sched)
