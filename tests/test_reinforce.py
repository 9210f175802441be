"""reinforce_episode bit for bit against its former, unfused form
(helpers.reinforce_oracle), and the first non-finite step of a perturbed
run."""

import warnings

import numpy as np
import pytest

from uorolab import rnn
from uorolab.errors import NumericOverflowError
from uorolab.estimators import reinforce_episode
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import RnnParams, SoftmaxHead

from helpers import ConstantHead, make_instance, make_queue_instance, reinforce_oracle

SIGMA = 1e-3
LENGTH, HIDDEN, SEEDS = 6, 4, 5


def assert_same_bits(value, reference):
    """value and reference are the same float64 array, bit for bit: signed
    zeros and NaN payloads included, where np.array_equal takes -0.0 for 0.0."""
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape and value.dtype == reference.dtype
    assert value.tobytes() == reference.tobytes()


def spd_q0(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + 2.0 * np.eye(n)


def instance(rng, cell, form):
    """(params, inputs, targets, head, noises): one episode with one
    EpisodeNoise per call ("episode"), one episode under a NoiseBlock of
    SEEDS seeds ("seeds"), or SEEDS episodes, some steps masked, under a
    NoiseBlock of one noise each ("episodes")."""
    params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=HIDDEN,
                                                  length=LENGTH)
    if form == "episodes":
        inputs = rng.standard_normal((SEEDS, LENGTH, params.input_size))
        targets = [[None if (t + b) % 4 == 0 else int(rng.integers(3))
                    for t in range(LENGTH)] for b in range(SEEDS)]
    block = episode_noises(71, range(SEEDS), LENGTH, HIDDEN)
    noises = list(block) if form == "episode" else [block]
    return params, inputs, targets, head, noises


def baseline_of(kind, rng, batch):
    if kind in ("noise-free", "none"):
        return kind
    return rng.standard_normal((LENGTH, *batch) if kind == "rows" else LENGTH)


@pytest.mark.parametrize("form", ["episode", "seeds", "episodes"])
@pytest.mark.parametrize("baseline", ["noise-free", "none", "steps", "rows"])
@pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
def test_equals_the_unfused_form_bit_for_bit(cell, baseline, form):
    rng = np.random.default_rng(170)
    params, inputs, targets, head, noises = instance(rng, cell, form)
    for q0 in (None, spd_q0(rng, HIDDEN)):
        for noise in noises:
            batch = () if form == "episode" else (SEEDS,)
            b = baseline_of(baseline, rng, batch)
            report = reinforce_episode(params, inputs, targets, head, SIGMA, noise,
                                       Q0=q0, baseline=b)
            assert_same_bits(report.estimate, reinforce_oracle(
                params, inputs, targets, head, SIGMA, noise, Q0=q0, baseline=b))


@pytest.mark.parametrize("head_kind", ["bernoulli", "constant"])
def test_other_heads_equal_the_unfused_form(head_kind):
    """A Bernoulli head with masked steps and a head whose loss is one
    scalar take the same path, bit for bit."""
    rng = np.random.default_rng(171)
    params, inputs, targets, head = make_queue_instance(rng, hidden=HIDDEN)
    if head_kind == "constant":
        head = ConstantHead()
    block = episode_noises(72, range(SEEDS), len(inputs), HIDDEN)
    for noise in (block, block[2]):
        for baseline in ("noise-free", "none"):
            report = reinforce_episode(params, inputs, targets, head, SIGMA, noise,
                                       baseline=baseline)
            assert_same_bits(report.estimate, reinforce_oracle(
                params, inputs, targets, head, SIGMA, noise, baseline=baseline))


def test_per_seed_calls_at_the_benchmark_shape():
    """300 per-seed calls on one vanilla H=4, T=6 tape with a noise-free
    baseline, the shape of perfbench's mc-tape reinforce arm."""
    rng = np.random.default_rng([233, 5])
    w = 0.45 * rng.standard_normal((4, 7)) / np.sqrt(7)
    params = RnnParams(w, rnn.VANILLA_TANH, 4, 2)
    inputs = rng.standard_normal((6, 2))
    targets = [int(rng.integers(3)) for _ in range(6)]
    head = SoftmaxHead(0.8 * rng.standard_normal((3, 5)))
    for i in range(300):
        noise = episode_noise(53, i, 6, 4)
        report = reinforce_episode(params, inputs, targets, head, SIGMA, noise)
        assert_same_bits(report.estimate,
                         reinforce_oracle(params, inputs, targets, head, SIGMA, noise))


class TestPerturbedOverflow:
    """A perturbed run whose state stops being finite raises
    NumericOverflowError naming its first non-finite step, for one episode
    and a NoiseBlock of seeds.  A tanh or LSTM state saturates, so there only
    the perturbation itself can overflow; a linear cell's state can grow from
    a finite perturbation until it does."""

    @pytest.mark.parametrize("cell", [rnn.VANILLA_TANH, rnn.LSTM])
    def test_names_the_step_whose_perturbation_overflows(self, cell):
        """sigma u_t overflows where |u_t| > 1.797: the perturbed state of that
        step is not finite, though the next step's saturated gates are."""
        rng = np.random.default_rng(82)
        params, inputs, targets, head = make_instance(rng, cell_kind=cell, hidden=2)
        for noise in (episode_noise(83, 3, 6, 2), episode_noises(83, range(4), 6, 2)):
            bad = (np.abs(noise.u) > np.finfo(float).max / 1e308).reshape(6, -1)
            assert bad.any(axis=1)[1:-1].any() and not bad[0].any()
            step = int(np.argmax(bad.any(axis=1)))
            # the offsets' own overflow warns where they are scaled
            with np.errstate(over="ignore"), pytest.raises(
                    NumericOverflowError, match=f"step {step} produced non-finite state"):
                reinforce_episode(params, inputs, targets, head, 1e308, noise)

    def test_names_the_step_a_perturbation_blows_up(self):
        """A linear cell that scales its state 1e5-fold a step, with no input
        and no bias, so that the unperturbed row stays at 0: perturbations of
        about 1e300 overflow the state a few steps on, at the step that the
        recurrence h_t = 1e5 h_bar_{t-1}, h_bar_t = h_t + sigma u_t names."""
        w = np.zeros((2, 4))
        w[:, :2] = 1e5 * np.eye(2)
        params = RnnParams(w, rnn.VANILLA_LINEAR, 2, 1)
        head = SoftmaxHead(np.zeros((3, 3)))
        for noise in (episode_noise(84, 0, 6, 2), episode_noises(84, range(4), 6, 2)):
            h_bar = np.zeros(noise.u.shape[1:])
            with np.errstate(over="ignore"):
                for step in range(6):
                    h_bar = 1e5 * h_bar + 1e300 * noise.u[step]
                    if not np.isfinite(h_bar).all():
                        break
            assert 1 < step < 5
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericOverflowError,
                                   match=f"step {step} produced non-finite state"):
                    reinforce_episode(params, np.zeros((6, 1)), [0] * 6, head, 1e300,
                                      noise)
