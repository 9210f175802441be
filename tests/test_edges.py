"""Contract edge cases: schedule validation and overflow reporting."""

import numpy as np
import pytest

from uorolab import estimators
from uorolab.errors import NumericOverflowError, ShapeError, SingularMatrixError
from uorolab.estimators import (
    FIXED_ALPHA,
    GIR,
    ScalingSchedule,
    reinforce_episode,
    run_preuoro,
    run_uoro,
)
from uorolab.noise import episode_noise, episode_noises
from uorolab.rnn import CutVertex, run_episode

from helpers import RankOneState, forbid_steps, make_instance, uoro_step


class TestScheduleValidation:
    def test_ill_conditioned_q0_rejected(self):
        q0 = np.diag([1.0, 1e-12])
        with pytest.raises(SingularMatrixError):
            ScalingSchedule(GIR, Q0=q0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            ScalingSchedule(FIXED_ALPHA, alpha=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(ValueError, match="alpha entries must be finite"):
            ScalingSchedule(FIXED_ALPHA, alpha=np.array([1.0, bad, 1.0]))
        with pytest.raises(ValueError, match="alpha entries must be finite"):
            ScalingSchedule(GIR).with_alpha(np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_q0_rejected(self, bad):
        q0 = np.eye(3)
        q0[1, 1] = bad
        with pytest.raises(ValueError, match="Q0 must be finite"):
            ScalingSchedule(GIR, Q0=q0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ScalingSchedule("adaptive")

    def test_with_alpha_shares_checked_q0(self, monkeypatch):
        rng = np.random.default_rng(135)
        m = rng.standard_normal((3, 3))
        base = ScalingSchedule(GIR, Q0=m @ m.T + np.eye(3))
        alpha = np.array([1.0, 2.0, 0.5])
        monkeypatch.setattr(estimators, "_checked_q0", None)  # must not run again
        fixed = base.with_alpha(alpha)
        assert fixed.mode == FIXED_ALPHA and base.mode == GIR
        assert fixed.Q0 is base.Q0 and fixed.Q0_inv is base.Q0_inv
        monkeypatch.undo()
        direct = ScalingSchedule(FIXED_ALPHA, Q0=base.Q0, alpha=alpha)
        for t in range(3):
            assert fixed.fixed_coefficients(t) == direct.fixed_coefficients(t)
        with pytest.raises(ValueError):
            base.with_alpha(np.array([1.0, -1.0, 1.0]))


class TestQ0SizeChecked:
    def test_run_uoro_rejects_q0_of_wrong_size(self, monkeypatch):
        rng = np.random.default_rng(136)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=3)
        tape = run_episode(params, inputs, targets, head)
        noise = episode_noise(137, 0, 3, 4)
        schedule = ScalingSchedule(GIR, Q0=np.eye(3))
        forbid_steps(monkeypatch)
        with pytest.raises(ShapeError, match="Q0"):
            run_uoro(tape, CutVertex.PREACTIVATION, noise, schedule)

    def test_run_preuoro_rejects_any_q0_before_a_step(self, monkeypatch):
        rng = np.random.default_rng(140)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=3)
        tape = run_episode(params, inputs, targets, head)
        noises = episode_noises(141, range(2), 3, 4)
        schedule = ScalingSchedule(FIXED_ALPHA, Q0=np.eye(4), alpha=np.ones(3))
        forbid_steps(monkeypatch)
        with pytest.raises(ValueError, match="Q0"):
            run_preuoro(tape, noises, schedule)

    def test_reinforce_rejects_q0_of_wrong_size(self, monkeypatch):
        rng = np.random.default_rng(138)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=3)
        noise = episode_noise(139, 0, 3, 4)
        forbid_steps(monkeypatch)
        with pytest.raises(ShapeError, match="Q0"):
            reinforce_episode(params, inputs, targets, head, sigma=0.1,
                              noise=noise, Q0=np.eye(3))


class TestReinforceQ0Validation:
    @pytest.mark.parametrize("q0", [np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 1e-12])],
                             ids=["zero", "ill-conditioned"])
    def test_singular_q0_rejected(self, q0):
        rng = np.random.default_rng(131)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=3)
        noise = episode_noise(132, 0, 3, 4)
        with pytest.raises(SingularMatrixError):
            reinforce_episode(params, inputs, targets, head, sigma=0.1,
                              noise=noise, Q0=q0)

    def test_identity_q0_matches_none(self):
        rng = np.random.default_rng(133)
        params, inputs, targets, head = make_instance(rng, hidden=4, length=3)
        noise = episode_noise(134, 0, 3, 4)
        plain = reinforce_episode(params, inputs, targets, head, 0.1, noise)
        shaped = reinforce_episode(params, inputs, targets, head, 0.1, noise,
                                   Q0=np.eye(4))
        np.testing.assert_array_equal(plain.estimate, shaped.estimate)


class TestOverflowReporting:
    def test_overflow_names_the_step(self):
        rng = np.random.default_rng(130)
        params, inputs, targets, head = make_instance(rng, hidden=3, length=2)
        tape = run_episode(params, inputs, targets, head)
        # the shrinking alpha schedule divides w~ by 0.25 at step 1
        state = RankOneState(np.zeros(3), np.full(params.num_params, 1e308))
        schedule = ScalingSchedule(FIXED_ALPHA, alpha=np.array([4.0, 1.0]))
        with pytest.raises(NumericOverflowError, match="step 1"):
            uoro_step(state, tape.steps[1], CutVertex.PREACTIVATION,
                      np.ones(3), schedule, 1)
