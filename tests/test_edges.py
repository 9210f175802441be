"""Contract edge cases: schedule validation and overflow reporting."""

import numpy as np
import pytest

from uorolab.errors import NumericOverflowError, SingularMatrixError
from uorolab.estimators import (
    FIXED_ALPHA,
    GIR,
    RankOneState,
    ScalingSchedule,
    reinforce_episode,
    uoro_step,
)
from uorolab.noise import episode_noise
from uorolab.rnn import CutVertex, run_episode

from helpers import make_instance


class TestScheduleValidation:
    def test_ill_conditioned_q0_rejected(self):
        q0 = np.diag([1.0, 1e-12])
        with pytest.raises(SingularMatrixError):
            ScalingSchedule(GIR, Q0=q0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            ScalingSchedule(FIXED_ALPHA, alpha=np.array([1.0, 0.0]))

    def test_nonpositive_gir_scale_rejected(self):
        with pytest.raises(ValueError):
            ScalingSchedule(GIR, gir_scale=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ScalingSchedule("adaptive")


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
            uoro_step(state, tape.caches[1], CutVertex.PREACTIVATION,
                      np.ones(3), schedule, 1)
