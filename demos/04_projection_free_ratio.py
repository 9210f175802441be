#!/usr/bin/env python3
"""The cost of spatial projection.

The weight-matrix Jacobian of one step is naturally rank-one, so the sketch
can skip the spatial projection entirely by carrying a small matrix forward.
Theory says the projected estimator's variance is the projection-free one
multiplied by the cut dimension; this script measures both sides.
"""

import numpy as np

from uorolab.estimators import FIXED_ALPHA, ScalingSchedule, run_preuoro, run_uoro
from uorolab.exact import bptt_gradient, suffix_rows
from uorolab.linalg import trace
from uorolab.noise import episode_noise
from uorolab.rnn import CutVertex, RnnParams, SoftmaxHead, run_episode
from uorolab.variance import compute_B, empirical_variance, predicted_VQ

rng = np.random.default_rng(2)
hidden, inputs_dim, length = 4, 2, 6
params = RnnParams(0.4 * rng.standard_normal((hidden, hidden + inputs_dim + 1)),
                   "vanilla-tanh", hidden, inputs_dim)
inputs = rng.standard_normal((length, inputs_dim))
targets = [int(rng.integers(3)) for _ in range(length)]
head = SoftmaxHead(rng.standard_normal((3, hidden + 1)))
tape = run_episode(params, inputs, targets, head)
rows = suffix_rows(tape, CutVertex.PREACTIVATION)
exact = bptt_gradient(tape)
alpha = np.ones(length)
schedule = ScalingSchedule(FIXED_ALPHA, alpha=alpha)

n = 20_000
with_projection = np.empty((n, params.num_params))
without = np.empty_like(with_projection)
for i in range(n):
    with_projection[i] = run_uoro(
        tape, CutVertex.PREACTIVATION,
        episode_noise(100, i, length, hidden, tau_kind="sign"), schedule
    ).estimate
    without[i] = run_preuoro(
        tape, episode_noise(200, i, length, hidden, tau_kind="gaussian"),
        schedule
    ).estimate

m_proj = empirical_variance(with_projection, exact)
m_free = empirical_variance(without, exact)
pred_proj = predicted_VQ(rows, alpha)          # N_z tr(B) without Q0
pred_free = trace(compute_B(rows, alpha))      # the projection-free tr(B)

print(f"cut dimension (preactivations): {params.preactivation_size}")
print(f"predicted variances:  projected {pred_proj:9.3f}   "
      f"projection-free {pred_free:9.3f}   ratio {pred_proj / pred_free:.2f}")
print(f"measured variances:   projected {m_proj.vq:9.3f}   "
      f"projection-free {m_free.vq:9.3f}   ratio {m_proj.vq / m_free.vq:.2f}")
print("\nthe factor saved is exactly the cut dimension; the price is "
      "carrying a\nstate-by-cut matrix forward instead of one vector.")
