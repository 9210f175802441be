"""uorolab: a numerical laboratory for online credit assignment in
recurrent networks.

Exact gradient engines (reverse and forward accumulation), unbiased
stochastic approximations (rank-one sketches with and without spatial
projection, perturbed-state score-function estimation), and a toolkit that
predicts, minimizes and empirically verifies the variance of total gradient
estimates.
"""

from . import (
    config,
    estimators,
    exact,
    linalg,
    noise,
    optim,
    reports,
    rnn,
    tasks,
    training,
    variance,
)

__all__ = [
    "config",
    "estimators",
    "exact",
    "linalg",
    "noise",
    "optim",
    "reports",
    "rnn",
    "tasks",
    "training",
    "variance",
]
__version__ = "0.1.0"
