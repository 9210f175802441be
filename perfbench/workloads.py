"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the seed, runs one operation of one arm
through the package's public entry points (``training.run_training``,
``training.measure_estimator``, ``estimators.reinforce_episode``) and checks
the outputs against public oracles.  A failed check is counted, not raised.

queue-ablation
    Queue training with the criterion-11 protocol (vanilla H=50, T=24,
    B=100) for the arms neither, temporal and both.  One operation is one
    training update.  Nearly all of its time is in the vectorized minibatch
    kernels and the per-episode noise streams.
mc-tape
    Many noise seeds on one fixed vanilla H=4, T=6 tape, built like the
    acceptance instance, for the arms of criterion 2.  One operation is a
    block of estimates; the estimator layer here is bound by Python dispatch.
digits-q0
    LSTM row-wise synthetic-stripes digits with the optimal-Q0 and exact-alpha
    protocol.  One operation is a two-update training run, because the
    optimal Q0 is first solved in the second update.
"""

import os
import shutil

import numpy as np

from uorolab import estimators, exact, noise, reports, rnn, tasks, training
from uorolab.config import ExperimentConfig, digits_config, queue_config
from uorolab.variance import offline_total_estimate

import reference
from tracing import Patcher, observe_calls

# Relative tolerance of the roundoff-level identities below.
ROUNDOFF_RTOL = 1e-9
# Bound on the online/offline audit the digits protocol writes to metrics.csv.
AUDIT_RTOL = 1e-8
# Bound on the relative distance of a solved alpha from the minimizer.  The
# variance objective is stationary there, so a relative error e in alpha
# raises it by O(e^2): 1e-6 leaves it unchanged to about 1e-12.
ALPHA_RTOL = 1e-6


class Checks:
    """Output checks attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.notes = []  # facts worth reporting that are not failures

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def note(self, message):
        if len(self.notes) < 20:
            self.notes.append(message)


def _rel_err(value, reference):
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return float(np.linalg.norm(value - reference)
                 / max(np.linalg.norm(reference), 1e-300))


def minimizing_alpha(c_matrix, max_iter=100):
    """The alpha minimizing sum_{q,r} (alpha_r^2 / alpha_q^2) C[q, r], solved
    here independently of the package: Newton's method in zeta = 2 log alpha
    with zeta_0 pinned, a backtracking line search while the objective can
    still resolve the Newton decrement, and full steps after that."""
    c = np.asarray(c_matrix, dtype=np.float64) / np.max(c_matrix)
    zeta = np.zeros(c.shape[0])
    for _ in range(max_iter):
        cbar = c * np.exp(zeta[None, :] - zeta[:, None])
        grad = cbar.sum(axis=0) - cbar.sum(axis=1)
        pair = cbar + cbar.T
        hess = np.diag(pair.sum(axis=1)) - pair
        step = np.zeros_like(zeta)
        step[1:] = np.linalg.solve(hess[1:, 1:], grad[1:])
        objective, decrement = float(cbar.sum()), float(grad @ step)
        t = 1.0
        while decrement > 1e-12 * objective and t > 1e-10:
            trial = zeta - t * step
            if (float(np.sum(c * np.exp(trial[None, :] - trial[:, None])))
                    <= objective - 0.25 * t * decrement):
                break
            t *= 0.5
        zeta -= t * step
        if np.max(np.abs(t * step)) < 1e-13:
            break
    return np.exp((zeta - zeta.min()) / 2.0)


def _alpha_rel_err(alpha, reference):
    """Largest relative difference of two alphas up to a common factor, the
    freedom the objective leaves."""
    log_ratio = np.log(np.asarray(alpha) / reference)
    return float(np.max(np.abs(np.expm1(log_ratio - log_ratio.mean()))))


class QueueAblation:
    name = "queue-ablation"
    arms = ("neither", "temporal", "both")
    unit = "update"
    units_per_op = 1
    # The host's speed is gauged by work like this workload's (reference.py).
    gauge = (reference.kernel, reference.NOMINAL_MS)

    def __init__(self, seed, out_dir):
        self.configs = {
            arm: queue_config(arm, stream_length=24, updates=1,
                              base_seed=seed + 1, data_seed=1000 + seed)
            for arm in self.arms
        }
        # Every arm starts from the same parameters and data, so the loss
        # reported for update 0 is the same per-episode mean for all of them.
        self.initial_loss = self._initial_mean_loss(self.configs["neither"])

    @staticmethod
    def _initial_mean_loss(config):
        task = training.build_task(config)
        rng = np.random.default_rng(config.base_seed)
        params = rnn.init_params(config.cell, config.hidden, task.input_size, rng)
        head = task.make_head(rng)
        losses = []
        for j in range(config.minibatch):
            inputs, targets = task.episode(config.data_seed, j)
            tape = rnn.run_episode(params, inputs, targets, head)
            supervised = sum(1 for t in targets if t is not None)
            losses.append(tape.total_loss() / max(supervised, 1))
        return float(np.mean(losses))

    def op(self, arm, index):
        return training.run_training(self.configs[arm])

    def check(self, arm, index, summary, checks):
        loss = summary["final_loss"]
        checks.expect(loss is not None and np.isfinite(loss),
                      f"{arm}: loss {loss!r} is not finite")
        checks.expect(loss is not None
                      and _rel_err(loss, self.initial_loss) <= ROUNDOFF_RTOL,
                      f"{arm}: update-0 loss {loss!r} != per-episode mean "
                      f"{self.initial_loss!r}")

    def close(self):
        pass


MC_SEEDS_PER_OP = 32
MC_SIGMA = 1e-3


class McTape:
    name = "mc-tape"
    arms = ("uoro", "uoro_q0", "preuoro", "reinforce")
    unit = "estimate"
    units_per_op = MC_SEEDS_PER_OP
    gauge = (reference.python_kernel, reference.NOMINAL_PYTHON_MS)

    def __init__(self, seed, out_dir):
        # The recipe of the frozen acceptance instance, on a seeded generator.
        hidden, inputs_dim, length, classes = 4, 2, 6, 3
        rng = np.random.default_rng([233, seed])
        augmented = hidden + inputs_dim + 1
        w = 0.45 * rng.standard_normal((hidden, augmented)) / np.sqrt(augmented)
        self.params = rnn.RnnParams(w, rnn.VANILLA_TANH, hidden, inputs_dim)
        self.inputs = rng.standard_normal((length, inputs_dim))
        self.targets = [int(rng.integers(classes)) for _ in range(length)]
        self.head = rnn.SoftmaxHead(0.8 * rng.standard_normal((classes, hidden + 1)))
        self.tape = rnn.run_episode(self.params, self.inputs, self.targets, self.head)
        self.tensors = exact.episode_tensors(self.tape, rnn.CutVertex.PREACTIVATION)
        qm = rng.standard_normal((hidden, hidden))
        self.q0 = qm @ qm.T + 2.0 * np.eye(hidden)
        self.alpha = np.ones(length)
        plain = estimators.ScalingSchedule(estimators.FIXED_ALPHA, alpha=self.alpha)
        self.schedules = {
            "uoro": plain,
            "uoro_q0": estimators.ScalingSchedule(estimators.FIXED_ALPHA,
                                                  alpha=self.alpha, Q0=self.q0),
            "preuoro": plain,
        }
        # One independent noise family per arm, as in criterion 2.
        self.configs = {
            arm: ExperimentConfig(hidden=hidden, base_seed=10 * seed + k)
            for k, arm in enumerate(self.arms)
        }

    def _noise(self, arm, index):
        config = self.configs[arm]
        return noise.episode_noise(config.base_seed, index, self.tape.length,
                                   self.params.hidden_size, config.tau_kind)

    def op(self, arm, index):
        offset = index * MC_SEEDS_PER_OP
        if arm == "reinforce":
            return np.stack([
                estimators.reinforce_episode(
                    self.params, self.inputs, self.targets, self.head, MC_SIGMA,
                    self._noise(arm, offset + i),
                    baseline=estimators.BASELINE_NOISE_FREE).estimate
                for i in range(MC_SEEDS_PER_OP)
            ])
        estimator = "preuoro" if arm == "preuoro" else "uoro"
        return training.measure_estimator(
            self.configs[arm], self.params, self.tape, self.tensors, estimator,
            self.schedules[arm], MC_SEEDS_PER_OP, seed_offset=offset)

    def check(self, arm, index, estimates, checks):
        checks.expect(bool(np.all(np.isfinite(estimates))),
                      f"{arm}: non-finite estimate in block {index}")
        if arm == "reinforce":
            return
        row = index % MC_SEEDS_PER_OP  # one sampled seed per block
        draws = self._noise(arm, index * MC_SEEDS_PER_OP + row)
        if arm == "preuoro":
            # The projection-free sketch is the sum of the rank-one sketches
            # driven by tau_s e_i over the spatial basis e_i.
            oracle = sum(offline_total_estimate(self.tensors, np.outer(draws.tau, e),
                                                self.alpha)
                         for e in np.eye(self.tensors.cut_dim))
        else:
            q0 = self.q0 if arm == "uoro_q0" else None
            oracle = offline_total_estimate(self.tensors, draws.u, self.alpha, q0)
        err = _rel_err(estimates[row], oracle)
        checks.expect(err <= ROUNDOFF_RTOL,
                      f"{arm}: online/offline rel err {err:.3e} at seed "
                      f"{index * MC_SEEDS_PER_OP + row}")

    def close(self):
        pass


class DigitsQ0:
    name = "digits-q0"
    arms = ("ours",)
    unit = "update"
    units_per_op = 2
    gauge = (reference.python_kernel, reference.NOMINAL_PYTHON_MS)

    def __init__(self, seed, out_dir):
        self.config = digits_config("ours", "ours", updates=self.units_per_op,
                                    base_seed=seed + 1, data_seed=seed)
        # The data a run trains on.  run_training takes only a config and
        # generates it again, so this load is the user's look at the data.
        self.data = tasks.load_rowwise_digits(
            source=self.config.digits_source, limit=self.config.digits_limit,
            seed=self.config.data_seed)
        self.run_dir = os.path.join(out_dir, f"{self.name}-{os.getpid()}")
        self.solves = []
        self.patcher = Patcher()
        self.observing = observe_calls(self.patcher, "variance",
                                       "solve_alpha_newton", self.solves)

    def op(self, arm, index):
        os.makedirs(self.run_dir, exist_ok=True)
        return training.run_training(self.config, out_dir=self.run_dir)

    def check(self, arm, index, summary, checks):
        rows = reports.read_metrics_csv(os.path.join(self.run_dir, "metrics.csv"))
        losses = [value for _, _, metric, value in rows if metric == "loss"]
        losses.append(summary["final_loss"])
        checks.expect(len(losses) == self.config.updates + 1
                      and bool(np.all(np.isfinite(losses))),
                      f"{arm}: losses {losses!r} missing or not finite")
        audits = [value for _, _, metric, value in rows
                  if metric == "audit_offline_rel_err"]
        checks.expect(len(audits) > 0, f"{arm}: no online/offline audit row")
        for value in audits:
            checks.expect(value <= AUDIT_RTOL,
                          f"{arm}: audit_offline_rel_err {value:.3e}")
        if self.observing:
            checks.expect(len(self.solves) > 0, f"{arm}: no Newton solve ran")
            for (c_matrix, *_), solution in self.solves:
                err = _alpha_rel_err(solution.alpha, minimizing_alpha(c_matrix))
                checks.expect(err <= ALPHA_RTOL,
                              f"{arm}: solved alpha is {err:.3e} from the "
                              f"minimizer (Newton residual "
                              f"{solution.residual:.3e}, converged "
                              f"{solution.converged})")
                if not solution.converged:
                    checks.note(f"{arm}: Newton solve flagged unconverged after "
                                f"{solution.iterations} iterations, residual "
                                f"{solution.residual:.3e}; alpha {err:.3e} "
                                f"from the minimizer")
        self.solves.clear()

    def close(self):
        self.patcher.restore()
        shutil.rmtree(self.run_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (QueueAblation, McTape, DigitsQ0)}
