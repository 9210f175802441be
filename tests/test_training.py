import functools
import weakref

import numpy as np
import pytest

from uorolab import estimators, training, variance
from uorolab.config import ExperimentConfig, as_dict
from uorolab.errors import UnsupportedCutError
from uorolab.exact import bptt_gradient, suffix_rows
from uorolab.noise import episode_noise
from uorolab.optim import AdamState, adam_update
from uorolab.reports import read_metrics_csv
from uorolab.rnn import CutVertex, init_params, run_episode
from uorolab.tasks import QueueSpec, make_queue_episode
from uorolab.variance import compute_B, compute_C, optimal_Q0, solve_alpha_newton

from helpers import forbid_steps


def tiny_queue_config(**overrides):
    base = dict(
        task="queue",
        cell="vanilla-tanh",
        hidden=4,
        delay=2,
        stream_length=8,
        minibatch=4,
        updates=6,
        estimator="uoro",
        learning_rate=0.01,
        momentum=0.5,
        base_seed=11,
        data_seed=12,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_digits_config(q0_mode, alpha_mode, **overrides):
    base = dict(
        task="rowwise-digits", cell="lstm", hidden=3, estimator="uoro",
        q0_mode=q0_mode, alpha_mode=alpha_mode, digits_limit=16,
        learning_rate=0.003, momentum=0.8, bbar_decay=0.9, damping=0.005,
        base_seed=3, data_seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunTraining:
    def test_smoke_run_finishes_with_finite_losses(self, tmp_path):
        summary = training.run_training(tiny_queue_config(updates=20),
                                        out_dir=tmp_path)
        assert np.isfinite(summary["final_loss"])
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_deterministic_csv(self, tmp_path):
        cfg = tiny_queue_config()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        training.run_training(cfg, out_dir=d1)
        training.run_training(cfg, out_dir=d2)
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()

    def test_exact_mode_is_deterministic_descent(self):
        """estimator=neither reduces to plain gradient descent: replay it."""
        cfg = tiny_queue_config(estimator="neither", updates=3, minibatch=2)
        summary = training.run_training(cfg)

        # independent replay with the per-episode exact engine
        spec = QueueSpec(delay=cfg.delay, length=cfg.stream_length)
        rng = np.random.default_rng(cfg.base_seed)
        task = training.build_task(cfg)
        params = init_params(cfg.cell, cfg.hidden, 1, rng)
        head = task.make_head(rng)
        w_state = AdamState.zeros_like(params.theta())
        h_state = AdamState.zeros_like(head.weights)
        losses = []
        for update in range(cfg.updates):
            grads, head_grads, batch_losses = [], [], []
            for j in range(cfg.minibatch):
                inputs, targets = make_queue_episode(
                    spec, cfg.data_seed, update * cfg.minibatch + j
                )
                tape = run_episode(params, inputs, targets, head)
                n_sup = sum(1 for t in targets if t is not None)
                grads.append(bptt_gradient(tape).g / n_sup)
                head_grads.append(sum(
                    head.param_grad(tape.steps[t].h, targets[t])
                    for t in range(tape.length)
                ) / n_sup)
                batch_losses.append(tape.total_loss() / n_sup)
            params = params.with_theta(adam_update(
                params.theta(), np.mean(grads, axis=0), w_state,
                cfg.learning_rate, cfg.momentum, cfg.beta2, cfg.eps))
            head.weights = adam_update(head.weights, np.mean(head_grads, axis=0),
                                       h_state, cfg.learning_rate, cfg.momentum,
                                       cfg.beta2, cfg.eps)
            losses.append(float(np.mean(batch_losses)))
        assert summary["final_loss"] == pytest.approx(losses[-1], rel=1e-9)

    @pytest.mark.parametrize("estimator,q0_mode,alpha_mode", [
        ("uoro", "identity", "gir"), ("preuoro", "identity", "gir"),
        ("uoro", "ours", "ours"), ("uoro", "identity", "ours"),
        ("uoro", "ours", "gir"),
    ])
    def test_batched_update_matches_per_episode_replay(
            self, tmp_path, monkeypatch, estimator, q0_mode, alpha_mode):
        """A queue run updates from whole-minibatch batches, and an LSTM
        digits run of the exact alpha / Q0 protocol from blocks of
        TENSOR_BLOCK episodes (2 here, for a minibatch of 5).  Replay either
        with one unbatched estimator call per episode; the exact protocol
        solves each episode's alpha from its own tensors, runs it through
        with_alpha, and folds each episode's exact B into Bbar."""
        if (q0_mode, alpha_mode) == ("identity", "gir"):
            cfg = tiny_queue_config(estimator=estimator, updates=4, minibatch=3)
        else:
            monkeypatch.setattr(training, "TENSOR_BLOCK", 2)
            cfg = tiny_digits_config(q0_mode, alpha_mode, minibatch=5, updates=3)
        training.run_training(cfg, out_dir=tmp_path)

        rng = np.random.default_rng(cfg.base_seed)
        task = training.build_task(cfg)
        params = init_params(cfg.cell, cfg.hidden, task.input_size, rng)
        head = task.make_head(rng)
        w_state = AdamState.zeros_like(params.theta())
        h_state = AdamState.zeros_like(head.weights)
        cut = CutVertex(cfg.cut)
        b_bar = q0 = None
        expected = []
        for update in range(cfg.updates):
            if q0_mode == "ours" and b_bar is not None:
                q0 = optimal_Q0(b_bar, damping=cfg.damping)
            base = estimators.ScalingSchedule(estimators.GIR, Q0=q0)
            grads, head_grads, batch_losses, b_mats = [], [], [], []
            for j in range(cfg.minibatch):
                index = update * cfg.minibatch + j
                inputs, targets = task.episode(cfg.data_seed, index)
                tape = run_episode(params, inputs, targets, head)
                noise = episode_noise(cfg.base_seed, index, tape.length,
                                      params.cut_size(cut))
                schedule = base
                if alpha_mode == "ours":
                    rows = suffix_rows(tape, cut)
                    alpha = solve_alpha_newton(
                        compute_C(rows, base.Q0, base.Q0_inv)).alpha
                    schedule = base.with_alpha(alpha)
                if estimator == "uoro":
                    report = estimators.run_uoro(tape, cut, noise, schedule)
                else:
                    report = estimators.run_preuoro(tape, noise, schedule)
                if q0_mode == "ours":
                    if alpha_mode == "gir":
                        rows = suffix_rows(tape, cut)
                        alpha = training.realized_alpha(report)
                    b_mats.append(compute_B(rows, alpha))
                n_sup = sum(1 for t in targets if t is not None)
                grads.append(report.estimate / n_sup)
                head_grads.append(sum(
                    head.param_grad(tape.steps[t].h, targets[t])
                    for t in range(tape.length)
                ) / n_sup)
                batch_losses.append(tape.total_loss() / n_sup)
            if b_mats:
                b_mean = np.mean(b_mats, axis=0)
                b_bar = b_mean if b_bar is None else (
                    cfg.bbar_decay * b_bar + (1.0 - cfg.bbar_decay) * b_mean)
            grad = np.mean(grads, axis=0)
            params = params.with_theta(adam_update(
                params.theta(), grad, w_state,
                cfg.learning_rate, cfg.momentum, cfg.beta2, cfg.eps))
            head.weights = adam_update(head.weights, np.mean(head_grads, axis=0),
                                       h_state, cfg.learning_rate, cfg.momentum,
                                       cfg.beta2, cfg.eps)
            expected += [float(np.mean(batch_losses)), float(np.linalg.norm(grad))]
        rows = read_metrics_csv(tmp_path / "metrics.csv")
        written = [v for (_, _, metric, v) in rows if metric in ("loss", "grad_norm")]
        np.testing.assert_allclose(written, expected, rtol=1e-9)

    @pytest.mark.parametrize("q0_mode,alpha_mode", [
        ("ours", "ours"), ("identity", "ours"), ("ours", "gir")])
    def test_exact_protocol_runs_in_blocks(self, monkeypatch, q0_mode, alpha_mode):
        """Per update the exact protocol runs one forward, one noise draw and
        one sketch call over the whole minibatch, one suffix-row sweep per
        block of TENSOR_BLOCK episodes (2, 2 and 1 of 5), and builds the
        adjoint tensors of the audited episodes only (0, 2, 4 and then 6,
        8).  Under Q0 "ours" every update but the last computes each
        episode's B; the last computes none, since its Bbar sets no later
        Q0, so under alpha "gir" it runs no sweep at all."""
        calls = {"episode_tensors": [], "run_episode": [], "episode_noises": [],
                 "run_uoro": [], "suffix_rows": [], "compute_B": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                # the episodes of the call: its noises', or its tape's batch
                if name == "episode_noises":
                    calls[name].append(len(result))
                elif name == "compute_B":  # one episode's rows
                    calls[name].append(args[0].rows.shape[1:])
                else:
                    tape = result if name == "run_episode" else args[0]
                    calls[name].append(tape.batch_shape)
                return result
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
        monkeypatch.setattr(training, "TENSOR_BLOCK", 2)
        per_update = []
        one_update = training._update

        def update(*args):
            before = {k: len(v) for k, v in calls.items()}
            result = one_update(*args)
            per_update.append({k: v[before[k]:] for k, v in calls.items()})
            return result

        monkeypatch.setattr(training, "_update", update)
        cfg = tiny_digits_config(q0_mode, alpha_mode, minibatch=5, updates=2,
                                 audit_every=2)
        training.run_training(cfg)
        whole = {"run_episode": [(5,)], "episode_noises": [5],
                 "run_uoro": [(5,)]}
        sweeps = [(2,), (2,), (1,)]
        b_work = [(4 * cfg.hidden,)] * 5 if q0_mode == "ours" else []
        assert per_update == [
            {**whole, "suffix_rows": sweeps, "compute_B": b_work,
             "episode_tensors": [()] * 3},
            {**whole, "suffix_rows": sweeps if alpha_mode == "ours" else [],
             "compute_B": [], "episode_tensors": [()] * 2}]

    @pytest.mark.parametrize("alpha_mode", ["ours", "gir"])
    def test_bbar_folds_the_mean_of_the_episodes_B(self, monkeypatch, alpha_mode):
        """Bbar after each non-final update of a 3-update run is, bit for bit,
        the mean of that update's per-episode compute_B results folded in
        with bbar_decay.  Training adds each episode's B as BLAS forms it into
        one sum and symmetrizes the sum once; that equals the mean of the
        symmetrized B only because each B is exactly symmetric as formed."""
        per_episode, results = [], []

        def b_work(episode, alpha, out=None):
            per_episode[-1].append(compute_B(episode, alpha))
            return compute_B(episode, alpha, out=out)

        one_update = training._update

        def update(*args):
            per_episode.append([])
            results.append(one_update(*args))
            return results[-1]

        monkeypatch.setattr(training, "compute_B", b_work)
        monkeypatch.setattr(training, "_update", update)
        monkeypatch.setattr(training, "TENSOR_BLOCK", 2)
        cfg = tiny_digits_config("ours", alpha_mode, minibatch=5, updates=3)
        training.run_training(cfg)
        assert [len(mats) for mats in per_episode] == [5, 5, 0]
        b_bar = None
        for mats, (_, _, _, written, *_) in zip(per_episode[:2], results):
            b_mean = functools.reduce(np.add, mats) / len(mats)
            b_bar = b_mean if b_bar is None else (
                cfg.bbar_decay * b_bar + (1.0 - cfg.bbar_decay) * b_mean)
            assert written.tobytes() == b_bar.tobytes()

    def test_state_cut_exact_alpha_matches_per_episode_replay(self, tmp_path,
                                                              monkeypatch):
        """A vanilla run at the state cut with alpha "ours" solves each
        episode's alpha from the suffix rows of its block's sweep; replay it
        with one suffix_rows, Newton solve and unbatched run_uoro per
        episode."""
        monkeypatch.setattr(training, "TENSOR_BLOCK", 2)
        cfg = tiny_queue_config(cut="state", alpha_mode="ours", minibatch=5,
                                updates=3, audit_every=2)
        training.run_training(cfg, out_dir=tmp_path)

        rng = np.random.default_rng(cfg.base_seed)
        task = training.build_task(cfg)
        params = init_params(cfg.cell, cfg.hidden, task.input_size, rng)
        head = task.make_head(rng)
        w_state = AdamState.zeros_like(params.theta())
        h_state = AdamState.zeros_like(head.weights)
        cut = CutVertex.STATE
        base = estimators.ScalingSchedule(estimators.GIR)
        expected = []
        for update in range(cfg.updates):
            grads, head_grads, batch_losses = [], [], []
            for j in range(cfg.minibatch):
                index = update * cfg.minibatch + j
                inputs, targets = task.episode(cfg.data_seed, index)
                tape = run_episode(params, inputs, targets, head)
                noise = episode_noise(cfg.base_seed, index, tape.length,
                                      params.cut_size(cut))
                alpha = solve_alpha_newton(compute_C(suffix_rows(tape, cut))).alpha
                report = estimators.run_uoro(tape, cut, noise, base.with_alpha(alpha))
                n_sup = sum(1 for t in targets if t is not None)
                grads.append(report.estimate / n_sup)
                head_grads.append(sum(
                    head.param_grad(tape.steps[t].h, targets[t])
                    for t in range(tape.length)
                ) / n_sup)
                batch_losses.append(tape.total_loss() / n_sup)
            grad = np.mean(grads, axis=0)
            params = params.with_theta(adam_update(
                params.theta(), grad, w_state,
                cfg.learning_rate, cfg.momentum, cfg.beta2, cfg.eps))
            head.weights = adam_update(head.weights, np.mean(head_grads, axis=0),
                                       h_state, cfg.learning_rate, cfg.momentum,
                                       cfg.beta2, cfg.eps)
            expected += [float(np.mean(batch_losses)), float(np.linalg.norm(grad))]
        rows = read_metrics_csv(tmp_path / "metrics.csv")
        written = [v for (_, _, metric, v) in rows if metric in ("loss", "grad_norm")]
        np.testing.assert_allclose(written, expected, rtol=1e-9)
        audits = [v for (_, _, metric, v) in rows if metric == "audit_offline_rel_err"]
        assert len(audits) == cfg.updates and max(audits) <= 1e-8

    @pytest.mark.parametrize("estimator", ["preuoro", "spatial", "reinforce"])
    def test_other_estimators_smoke(self, estimator):
        cfg = tiny_queue_config(estimator=estimator, updates=2, minibatch=2,
                                sigma=0.01)
        summary = training.run_training(cfg)
        assert np.isfinite(summary["final_loss"])

    def test_lstm_digits_with_optimal_scalings_smoke(self):
        cfg = ExperimentConfig(
            task="rowwise-digits", cell="lstm", hidden=5, estimator="uoro",
            alpha_mode="ours", q0_mode="ours", minibatch=2, updates=2,
            digits_limit=8, learning_rate=0.003, momentum=0.8,
            bbar_decay=0.9, damping=0.005, base_seed=3, data_seed=4,
        )
        summary = training.run_training(cfg)
        assert np.isfinite(summary["final_loss"])

    def test_q0_checked_and_inverted_once_per_update(self, monkeypatch):
        calls = {"checked_q0": 0, "cond": 0, "inv": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimators, "_checked_q0",
                            counted("checked_q0", estimators._checked_q0))
        monkeypatch.setattr(np.linalg, "cond", counted("cond", np.linalg.cond))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        per_update = []
        one_update = training._update

        def update(*args):
            before = dict(calls)
            result = one_update(*args)
            per_update.append({k: calls[k] - before[k] for k in calls})
            return result

        monkeypatch.setattr(training, "_update", update)
        cfg = ExperimentConfig(
            task="rowwise-digits", cell="lstm", hidden=5, estimator="uoro",
            alpha_mode="ours", q0_mode="ours", minibatch=3, updates=2,
            digits_limit=8, learning_rate=0.003, momentum=0.8,
            bbar_decay=0.9, damping=0.005, base_seed=3, data_seed=4,
            audit_every=1,
        )
        summary = training.run_training(cfg)
        assert np.isfinite(summary["final_loss"])
        # update 0 runs at identity Q0; update 1 shares one Q0 over 3 episodes
        assert per_update == [
            {"checked_q0": 0, "cond": 0, "inv": 0},
            {"checked_q0": 1, "cond": 1, "inv": 1},
        ]

    def test_suffix_rows_freed_before_the_sketch_runs(self, monkeypatch):
        """Under alpha "ours" the SuffixRows of every block, from which each
        episode's C, alpha and B come, are written into one rows buffer that
        the blocks of an update reuse, and are freed before the sketch runs,
        so the minibatch holds one block's rows or its sketch, not both
        (TENSOR_BLOCK's sizing)."""
        sweeps, addresses, alive = [], [], []

        def sweep(*args, **kwargs):
            rows = suffix_rows(*args, **kwargs)
            sweeps.append(weakref.ref(rows))
            addresses.append(rows.rows.__array_interface__["data"][0])
            return rows

        def run(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in sweeps))
            return run_uoro(*args, **kwargs)

        suffix_rows, run_uoro = training.suffix_rows, training.run_uoro
        monkeypatch.setattr(training, "suffix_rows", sweep)
        monkeypatch.setattr(training, "run_uoro", run)
        monkeypatch.setattr(training, "TENSOR_BLOCK", 2)
        training.run_training(tiny_digits_config("ours", "ours", minibatch=5,
                                                 updates=2, audit_every=2))
        assert len(sweeps) == 6 and alive == [0] * 2
        assert [len(set(addresses[i:i + 3])) for i in (0, 3)] == [1, 1]

    def test_audit_metric_value(self, tmp_path):
        cfg = tiny_queue_config(estimator="uoro", alpha_mode="ours",
                                updates=1, minibatch=1, audit_every=1)
        training.run_training(cfg, out_dir=tmp_path)
        from uorolab.reports import read_metrics_csv

        rows = read_metrics_csv(tmp_path / "metrics.csv")
        audits = [v for (_, _, metric, v) in rows if metric == "audit_offline_rel_err"]
        assert audits and max(audits) < 1e-9

    def test_queue_uoro_run_writes_audit_rows(self, tmp_path):
        """A greedy queue run updates from whole-minibatch batches; every
        audited episode is a slice of the batch, checked against the offline
        formula with its realized alpha."""
        cfg = tiny_queue_config(estimator="uoro", updates=3, minibatch=4,
                                audit_every=4)
        training.run_training(cfg, out_dir=tmp_path)
        from uorolab.reports import read_metrics_csv

        rows = read_metrics_csv(tmp_path / "metrics.csv")
        audits = [v for (_, _, metric, v) in rows if metric == "audit_offline_rel_err"]
        assert len(audits) == cfg.updates
        assert max(audits) <= 1e-8

    @pytest.mark.parametrize("contribution,audited", [
        ("current", True), ("stale-w", False), ("split", False)])
    def test_only_current_runs_are_audited(self, tmp_path, contribution, audited):
        """offline_total_estimate is the estimate of contribution "current";
        the other modes estimate something else and write no audit rows."""
        cfg = tiny_queue_config(estimator="uoro", updates=2, audit_every=1,
                                contribution=contribution)
        training.run_training(cfg, out_dir=tmp_path)
        from uorolab.reports import read_metrics_csv

        rows = read_metrics_csv(tmp_path / "metrics.csv")
        audits = [v for (_, _, metric, v) in rows if metric == "audit_offline_rel_err"]
        assert len(audits) == (cfg.updates if audited else 0)
        if audited:
            assert max(audits) <= 1e-8


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cfg = ExperimentConfig(
        task="queue", hidden=4, delay=2, stream_length=6, estimator="uoro",
        num_seeds=300, base_seed=21, data_seed=22,
    )
    out = tmp_path_factory.mktemp("report")
    return training.run_variance_report(cfg, out_dir=out), out


class TestVarianceReport:

    def test_grid_has_four_cells(self, report):
        summary, _ = report
        assert len(summary["grid"]) == 4
        combos = {(c["q0"], c["alpha"]) for c in summary["grid"]}
        assert combos == {("identity", "gir"), ("identity", "ours"),
                          ("ours", "gir"), ("ours", "ours")}

    def test_ablation_has_four_arms(self, report):
        summary, _ = report
        names = [c["estimator"] for c in summary["ablation"]]
        assert names == ["neither", "spatial", "temporal", "both"]
        exact_cell = summary["ablation"][0]
        assert exact_cell["measured_actual"] == 0.0

    def test_prediction_close_for_fixed_alpha_cell(self, report):
        summary, _ = report
        cell = next(c for c in summary["grid"]
                    if c["q0"] == "identity" and c["alpha"] == "ours")
        assert cell["measured_vq"] == pytest.approx(cell["predicted_vq"], rel=0.4)

    def test_files_written(self, report):
        _, out = report
        assert (out / "variance_report.csv").exists()
        assert (out / "variance_report.json").exists()

    def test_q0_checked_once_per_cell(self, monkeypatch):
        """A cell's Q0 is checked and inverted once, by its ScalingSchedule;
        the predictions, one per realized alpha under "gir", take the
        checked pair.  The identity cells check nothing."""
        checks = []
        checked_q0 = estimators._checked_q0

        def counted(*args):
            checks[-1] += 1
            return checked_q0(*args)

        def cell(*args):
            checks.append(0)
            return grid_cell(*args)

        grid_cell = training._grid_cell
        monkeypatch.setattr(estimators, "_checked_q0", counted)
        monkeypatch.setattr(variance, "_checked_q0", counted)
        monkeypatch.setattr(training, "_grid_cell", cell)
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=70, base_seed=35, data_seed=36)
        summary = training.run_variance_report(cfg)
        assert [(c["q0"], c["alpha"]) for c in summary["grid"]] == [
            ("identity", "gir"), ("identity", "ours"), ("ours", "gir"), ("ours", "ours")]
        assert checks == [0, 0, 1, 1]

    def test_one_compute_C_per_cell(self, monkeypatch):
        """A report forms C five times: once per cell at the cell's Q0, and
        once more at identity Q0 for the alpha behind Q0 and alpha "ours".
        The alpha-gir cells evaluate their realized alphas (64 each here)
        against the cell's one C, and the identity/ours cell solves alpha
        once."""
        calls = []
        compute = variance.compute_C

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return compute(*args, **kwargs)

        monkeypatch.setattr(variance, "compute_C", counted)
        monkeypatch.setattr(training, "compute_C", counted)
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=training.SEED_BLOCK + 6, base_seed=35,
                               data_seed=36)
        training.run_variance_report(cfg)
        assert len(calls) == 5

    def test_state_cut_refused_before_any_work(self, monkeypatch):
        """The Q0 "ours" cells need B, which the preactivation cut alone
        has: any other cut is refused before the instance's forward."""
        forbid_steps(monkeypatch)
        cfg = ExperimentConfig(task="queue", hidden=4, stream_length=6,
                               num_seeds=10, cut="state")
        with pytest.raises(UnsupportedCutError, match="'state'"):
            training.run_variance_report(cfg)


class TestEstimatorCompare:
    def test_smoke(self, tmp_path):
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=100, base_seed=31, data_seed=32)
        summary = training.estimator_compare(cfg, out_dir=tmp_path)
        assert [r["estimator"] for r in summary["estimators"]] == \
            ["neither", "spatial", "temporal", "both"]
        assert (tmp_path / "estimator_compare.csv").exists()

    def test_rows_are_the_projection_of_the_report_ablation(self):
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=70, base_seed=33, data_seed=34)
        ablation = training.run_variance_report(cfg)["ablation"]
        keys = ("estimator", "mean_error", "measured_actual", "seeds")
        assert training.estimator_compare(cfg)["estimators"] == [
            {key: row[key] for key in keys} for row in ablation]

    def test_each_report_runs_its_work_once(self, monkeypatch):
        """A variance report runs uoro once per NoiseBlock of each grid cell
        and of the "both" arm (the alpha-gir cells read their realized alphas
        from their own first block) and builds the instance's suffix rows
        once and no adjoint tensors; the estimator comparison builds
        neither."""
        calls = {"run_uoro": 0, "suffix_rows": 0, "episode_tensors": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=training.SEED_BLOCK + 6, base_seed=35,
                               data_seed=36)
        training.run_variance_report(cfg)
        assert calls == {"run_uoro": 5 * 2, "suffix_rows": 1, "episode_tensors": 0}
        calls.update(run_uoro=0, suffix_rows=0)
        training.estimator_compare(cfg)
        assert calls == {"run_uoro": 2, "suffix_rows": 0, "episode_tensors": 0}

    def test_runs_at_the_state_cut(self):
        """The ablation arms need no B, so the comparison runs at the state
        cut, where the variance report is refused."""
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=70, base_seed=37, data_seed=38, cut="state")
        rows = training.estimator_compare(cfg)["estimators"]
        assert [r["estimator"] for r in rows] == ["neither", "spatial", "temporal",
                                                  "both"]
        assert all(np.isfinite(r["measured_actual"]) for r in rows)
