import numpy as np
import pytest

from uorolab import estimators, training
from uorolab.config import ExperimentConfig, as_dict
from uorolab.exact import bptt_gradient, episode_tensors
from uorolab.noise import episode_noise
from uorolab.optim import AdamState, adam_update
from uorolab.reports import read_metrics_csv
from uorolab.rnn import CutVertex, init_params, run_episode
from uorolab.tasks import QueueSpec, make_queue_episode
from uorolab.variance import compute_B, compute_C, optimal_Q0, solve_alpha_newton


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
                    head.param_grad(tape.caches[t].h, targets[t])
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
                    tensors = episode_tensors(tape, cut)
                    alpha = solve_alpha_newton(
                        compute_C(tensors, base.Q0, base.Q0_inv)).alpha
                    schedule = base.with_alpha(alpha)
                if estimator == "uoro":
                    report = estimators.run_uoro(tape, cut, noise, schedule)
                else:
                    report = estimators.run_preuoro(tape, noise, schedule)
                if q0_mode == "ours":
                    if alpha_mode == "gir":
                        tensors = episode_tensors(tape, cut)
                        alpha = training.realized_alpha(report)
                    b_mats.append(compute_B(tensors, alpha))
                n_sup = sum(1 for t in targets if t is not None)
                grads.append(report.estimate / n_sup)
                head_grads.append(sum(
                    head.param_grad(tape.caches[t].h, targets[t])
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
        """Per update the exact protocol runs one forward and one suffix-row
        sweep per block of TENSOR_BLOCK episodes, and builds the adjoint
        tensors of the audited episodes only (0, 2, 4 and then 6, 8)."""
        calls = {"episode_tensors": 0, "run_episode": 0, "suffix_rows": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
        monkeypatch.setattr(training, "TENSOR_BLOCK", 2)
        per_update = []
        one_update = training._update

        def update(*args):
            before = dict(calls)
            result = one_update(*args)
            per_update.append({k: calls[k] - before[k] for k in calls})
            return result

        monkeypatch.setattr(training, "_update", update)
        cfg = tiny_digits_config(q0_mode, alpha_mode, minibatch=5, updates=2,
                                 audit_every=2)
        training.run_training(cfg)
        assert per_update == [
            {"episode_tensors": 3, "run_episode": 3, "suffix_rows": 3},
            {"episode_tensors": 2, "run_episode": 3, "suffix_rows": 3}]

    def test_state_cut_exact_alpha_matches_per_episode_replay(self, tmp_path,
                                                              monkeypatch):
        """A vanilla run at the state cut with alpha "ours" solves each
        episode's alpha from the suffix rows of its block's sweep; replay it
        with one episode_tensors, Newton solve and unbatched run_uoro per
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
                alpha = solve_alpha_newton(compute_C(episode_tensors(tape, cut))).alpha
                report = estimators.run_uoro(tape, cut, noise, base.with_alpha(alpha))
                n_sup = sum(1 for t in targets if t is not None)
                grads.append(report.estimate / n_sup)
                head_grads.append(sum(
                    head.param_grad(tape.caches[t].h, targets[t])
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

    def test_rtrl_forward_method_matches_bptt_method(self):
        a = training.run_training(
            tiny_queue_config(estimator="neither", exact_method="bptt",
                              updates=2, minibatch=2))
        b = training.run_training(
            tiny_queue_config(estimator="neither", exact_method="rtrl",
                              updates=2, minibatch=2))
        assert a["final_loss"] == pytest.approx(b["final_loss"], rel=1e-8)

    def test_streaming_mode_smoke(self):
        cfg = tiny_queue_config(streaming=True, estimator="uoro", updates=3,
                                learning_rate=0.002)
        summary = training.run_training(cfg)
        assert summary["mode"] == "streaming"
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

    @pytest.mark.parametrize("estimator,alpha_mode", [
        ("bptt", "gir"), ("spatial", "gir"), ("uoro", "ones"),
        ("preuoro", "ones"),
    ])
    def test_gir_scale_read_only_by_greedy_policy(self, estimator, alpha_mode):
        cfg = ExperimentConfig(
            task="rowwise-digits", cell="lstm", hidden=3, estimator=estimator,
            alpha_mode=alpha_mode, minibatch=1, updates=1, digits_limit=4,
            gir_scale=0.0, base_seed=3, data_seed=4,
        )
        assert np.isfinite(training.run_training(cfg)["final_loss"])
        greedy = ExperimentConfig(**{**as_dict(cfg), "estimator": "uoro",
                                     "alpha_mode": "gir"})
        with pytest.raises(ValueError, match="gir_scale"):
            training.run_training(greedy)

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


class TestEstimatorCompare:
    def test_smoke(self, tmp_path):
        cfg = ExperimentConfig(task="queue", hidden=3, delay=2, stream_length=5,
                               num_seeds=100, base_seed=31, data_seed=32)
        summary = training.estimator_compare(cfg, out_dir=tmp_path)
        assert [r["estimator"] for r in summary["estimators"]] == \
            ["neither", "spatial", "temporal", "both"]
        assert (tmp_path / "estimator_compare.csv").exists()
