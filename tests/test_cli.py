import json

import pytest

from uorolab.cli import main
from uorolab.config import ExperimentConfig, save
from uorolab.reports import read_metrics_csv


@pytest.fixture
def queue_config_file(tmp_path):
    cfg = ExperimentConfig(task="queue", hidden=4, delay=2, stream_length=8,
                           minibatch=3, updates=3, estimator="uoro",
                           learning_rate=0.01, num_seeds=120,
                           base_seed=41, data_seed=42)
    path = tmp_path / "config.txt"
    save(cfg, path)
    return path


class TestCli:
    def test_train_writes_outputs(self, queue_config_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--config", str(queue_config_file), "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["updates"] == 3
        assert "train:" in capsys.readouterr().out

    def test_seed_and_estimator_overrides(self, queue_config_file, tmp_path):
        out = tmp_path / "run2"
        rc = main(["train", "--config", str(queue_config_file),
                   "--seed", "77", "--estimator", "neither", "--out", str(out)])
        assert rc == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert all(seed == 77 for (_, seed, _, _) in rows)

    def test_variance_report(self, queue_config_file, tmp_path, capsys):
        out = tmp_path / "vr"
        rc = main(["variance-report", "--config", str(queue_config_file),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "variance_report.json").read_text())
        assert len(summary["grid"]) == 4
        assert "variance-report:" in capsys.readouterr().out

    def test_estimator_compare(self, queue_config_file, tmp_path):
        out = tmp_path / "ec"
        rc = main(["estimator-compare", "--config", str(queue_config_file),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "estimator_compare.csv").exists()

    def test_moment_check(self, tmp_path, capsys):
        out = tmp_path / "mc"
        rc = main(["moment-check", "--samples", "40000", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "moment_check.json").read_text())
        assert summary["pass"] is True
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "1", "-3"])
    def test_moment_check_refuses_fewer_than_two_samples(self, samples, tmp_path,
                                                         capsys):
        out = tmp_path / "mc"
        with pytest.raises(SystemExit) as exit_info:
            main(["moment-check", "--samples", samples, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_solve(self, queue_config_file, tmp_path):
        out = tmp_path / "as"
        rc = main(["alpha-solve", "--config", str(queue_config_file),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "alpha_solve.json").read_text())
        assert summary["converged"] is True
        assert len(summary["alpha"]) == 8

    def test_task_override(self, tmp_path):
        cfg = ExperimentConfig(hidden=4, minibatch=2, updates=2,
                               digits_limit=6, learning_rate=0.01)
        path = tmp_path / "cfg.txt"
        save(cfg, path)
        out = tmp_path / "digits"
        rc = main(["train", "--config", str(path), "--task", "rowwise-digits",
                   "--estimator", "both", "--out", str(out)])
        assert rc == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert any(metric == "loss" for (_, _, metric, _) in rows)

    def test_overrides_are_checked(self, tmp_path):
        with pytest.raises(ValueError, match="estimator"):
            main(["train", "--estimator", "uroro", "--out", str(tmp_path)])
        with pytest.raises(ValueError, match="task"):
            main(["train", "--task", "queues", "--out", str(tmp_path)])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonexistent-command"])
