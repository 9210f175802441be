import numpy as np
import pytest

from uorolab.config import (
    DIGITS_GRID_HYPERPARAMETERS,
    ExperimentConfig,
    canonical_estimator,
    digits_config,
    from_text,
    queue_config,
    to_text,
)
from uorolab.optim import AdamState, adam_update
from uorolab.reports import read_metrics_csv, write_metrics_csv

from helpers import median_filter


class TestAdam:
    def test_zero_grad_keeps_params(self):
        p = np.array([1.0, -2.0])
        state = AdamState.zeros_like(p)
        out = adam_update(p, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(out, p)

    def test_first_step_is_signlike(self):
        p = np.zeros(3)
        g = np.array([0.5, -3.0, 1e-12])
        state = AdamState.zeros_like(p)
        out = adam_update(p, g, state, lr=0.01, momentum=0.9)
        # bias-corrected first step moves by ~ -lr * g/(|g| + eps)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_matches_hand_iterated_trace(self):
        # scalar oracle: iterate the update equations from their definitions
        lr, b1, b2, eps = 0.05, 0.8, 0.99, 1e-8
        grads = [0.3, -0.1, 0.7, 0.2, -0.4, 0.05, 0.6, -0.9, 0.15, 0.25]
        m = v = 0.0
        p_ref = 1.0
        for k, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p_ref -= lr * (m / (1 - b1**k)) / (np.sqrt(v / (1 - b2**k)) + eps)
        p = np.array([1.0])
        state = AdamState.zeros_like(p)
        for g in grads:
            p = adam_update(p, np.array([g]), state, lr, b1, b2, eps)
        assert p[0] == pytest.approx(p_ref, rel=1e-12)

    def test_deterministic(self):
        p = np.array([0.5])
        s1, s2 = AdamState.zeros_like(p), AdamState.zeros_like(p)
        a = adam_update(p, np.array([0.2]), s1, 0.1)
        b = adam_update(p, np.array([0.2]), s2, 0.1)
        np.testing.assert_array_equal(a, b)


class TestConfig:
    def test_round_trip_lossless(self):
        cfg = ExperimentConfig(task="queue", hidden=13,
                               learning_rate=0.00313, streaming=True,
                               idx_images="/tmp/x y.idx")
        rebuilt = from_text(to_text(cfg))
        assert rebuilt == cfg
        assert to_text(rebuilt) == to_text(cfg)

    def test_comments_and_blanks_ignored(self):
        cfg = from_text("# comment\n\nhidden = 7\ntask = 'queue'  # trailing\n")
        assert cfg.hidden == 7
        assert cfg.task == "queue"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            from_text("not_a_key = 3\n")

    @pytest.mark.parametrize("key,bad", [
        ("task", "queues"), ("digits_source", "mnist"), ("cell", "gru"),
        ("estimator", "uroro"), ("cut", "parameter"), ("alpha_mode", "greedy"),
        ("q0_mode", "our"), ("contribution", "stale"), ("tau_kind", "uniform"),
        ("baseline", "noisefree"), ("exact_method", "rtlr"),
    ])
    def test_enum_values_checked_at_construction_and_load(self, key, bad):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{key: bad})
        with pytest.raises(ValueError, match=key):
            from_text(f"{key} = {bad!r}\n")

    @pytest.mark.parametrize("key,values", [
        ("delay", {"task": "queue", "delay": 8, "stream_length": 8}),
        ("hidden", {"hidden": 0}),
        ("minibatch", {"minibatch": 0}),
        ("updates", {"updates": -1}),
        ("num_seeds", {"num_seeds": 0}),
        ("sigma", {"sigma": 0.0}),
        ("learning_rate", {"learning_rate": -0.001}),
        ("learning_rate", {"learning_rate": float("nan")}),
        ("damping", {"damping": -1e-3}),
        ("cut", {"cell": "lstm", "cut": "state"}),
        ("cut", {"cut": "state", "q0_mode": "ours"}),
        ("cut", {"cut": "state", "q0_mode": "ours", "alpha_mode": "ours"}),
        ("streaming", {"task": "rowwise-digits", "streaming": True}),
        ("streaming", {"estimator": "reinforce", "streaming": True}),
        ("streaming", {"estimator": "neither", "streaming": True}),
        ("q0_mode", {"estimator": "preuoro", "q0_mode": "ours"}),
        ("q0_mode", {"estimator": "temporal", "q0_mode": "ours", "alpha_mode": "ours"}),
        ("q0_mode", {"estimator": "bptt", "q0_mode": "ours"}),
        ("q0_mode", {"estimator": "reinforce", "q0_mode": "ours"}),
        ("alpha_mode", {"estimator": "bptt", "alpha_mode": "ours"}),
        ("alpha_mode", {"estimator": "neither", "alpha_mode": "ours"}),
        ("alpha_mode", {"estimator": "spatial", "alpha_mode": "ours"}),
        ("alpha_mode", {"estimator": "reinforce", "alpha_mode": "ours"}),
        ("alpha_mode", {"streaming": True, "alpha_mode": "ones"}),
        ("alpha_mode", {"streaming": True, "estimator": "temporal", "alpha_mode": "ours"}),
        ("q0_mode", {"streaming": True, "q0_mode": "ours"}),
        ("alpha_mode", {"streaming": True, "alpha_mode": "ours", "q0_mode": "ours"}),
    ])
    def test_bad_ranges_refused_at_construction_and_load(self, key, values):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**values)
        text = "".join(f"{k} = {v!r}\n" for k, v in values.items())
        with pytest.raises(ValueError, match=key):
            from_text(text)

    def test_range_edges_accepted(self):
        ExperimentConfig(task="queue", delay=7, stream_length=8, damping=0.0)
        ExperimentConfig(task="rowwise-digits", delay=20, stream_length=8)
        ExperimentConfig(cell="vanilla-tanh", cut="state")
        ExperimentConfig(streaming=True, estimator="temporal")
        ExperimentConfig(estimator="both", q0_mode="ours", alpha_mode="ours")
        ExperimentConfig(estimator="temporal", alpha_mode="ours")

    def test_every_estimator_alias_accepted(self):
        for name in ("bptt", "rtrl", "neither", "spatial", "temporal", "preuoro",
                     "both", "uoro", "reinforce"):
            assert ExperimentConfig(estimator=name).estimator == name

    def test_estimator_aliases(self):
        assert canonical_estimator("neither") == "rtrl"
        assert canonical_estimator("temporal") == "preuoro"
        assert canonical_estimator("both") == "uoro"
        assert canonical_estimator("uoro") == "uoro"

    def test_published_digit_grid_values(self):
        cfg = digits_config("ours", "ours")
        assert cfg.learning_rate == 0.003
        assert cfg.momentum == 0.8
        assert cfg.bbar_decay == 0.9
        assert cfg.damping == 0.005
        assert DIGITS_GRID_HYPERPARAMETERS[("identity", "gir")]["momentum"] == 0.8

    def test_published_queue_rates(self):
        assert queue_config("both").learning_rate == 0.002
        assert queue_config("neither").learning_rate == 0.008
        assert queue_config("temporal").learning_rate == 0.0008
        assert queue_config("both").minibatch == 100
        assert queue_config("both").momentum == 0.5


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        rows = [(0, 7, "loss", 0.6931471805599453), (1, 7, "grad_norm", 1.25e-09)]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows)
        assert read_metrics_csv(path) == rows

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [(i, 3, "loss", float(np.sin(i))) for i in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, rows)
        write_metrics_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metric_name_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_metrics_csv(tmp_path / "bad.csv", [(0, 0, "a,b", 1.0)])

    def test_median_filter_kills_spikes(self):
        values = np.full(50, 0.5)
        values[20] = 100.0
        smoothed = median_filter(values, window=9)
        np.testing.assert_allclose(smoothed, 0.5)

    def test_median_filter_window_validation(self):
        with pytest.raises(ValueError):
            median_filter(np.ones(5), window=4)
