import struct

import numpy as np
import pytest

from uorolab.errors import IdxFormatError
from uorolab.tasks import (
    QueueSpec,
    load_idx_images,
    load_idx_labels,
    load_rowwise_digits,
    make_queue_episode,
    synthetic_stripes,
)

from helpers import make_queue_batch


class TestQueue:
    def test_targets_are_delayed_inputs(self):
        spec = QueueSpec(delay=4, length=12)
        inputs, targets = make_queue_episode(spec, seed=3, episode_index=0)
        assert inputs.shape == (12, 1)
        for t in range(12):
            if t < 4:
                assert targets[t] is None
            else:
                assert targets[t][0] == inputs[t - 4, 0]

    def test_inputs_are_bits(self):
        spec = QueueSpec(delay=1, length=200)
        inputs, _ = make_queue_episode(spec, seed=5, episode_index=1)
        assert set(np.unique(inputs)) <= {0.0, 1.0}
        assert 0.3 < inputs.mean() < 0.7  # fair coin

    def test_batch_of_hundred(self):
        spec = QueueSpec()
        episodes = make_queue_batch(spec, seed=0, batch=100)
        assert len(episodes) == 100
        # distinct episodes get distinct streams
        assert not np.array_equal(episodes[0][0], episodes[1][0])

    def test_deterministic(self):
        spec = QueueSpec()
        a, _ = make_queue_episode(spec, 9, 4)
        b, _ = make_queue_episode(spec, 9, 4)
        np.testing.assert_array_equal(a, b)

    def test_length_must_exceed_delay(self):
        with pytest.raises(ValueError):
            QueueSpec(delay=4, length=4)


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(bytes(int(v) for v in labels))


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(5, 28, 28))
        write_idx_images(tmp_path / "imgs", raw)
        write_idx_labels(tmp_path / "labels", [1, 2, 3, 4, 5])
        images = load_idx_images(tmp_path / "imgs")
        labels = load_idx_labels(tmp_path / "labels")
        np.testing.assert_allclose(images, raw / 255.0, atol=1e-12)
        np.testing.assert_array_equal(labels, [1, 2, 3, 4, 5])
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(IdxFormatError) as err:
            load_idx_images(path)
        assert err.value.offset == 0

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(IdxFormatError) as err:
            load_idx_images(path)
        assert err.value.offset == 0
        assert "0xdeadbeef" in str(err.value)

    def test_truncated_payload_reports_data_offset(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\x00" * 100)
        with pytest.raises(IdxFormatError) as err:
            load_idx_images(path)
        assert err.value.offset == 16

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        write_idx_images(tmp_path / "imgs", rng.integers(0, 256, size=(3, 4, 4)))
        write_idx_labels(tmp_path / "labels", [0, 1])
        with pytest.raises(IdxFormatError):
            load_rowwise_digits("idx-files", tmp_path / "imgs", tmp_path / "labels")


class TestSyntheticStripes:
    def test_shapes_and_range(self):
        data = synthetic_stripes(50, seed=2)
        assert data.images.shape == (50, 28, 28)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
        assert set(np.unique(data.labels)) <= set(range(10))

    def test_episode_view(self):
        data = load_rowwise_digits(limit=10, seed=3)
        inputs, targets = data.episode(4)
        assert inputs.shape == (28, 28)
        assert len(targets) == 28
        assert all(t == targets[0] for t in targets)

    def test_classes_linearly_separable(self):
        # multinomial logistic probe on flattened images must beat 60%
        data = synthetic_stripes(600, seed=4)
        x = data.images.reshape(len(data), -1)
        x = np.concatenate([x, np.ones((len(data), 1))], axis=1)
        y = data.labels
        w = np.zeros((10, x.shape[1]))
        idx = np.arange(len(data))
        for _ in range(300):
            logits = x @ w.T
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            err = p
            err[idx, y] -= 1.0
            w -= 0.5 * (err.T @ x) / len(data)
        accuracy = float(np.mean(np.argmax(x @ w.T, axis=1) == y))
        assert accuracy > 0.6
