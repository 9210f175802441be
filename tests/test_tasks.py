import struct

import numpy as np
import pytest

from uorolab import rnn, training
from uorolab.config import ExperimentConfig
from uorolab.errors import IdxFormatError
from uorolab.tasks import (
    QueueSpec,
    load_idx_images,
    load_idx_labels,
    load_rowwise_digits,
    make_queue_episode,
    queue_block,
    synthetic_stripes,
)

from helpers import make_queue_batch


def layout(x):
    """The strides of an array's axes of more than one entry: arrays of one
    shape and layout give the same results in the same bits downstream."""
    return [stride for stride, size in zip(x.strides, x.shape) if size > 1]


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

    def test_block_targets_are_the_list_form(self):
        """The block's mask and zero fill are episode_targets of the list
        views, in the same layout."""
        spec = QueueSpec(delay=3, length=9)
        indices = [4, 0, 7, 2**32 + 1]
        for block in (indices, indices[:3], indices[:1]):
            inputs, targets = queue_block(spec, 5, block)
            episodes = [make_queue_episode(spec, 5, i) for i in block]
            expected = rnn.episode_targets([ep[1] for ep in episodes], (len(block),), 9)
            np.testing.assert_array_equal(inputs, np.stack([ep[0] for ep in episodes]))
            for got, want in ((targets.values, expected.values),
                              (targets.mask, expected.mask)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype and layout(got) == layout(want)
            np.testing.assert_array_equal(targets.values[:3], 0.0)
            np.testing.assert_array_equal(targets.mask[:3], 0.0)

    def test_task_bundle_block_is_queue_block(self):
        cfg = ExperimentConfig(task="queue", delay=2, stream_length=7)
        inputs, targets = training.build_task(cfg).block(11, range(3, 6))
        expected = queue_block(QueueSpec(delay=2, length=7), 11, [3, 4, 5])
        np.testing.assert_array_equal(inputs, expected[0])
        np.testing.assert_array_equal(targets.values, expected[1].values)
        np.testing.assert_array_equal(targets.mask, expected[1].mask)

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

    def test_synthetic_set_is_made_once_and_read_only(self):
        data = load_rowwise_digits(limit=12, seed=5)
        assert load_rowwise_digits(limit=12, seed=5) is data
        assert load_rowwise_digits(limit=12, seed=6) is not data
        made = synthetic_stripes(12, seed=5)
        np.testing.assert_array_equal(data.images, made.images)
        np.testing.assert_array_equal(data.labels, made.labels)
        for array in (data.images, data.labels, data.episode(3)[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_episode_view(self):
        data = load_rowwise_digits(limit=10, seed=3)
        inputs, targets = data.episode(4)
        assert inputs.shape == (28, 28)
        assert len(targets) == 28
        assert all(t == targets[0] for t in targets)

    def test_task_block_is_the_stacked_episodes(self):
        """TaskBundle.block stacks the episodes that TaskBundle.episode
        gives, with their targets as episode_targets makes them: integer
        labels, every step supervised, and indices wrapped at the dataset
        size as (seed + index) % N."""
        cfg = ExperimentConfig(task="rowwise-digits", cell="lstm", digits_limit=10)
        task = training.build_task(cfg)
        seed, indices = 7, range(0, 6)  # rows 7, 8, 9, 0, 1, 2
        inputs, targets = task.block(seed, indices)
        episodes = [task.episode(seed, i) for i in indices]
        expected = rnn.episode_targets([ep[1] for ep in episodes], (6,), 28)
        np.testing.assert_array_equal(inputs, np.stack([ep[0] for ep in episodes]))
        np.testing.assert_array_equal(inputs[3], task.episode(seed, 3)[0])
        for got, want in ((targets.values, expected.values),
                          (targets.mask, expected.mask)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and layout(got) == layout(want)
        assert targets.values.dtype.kind == "i"

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
