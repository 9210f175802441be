"""Tasks and dataset ingestion.

Two tasks: a binary queue (emit the input stream delayed by a fixed number of
steps; earlier steps have no target and are masked from the loss) and
row-wise digit classification (28 rows of 28 pixels per episode, classify at
every step).  Digits come either from the standard IDX image/label file pair
or from a synthetic generator that draws class-dependent oriented stripe
patterns with the same shape.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IdxFormatError
from .noise import coin_block
from .rnn import Targets

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

SOURCE_IDX = "idx-files"
SOURCE_SYNTHETIC = "synthetic-stripes"


@dataclass(frozen=True)
class QueueSpec:
    delay: int = 4
    length: int = 16

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError("delay must be >= 1")
        if self.length <= self.delay:
            raise ValueError("stream length must exceed the delay")


def queue_block(spec: QueueSpec, seed: int, indices):
    """The episodes indices of a seed as one block: (inputs (B, T, 1),
    Targets (T, B)).  Episode i's inputs are iid fair-coin bits, drawn as from
    PCG64(SeedSequence(seed, spawn_key=(i,))) (noise.coin_block); its target
    at step t is the input from delay steps earlier, masked with a zero fill
    while undefined."""
    bits = coin_block(seed, indices, spec.length).astype(np.float64)
    values = np.zeros_like(bits)
    values[:, spec.delay:] = bits[:, : spec.length - spec.delay]
    mask = np.zeros_like(bits)
    mask[:, spec.delay:] = 1.0
    # episode rows first, then steps first, as rnn.episode_targets lays out
    # the list form
    return bits[..., None], Targets(np.swapaxes(values[..., None], 0, 1), mask.T)


def make_queue_episode(spec: QueueSpec, seed: int, episode_index: int):
    """One episode as (inputs (T, 1), targets list): the one-row view of
    queue_block, with each target a one-bit view of the inputs and None
    (masked) while undefined."""
    inputs = queue_block(spec, seed, (episode_index,))[0][0]
    return inputs, [None] * spec.delay + list(inputs[: spec.length - spec.delay])


@dataclass
class DigitDataset:
    images: np.ndarray  # (N, 28, 28) floats in [0, 1]
    labels: np.ndarray  # (N,) ints in 0..9

    def __len__(self):
        return self.images.shape[0]

    def episode(self, index: int):
        """Row-wise episode: inputs (28, 28), the same class label every step."""
        label = int(self.labels[index])
        return self.images[index], [label] * self.images.shape[1]

    def block(self, indices):
        """The episodes indices as one block: (inputs (B, 28, 28), Targets
        (T, B) of integer labels, every step supervised)."""
        indices = np.asarray(indices, dtype=np.intp)
        steps = self.images.shape[1]
        labels = np.repeat(self.labels[indices, None], steps, axis=1)
        # episode rows first, then steps first, as rnn.episode_targets lays
        # out the list form
        return self.images[indices], Targets(labels.T, np.ones(labels.shape).T)


def _read_exact(f, count: int, offset: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(f"truncated {what}: wanted {count} bytes", offset)
    return data


def load_idx_images(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = _read_exact(f, 4, 0, "magic number")
        (magic,) = struct.unpack(">I", header)
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}", 0
            )
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, 4, "image dims"))
        payload = _read_exact(f, n * rows * cols, 16, "image data")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows, cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = _read_exact(f, 4, 0, "magic number")
        (magic,) = struct.unpack(">I", header)
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}", 0
            )
        (n,) = struct.unpack(">I", _read_exact(f, 4, 4, "label count"))
        payload = _read_exact(f, n, 8, "label data")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def synthetic_stripes(n: int, seed: int = 0) -> DigitDataset:
    """Class-dependent oriented gratings: class k is a sinusoidal stripe
    pattern at angle pi*k/10 with a fixed per-class phase, plus a small
    per-sample phase jitter and pixel noise.  The fixed templates keep the
    ten classes linearly separable."""
    gen = np.random.default_rng(seed)
    size = 28
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    labels = gen.integers(0, 10, size=n)
    class_phase = np.linspace(0.0, np.pi / 2, 10)
    images = np.empty((n, size, size))
    freq = 2.0 * np.pi * 3.0 / size
    for i, label in enumerate(labels):
        angle = np.pi * label / 10.0
        phase = class_phase[label] + gen.uniform(-0.25, 0.25)
        wave = np.sin(freq * (xx * np.cos(angle) + yy * np.sin(angle)) + phase)
        noisy = 0.5 + 0.4 * wave + 0.08 * gen.standard_normal((size, size))
        images[i] = np.clip(noisy, 0.0, 1.0)
    return DigitDataset(images=images, labels=labels)


@lru_cache(maxsize=1)
def _synthetic_digits(count: int, seed: int) -> DigitDataset:
    """synthetic_stripes(count, seed), kept for the last (count, seed) asked
    for and shared: its arrays are read-only, so a write to them raises."""
    data = synthetic_stripes(count, seed=seed)
    data.images.flags.writeable = data.labels.flags.writeable = False
    return data


def load_rowwise_digits(
    source: str = SOURCE_SYNTHETIC,
    images_path=None,
    labels_path=None,
    limit: int | None = None,
    seed: int = 0,
) -> DigitDataset:
    """The digits of a source.  The synthetic set is shared by calls with
    the same (limit, seed) in a row, with read-only arrays."""
    if source == SOURCE_SYNTHETIC:
        return _synthetic_digits(2000 if limit is None else limit, seed)
    if source != SOURCE_IDX:
        raise ValueError(f"unknown digits source {source!r}")
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}", 4
        )
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    return DigitDataset(images=images, labels=labels)
