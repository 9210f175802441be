"""Deterministic per-episode noise streams.

Every estimator draws from an EpisodeNoise, which derives four mutually
independent streams from (base_seed, episode_index):

    tau:   per-step scalars, signs or standard normals (tau_kind)
    nu:    per-step standard normal vectors in the projection space
    sigma: independent scalar replica of tau (online second-moment estimator)
    mu:    independent vector replica of nu

and exposes u = tau * nu.  With sign tau, u is exactly standard normal.
Draws are a pure function of (base_seed, episode_index, step, stream), so two
runs over the same episode index are bit-identical and episodes may be
processed in any order.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SIGN = "sign"
GAUSSIAN = "gaussian"

_STREAMS = {"tau": 0, "nu": 1, "sigma": 2, "mu": 3}


def _generator(base_seed: int, episode_index: int, stream: str) -> np.random.Generator:
    seq = np.random.SeedSequence(
        entropy=int(base_seed), spawn_key=(int(episode_index), _STREAMS[stream])
    )
    return np.random.Generator(np.random.PCG64(seq))


def _scalars(gen: np.random.Generator, length: int, kind: str) -> np.ndarray:
    if kind == SIGN:
        return gen.integers(0, 2, size=length) * 2.0 - 1.0
    return gen.standard_normal(length)


@dataclass(frozen=True)
class EpisodeNoise:
    """All random draws one estimator needs for one episode.  Each stream is
    drawn on first access, so an estimator pays only for what it reads."""

    base_seed: int
    episode_index: int
    length: int
    dim: int
    tau_kind: str = SIGN

    def __post_init__(self):
        if self.tau_kind not in (SIGN, GAUSSIAN):
            raise ValueError(f"unknown tau kind {self.tau_kind!r}")

    def _gen(self, stream: str) -> np.random.Generator:
        return _generator(self.base_seed, self.episode_index, stream)

    @cached_property
    def tau(self) -> np.ndarray:  # (T,)
        return _scalars(self._gen("tau"), self.length, self.tau_kind)

    @cached_property
    def nu(self) -> np.ndarray:  # (T, dim)
        return self._gen("nu").standard_normal((self.length, self.dim))

    @cached_property
    def sigma(self) -> np.ndarray:  # (T,)
        return _scalars(self._gen("sigma"), self.length, self.tau_kind)

    @cached_property
    def mu(self) -> np.ndarray:  # (T, dim)
        return self._gen("mu").standard_normal((self.length, self.dim))

    @cached_property
    def u(self) -> np.ndarray:
        return self.tau[:, None] * self.nu


def episode_noise(
    base_seed: int,
    episode_index: int,
    length: int,
    dim: int,
    tau_kind: str = SIGN,
) -> EpisodeNoise:
    return EpisodeNoise(base_seed, episode_index, length, dim, tau_kind)
