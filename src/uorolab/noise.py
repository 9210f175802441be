"""Deterministic per-episode noise streams.

Every estimator draws its noise from four mutually independent streams of
an episode:

    tau:   per-step scalars, signs or standard normals (tau_kind)
    nu:    per-step standard normal vectors in the projection space
    sigma: independent scalar replica of tau (online second-moment estimator)
    mu:    independent vector replica of nu

and reads u = tau * nu.  With sign tau, u is exactly standard normal.

Contract.  Draws are a pure function of (base_seed, episode_index, step,
stream), so two runs over the same episode index are bit-identical and
episodes may be processed in any order.  Stream k (tau 0, nu 1, sigma 2,
mu 3) of episode i is bit for bit what numpy's Generator draws from
PCG64(SeedSequence(base_seed, spawn_key=(i, k))).  Seeds and indices are
non-negative integers of any size; a negative one raises ValueError, as in
SeedSequence.

Derivation.  No SeedSequence or PCG64 is built per stream.  The part of
SeedSequence's pool hash that depends only on the base seed (its entropy
words and the pool mixes) is computed once per seed and cached.  The spawn
words (index, stream) are mixed in and the output words formed by the same
32-bit arithmetic, on Python ints for one episode or on uint64 arrays for
several indices that are each one 32-bit word.  PCG64's two seeding steps
run on 128-bit Python ints.  Each stream is then drawn by the same Generator
calls as with a fresh generator, on one generator per thread whose PCG64
state is set just before the stream is drawn.

Forms.  NoiseBlock (episode_noises) is a block of episode indices of one
base seed: each stream is (T, B, ...), column j the stream of episode
indices[j], drawn on first access in that layout.  The block derives each
stream's states once; a slice is a sub-block that shares that derivation
and draws its own columns.  EpisodeNoise (episode_noise, or an integer
index of a block) is one episode: the one-column view of a block of that
one index, whose streams (T, ...) are column 0 of the block's.
"""

import threading
from functools import cached_property, lru_cache

import numpy as np

SIGN = "sign"
GAUSSIAN = "gaussian"

_STREAMS = {"tau": 0, "nu": 1, "sigma": 2, "mu": 3}

# SeedSequence's pool size and hash constants (numpy.random.bit_generator).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n) -> list:
    """The 32-bit words of a non-negative integer, least significant first,
    as SeedSequence splits its entropy and spawn keys."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


# The hash below runs on Python ints, or on uint64 arrays of 32-bit values:
# every product of two 32-bit values fits in 64 bits, and a difference that
# wraps modulo 2**64 is still right modulo 2**32.  Its constants do not
# depend on the data, so each run of them is computed once and cached.

@lru_cache(maxsize=256)
def _hash_consts(init: int, mult: int, count: int):
    """The (xor, multiplier) pairs of count successive hash steps from the
    const init, and the const after them."""
    pairs = []
    for _ in range(count):
        following = (init * mult) & _MASK32
        pairs.append((init, following))
        init = following
    return tuple(pairs), init


def _hash(value, xor, mult):
    """SeedSequence's hashmix of one word, given its two constants."""
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _absorb(pool, const, words):
    """Mix entropy words beyond the pool size into every word of the pool.
    Returns the new pool and hash const."""
    pairs, const = _hash_consts(const, _MULT_A, _POOL_SIZE * len(words))
    pool = list(pool)
    for k, word in enumerate(words):
        for i, (xor, mult) in enumerate(pairs[_POOL_SIZE * k:_POOL_SIZE * (k + 1)]):
            pool[i] = _mix(pool[i], _hash(word, xor, mult))
    return pool, const


@lru_cache(maxsize=64)
def _seed_pool(base_seed: int):
    """The pool and hash const after a base seed's entropy, padded with zero
    words to the pool size as SeedSequence pads it when a spawn key
    follows: the part of the hash that every episode and stream shares."""
    entropy = _words(base_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pairs, const = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    steps = iter(pairs)
    pool = [_hash(word, *next(steps)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    pool, const = _absorb(pool, const, entropy[_POOL_SIZE:])
    return tuple(pool), const


_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[0]


def _pcg64_states(pool) -> list:
    """PCG64's (state, inc) seeded from each final pool, as a list: one
    entry for a pool of ints, B for a pool of (B,) arrays.

    SeedSequence.generate_state(4, uint64) gives the 128-bit seed and
    sequence words; PCG64 seeds with inc = 2 seq + 1 and
    state = (seed + inc) * MULT + inc."""
    w = [_hash(pool[i % _POOL_SIZE], xor, mult)
         for i, (xor, mult) in enumerate(_OUTPUT_CONSTS)]
    # little-endian pairs of 32-bit words make the four uint64 words
    quads = (w[0] | (w[1] << 32), w[2] | (w[3] << 32),
             w[4] | (w[5] << 32), w[6] | (w[7] << 32))
    if isinstance(quads[0], np.ndarray):
        quads = zip(*(q.tolist() for q in quads))
    else:
        quads = (quads,)
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in quads:
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        seed = (seed_hi << 64) | seed_lo
        states.append((((seed + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


_thread = threading.local()


def _generator(state) -> np.random.Generator:
    """This thread's generator with its PCG64 set to state = (state, inc)."""
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def seeded_generator(entropy: int, spawn_key) -> np.random.Generator:
    """A generator in the state of Generator(PCG64(SeedSequence(entropy,
    spawn_key=spawn_key))) for a non-empty spawn_key.  It is this thread's
    shared generator: draw from it before the next call in the thread."""
    pool, _ = _absorb(*_seed_pool(int(entropy)),
                      [w for k in spawn_key for w in _words(k)])
    return _generator(_pcg64_states(pool)[0])


def coin_bits(gen: np.random.Generator, length: int) -> np.ndarray:
    """length fair coin bits, 0 or 1: bit for bit gen.integers(0, 2,
    size=length) of a generator with no 32-bit half buffered, as right after
    _generator sets its state.

    integers draws each value from the next 32-bit half of the successive
    64-bit outputs, low half first, by Lemire's method, which for the range 2
    never rejects and returns bit 31 of the half.  The outputs are laid out
    little-endian before they are read as halves, on any host."""
    raw = gen.bit_generator.random_raw((length + 1) // 2)
    return raw.astype("<u8", copy=False).view("<u4")[:length] >> 31


_SIGNS = np.array([-1.0, 1.0])  # the sign of each coin bit


def _scalars(gen: np.random.Generator, length: int, kind: str) -> np.ndarray:
    if kind == SIGN:
        return _SIGNS.take(coin_bits(gen, length))
    return gen.standard_normal(length)


def _check_kind(tau_kind: str):
    if tau_kind not in (SIGN, GAUSSIAN):
        raise ValueError(f"unknown tau kind {tau_kind!r}")


def _column(stream: str) -> cached_property:
    """A stream of a one-column view: column 0 of its block's, read on first
    access."""
    return cached_property(lambda view: getattr(view.block, stream)[:, 0])


class EpisodeNoise:
    """The noise of one episode: the one-column view of a NoiseBlock of that
    one index, with the block's base_seed, length, dim and tau_kind, its
    episode_index, and streams tau and sigma (T,) and nu, mu and u (T, dim),
    column 0 of the block's."""

    def __init__(self, block: "NoiseBlock"):
        (self.episode_index,) = block.indices
        self.base_seed, self.length = block.base_seed, block.length
        self.dim, self.tau_kind = block.dim, block.tau_kind
        self.block = block

    tau = _column("tau")
    nu = _column("nu")
    sigma = _column("sigma")
    mu = _column("mu")
    u = _column("u")


def episode_noise(
    base_seed: int,
    episode_index: int,
    length: int,
    dim: int,
    tau_kind: str = SIGN,
) -> EpisodeNoise:
    return EpisodeNoise(NoiseBlock(base_seed, (episode_index,), length, dim, tau_kind))


class NoiseBlock:
    """The noise of a block of episodes of one base seed: tau and sigma
    (T, B), nu, mu and u (T, B, dim), column j the stream of episode
    indices[j].  Each stream is drawn on first access.

    block[a:b] is the sub-block of those columns, which draws from the
    states its root block derived, so the states are derived once per root;
    block[j] is the EpisodeNoise view of the sub-block block[j:j+1]."""

    def __init__(self, base_seed: int, indices, length: int, dim: int,
                 tau_kind: str = SIGN):
        _check_kind(tau_kind)
        self.base_seed = base_seed
        self.indices = tuple(map(int, indices))
        self.length = length
        self.dim = dim
        self.tau_kind = tau_kind
        self._root = None  # the block this one was sliced from, if any
        self._rows = range(len(self.indices))  # its columns of the root
        self._derived = {}

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __getitem__(self, rows):
        if not isinstance(rows, slice):
            j = range(len(self))[rows]
            return EpisodeNoise(self[j:j + 1])
        part = NoiseBlock(self.base_seed, self.indices[rows], self.length,
                          self.dim, self.tau_kind)
        part._root = self if self._root is None else self._root
        part._rows = self._rows[rows]
        return part

    @cached_property
    def _index_pools(self) -> list:
        """(pool, const) after the episode indices, in groups: one group of
        (B,) uint64 arrays when there are several indices and each is one
        32-bit word, else one group of Python ints per index, of any number
        of words (a negative index raises as in SeedSequence)."""
        base = _seed_pool(int(self.base_seed))
        if len(self) > 1 and all(0 <= i <= _MASK32 for i in self.indices):
            return [_absorb(*base, [np.array(self.indices, dtype=np.uint64)])]
        return [_absorb(*base, _words(i)) for i in self.indices]

    def _states(self, stream: str) -> list:
        """PCG64 (state, inc) of one stream for each episode of the block,
        derived once per root block."""
        if self._root is not None:
            states = self._root._states(stream)
            return [states[i] for i in self._rows]
        states = self._derived.get(stream)
        if states is None:
            key = [_STREAMS[stream]]
            states = [state for pool, const in self._index_pools
                      for state in _pcg64_states(_absorb(pool, const, key)[0])]
            self._derived[stream] = states
        return states

    def _draw(self, stream: str, shape: tuple, draw) -> np.ndarray:
        """A (T, B, *shape) array whose column j is draw(generator of
        episode j's stream)."""
        states = self._states(stream)
        if len(states) == 1:  # the one draw, viewed as its only column
            return draw(_generator(states[0]))[:, None]
        out = np.empty((self.length, len(self), *shape))
        for j, state in enumerate(states):
            out[:, j] = draw(_generator(state))
        return out

    def _block_scalars(self, stream: str) -> np.ndarray:
        return self._draw(stream, (),
                          lambda gen: _scalars(gen, self.length, self.tau_kind))

    def _block_normals(self, stream: str) -> np.ndarray:
        return self._draw(stream, (self.dim,),
                          lambda gen: gen.standard_normal((self.length, self.dim)))

    @cached_property
    def tau(self) -> np.ndarray:  # (T, B)
        return self._block_scalars("tau")

    @cached_property
    def nu(self) -> np.ndarray:  # (T, B, dim)
        return self._block_normals("nu")

    @cached_property
    def sigma(self) -> np.ndarray:  # (T, B)
        return self._block_scalars("sigma")

    @cached_property
    def mu(self) -> np.ndarray:  # (T, B, dim)
        return self._block_normals("mu")

    @cached_property
    def u(self) -> np.ndarray:  # (T, B, dim)
        # nu drawn again and scaled in place, so a block that reads u does
        # not also hold its nu
        u = self._block_normals("nu")
        u *= self.tau[..., None]
        return u


def episode_noises(base_seed: int, indices, length: int, dim: int,
                   tau_kind: str = SIGN) -> NoiseBlock:
    """The noise of the episodes indices of one base seed, as one block."""
    return NoiseBlock(base_seed, indices, length, dim, tau_kind)
