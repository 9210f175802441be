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
SeedSequence, when the noise or coin block is made, before any draw.

Derivation, on two routes.  On the per-index route, for one episode, or a
block of one index or with an index wider than one 32-bit word, a stream is
drawn from numpy's own PCG64(SeedSequence(base_seed, spawn_key=(i, k))).
On the array route, for a block of several one-word indices, the PCG64
states of every episode's four streams are derived together on uint64
arrays and kept as 64-bit limbs (state_hi, state_lo, inc_hi, inc_lo); the
part of SeedSequence's pool hash that depends only on the base seed is
computed once per seed and cached, and so is the hash of each stream word
at each pool position.  Sign streams and coin_block's bits step the limbs
together by PCG64's 128-bit LCG and XSL-RR output (O'Neill 2014, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation"), with no generator; normals come from numpy's
ziggurat, on one generator per thread seated at each column's state just
before the column is drawn.  On both routes one reader, _raw_bits, takes
the coin bits from the 64-bit raw outputs.

Forms.  NoiseBlock (episode_noises) is a block of episode indices of one
base seed: each stream is (T, B, ...), column j the stream of episode
indices[j], drawn on first access in that layout; on the per-index route,
column j is what block[j] draws.  A slice is a new block of its columns'
indices, which derives its states again.  EpisodeNoise (episode_noise, or
an integer index of a block) is one episode on the per-index route, which
draws its streams (T, ...) on first access.  coin_block draws fair coin
bits, such as the queue task's inputs, for a block of one-element spawn
keys (i,) on the same two routes.
"""

import threading
from functools import cached_property, lru_cache
from typing import NamedTuple

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


def _check_key(base_seed, indices):
    """Refuse a negative base seed or episode index, as SeedSequence does."""
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    for index in indices:
        if index < 0:
            raise ValueError(f"episode index must be non-negative, got {index}")


def _words(n: int) -> list:
    """The 32-bit words of a non-negative integer, least significant first,
    as SeedSequence splits its entropy."""
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


@lru_cache(maxsize=256)
def _stream_hashes(const: int) -> tuple:
    """The stream words folded: row k holds the hash of stream word k at
    each pool position, absorbed after the hash const, so that stream k's
    pool is _mix(pool[i], row[i]) at each position i."""
    pairs = _hash_consts(const, _MULT_A, _POOL_SIZE)[0]
    return tuple(tuple(_hash(k, xor, mult) for xor, mult in pairs)
                 for k in range(len(_STREAMS)))


# PCG64 on uint64 limbs: a 128-bit value is its high and low 64-bit words,
# arrays of any shape, and numpy's uint64 arithmetic wraps modulo 2**64.

class _Limbs(NamedTuple):
    """PCG64 states and increments as uint64 arrays of one shape."""
    state_hi: np.ndarray
    state_lo: np.ndarray
    inc_hi: np.ndarray
    inc_lo: np.ndarray

    def take(self, rows) -> "_Limbs":
        """The limbs at rows of the leading axis."""
        return _Limbs(*(limb[rows] for limb in self))

    def random_raw(self, words: int) -> np.ndarray:
        """(B, words) raw outputs of (B,) limbs, as _limb_raw."""
        return _limb_raw(self, words)

    def states(self) -> list:
        """The (state, inc) Python ints of each element, as a generator is
        seated."""
        hi, lo, inc_hi, inc_lo = (limb.tolist() for limb in self)
        return [((s_hi << 64) | s_lo, (i_hi << 64) | i_lo)
                for s_hi, s_lo, i_hi, i_lo in zip(hi, lo, inc_hi, inc_lo)]


def _u64(value) -> np.ndarray:
    """A 0-d uint64 array: as an operand of uint64 arrays it costs less per
    ufunc call than a Python int or a numpy scalar."""
    return np.array(value, dtype=np.uint64)


_ONE, _U32, _U58, _U63, _LO32 = map(_u64, (1, 32, 58, 63, _MASK32))
_MULT_HI, _MULT_LO = map(_u64, divmod(_PCG64_MULT, 1 << 64))
_MULT_LO_LO, _MULT_LO_HI = map(_u64, (_PCG64_MULT & _MASK32,
                                      (_PCG64_MULT >> 32) & _MASK32))
_OUTPUT_XOR, _OUTPUT_MULT = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[0],
                                     dtype=np.uint64).T[..., None]


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * MULT + (inc_hi, inc_lo) modulo 2**128.  The high word of
    lo * MULT_LO comes from 32-bit halves (Hacker's Delight, mulhu), whose
    products and partial sums each fit in 64 bits."""
    lo_lo, lo_hi = lo & _LO32, lo >> _U32
    mid = lo_hi * _MULT_LO_LO + ((lo_lo * _MULT_LO_LO) >> _U32)
    cross = (mid & _LO32) + lo_lo * _MULT_LO_HI
    lo_mult_hi = lo_hi * _MULT_LO_HI + (mid >> _U32) + (cross >> _U32)
    hi = lo_mult_hi + lo * _MULT_HI + hi * _MULT_LO + inc_hi
    lo = lo * _MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _limb_states(pool: np.ndarray) -> _Limbs:
    """PCG64's states seeded from final pools (4, ...) of uint64 arrays, one
    per trailing element: SeedSequence.generate_state(4, uint64) hashes each
    pool into eight 32-bit words, which little-endian pairs make the 128-bit
    seed and sequence words; PCG64 seeds with inc = 2 seq + 1 and
    state = (seed + inc) * MULT + inc."""
    shape = pool.shape[1:]
    pool = pool.reshape(_POOL_SIZE, -1)
    w = _hash(np.concatenate([pool, pool]), _OUTPUT_XOR, _OUTPUT_MULT)
    seed_hi, seed_lo, seq_hi, seq_lo = w[0::2] | (w[1::2] << _U32)
    inc_hi = (seq_hi << _ONE) | (seq_lo >> _U63)
    inc_lo = (seq_lo << _ONE) | _ONE
    lo = seed_lo + inc_lo
    hi = seed_hi + inc_hi + (lo < inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    return _Limbs(*(limb.reshape(shape) for limb in (hi, lo, inc_hi, inc_lo)))


def _raw_bits(raw: np.ndarray, length: int) -> np.ndarray:
    """length coin bits from 64-bit outputs (..., words): bit 31 of each
    32-bit half, low half first, the halves laid out little-endian on any
    host."""
    return raw.astype("<u8", copy=False).view("<u4")[..., :length] >> 31


def _limb_raw(limbs: _Limbs, words: int) -> np.ndarray:
    """(B, words) 64-bit outputs, row j bit for bit random_raw(words) of a
    generator seated at state j of (B,) limbs: the states stepped together,
    each step s <- s * MULT + inc followed by the XSL-RR output
    rotr64(hi ^ lo, hi >> 58)."""
    hi, lo, inc_hi, inc_lo = limbs
    raw = np.empty((len(hi), words), dtype=np.uint64)
    for m in range(words):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        np.bitwise_or(x >> rot, x << (np.negative(rot) & _U63), out=raw[:, m])
    return raw


def _coin_bits(bits, length: int) -> np.ndarray:
    """(..., length) fair coin bits, 0 or 1, bit for bit
    Generator.integers(0, 2, size=length) of bits: a PCG64, or (B,) limbs,
    row j that of a generator seated at state j, stepped with no generator.

    integers draws each value from the next 32-bit half of the successive
    64-bit outputs, low half first, by Lemire's method, which for the range 2
    never rejects and returns bit 31 of the half (_raw_bits)."""
    return _raw_bits(bits.random_raw((length + 1) // 2), length)


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


def _array_route(indices: tuple) -> bool:
    """Whether indices take the array route: several, each one 32-bit word."""
    return len(indices) > 1 and max(indices) <= _MASK32


def _index_pool(base_seed: int, indices: tuple):
    """(pool, const) after base_seed and each one-element spawn key (i,) of
    the array route: pool is a (4, B) uint64 array, row i pool position i."""
    pool, const = _seed_pool(int(base_seed))
    pairs, const = _hash_consts(const, _MULT_A, _POOL_SIZE)
    xor, mult = np.array(pairs, dtype=np.uint64).T[..., None]
    words = _hash(np.array(indices, dtype=np.uint64), xor, mult)
    return _mix(np.array(pool, dtype=np.uint64)[:, None], words), const


def _pcg64(base_seed: int, spawn_key: tuple) -> np.random.PCG64:
    """The per-index route: numpy's own PCG64 of one spawn key."""
    return np.random.PCG64(np.random.SeedSequence(int(base_seed),
                                                  spawn_key=spawn_key))


def coin_block(base_seed: int, indices, length: int) -> np.ndarray:
    """(B, length) fair coin bits, 0 or 1: row j bit for bit
    Generator(PCG64(SeedSequence(base_seed, spawn_key=(indices[j],))))
    .integers(0, 2, size=length), on the route a NoiseBlock of indices
    takes for its sign streams."""
    indices = tuple(map(int, indices))
    _check_key(base_seed, indices)
    if _array_route(indices):
        return _coin_bits(_limb_states(_index_pool(base_seed, indices)[0]), length)
    return np.array([_coin_bits(_pcg64(base_seed, (i,)), length) for i in indices],
                    dtype=np.uint32).reshape(len(indices), length)


_SIGNS = np.array([-1.0, 1.0])  # the sign of each coin bit


def _check_kind(tau_kind: str):
    if tau_kind not in (SIGN, GAUSSIAN):
        raise ValueError(f"unknown tau kind {tau_kind!r}")


class EpisodeNoise:
    """The noise of one episode: its base_seed, episode_index, length, dim
    and tau_kind, and streams tau and sigma (T,) and nu, mu and u (T, dim),
    each drawn on first access from numpy's own seeding of the stream."""

    def __init__(self, base_seed: int, episode_index: int, length: int, dim: int,
                 tau_kind: str = SIGN):
        _check_kind(tau_kind)
        _check_key(base_seed, (episode_index,))
        self.base_seed, self.episode_index = base_seed, episode_index
        self.length, self.dim, self.tau_kind = length, dim, tau_kind

    def _draw(self, stream: str, shape: tuple) -> np.ndarray:
        """A (T, *shape) stream drawn afresh from the stream's own PCG64:
        signs read from its raw outputs, normals through a Generator."""
        bits = _pcg64(self.base_seed, (int(self.episode_index), _STREAMS[stream]))
        if shape == () and self.tau_kind == SIGN:
            return _SIGNS.take(_coin_bits(bits, self.length))
        return np.random.Generator(bits).standard_normal((self.length, *shape))

    tau = cached_property(lambda self: self._draw("tau", ()))
    nu = cached_property(lambda self: self._draw("nu", (self.dim,)))
    sigma = cached_property(lambda self: self._draw("sigma", ()))
    mu = cached_property(lambda self: self._draw("mu", (self.dim,)))

    @cached_property
    def u(self) -> np.ndarray:
        u = self._draw("nu", (self.dim,))
        u *= self.tau[:, None]
        return u


def episode_noise(base_seed: int, episode_index: int, length: int, dim: int,
                  tau_kind: str = SIGN) -> EpisodeNoise:
    return EpisodeNoise(base_seed, episode_index, length, dim, tau_kind)


class NoiseBlock:
    """The noise of a block of episodes of one base seed: tau and sigma
    (T, B), nu, mu and u (T, B, dim), column j the stream of episode
    indices[j].  Each stream is drawn on first access.

    block[a:b] is the NoiseBlock of those columns' indices, which draws the
    same streams, and block[j] the EpisodeNoise of episode indices[j]."""

    def __init__(self, base_seed: int, indices, length: int, dim: int,
                 tau_kind: str = SIGN):
        _check_kind(tau_kind)
        self.base_seed = base_seed
        self.indices = tuple(map(int, indices))
        _check_key(base_seed, self.indices)
        self.length, self.dim, self.tau_kind = length, dim, tau_kind

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __getitem__(self, rows):
        kind = NoiseBlock if isinstance(rows, slice) else EpisodeNoise
        return kind(self.base_seed, self.indices[rows], self.length, self.dim,
                    self.tau_kind)

    @cached_property
    def _limbs(self) -> _Limbs:
        """On the array route, the PCG64 states of all four streams of every
        episode, derived together: (4, B) limbs, row k stream k's."""
        pool, const = _index_pool(self.base_seed, self.indices)
        hashes = np.array(_stream_hashes(const), dtype=np.uint64)
        return _limb_states(_mix(pool[:, None], hashes.T[..., None]))

    def _columns(self, stream: str, shape: tuple) -> np.ndarray:
        """A (T, B, *shape) stream drawn column by column: on the array route
        from the thread's generator seated at each column's state, else as
        the EpisodeNoise of each column draws it."""
        out = np.empty((self.length, len(self), *shape))
        if _array_route(self.indices):
            for j, state in enumerate(self._limbs.take(_STREAMS[stream]).states()):
                out[:, j] = _generator(state).standard_normal((self.length, *shape))
        else:
            for j, episode in enumerate(self):
                out[:, j] = episode._draw(stream, shape)
        return out

    def _block_scalars(self, stream: str) -> np.ndarray:
        if self.tau_kind == SIGN and _array_route(self.indices):
            limbs = self._limbs.take(_STREAMS[stream])
            return _SIGNS.take(_coin_bits(limbs, self.length).T)
        return self._columns(stream, ())

    @cached_property
    def tau(self) -> np.ndarray:  # (T, B)
        return self._block_scalars("tau")

    @cached_property
    def nu(self) -> np.ndarray:  # (T, B, dim)
        return self._columns("nu", (self.dim,))

    @cached_property
    def sigma(self) -> np.ndarray:  # (T, B)
        return self._block_scalars("sigma")

    @cached_property
    def mu(self) -> np.ndarray:  # (T, B, dim)
        return self._columns("mu", (self.dim,))

    @cached_property
    def u(self) -> np.ndarray:  # (T, B, dim)
        # nu drawn again and scaled in place, so a block that reads u does
        # not also hold its nu
        u = self._columns("nu", (self.dim,))
        u *= self.tau[..., None]
        return u


def episode_noises(base_seed: int, indices, length: int, dim: int,
                   tau_kind: str = SIGN) -> NoiseBlock:
    """The noise of the episodes indices of one base seed, as one block."""
    return NoiseBlock(base_seed, indices, length, dim, tau_kind)
