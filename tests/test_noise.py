import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab import noise
from uorolab.noise import (GAUSSIAN, SIGN, EpisodeNoise, coin_block, episode_noise,
                          episode_noises)
from uorolab.tasks import QueueSpec, make_queue_episode, queue_block


class TestEpisodeNoise:
    def test_bit_identical_replay(self):
        a = episode_noise(123, 7, length=5, dim=3)
        b = episode_noise(123, 7, length=5, dim=3)
        np.testing.assert_array_equal(a.tau, b.tau)
        np.testing.assert_array_equal(a.nu, b.nu)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_episodes_differ(self):
        a = episode_noise(123, 7, length=5, dim=3)
        b = episode_noise(123, 8, length=5, dim=3)
        assert not np.array_equal(a.nu, b.nu)

    def test_streams_differ(self):
        n = episode_noise(123, 0, length=64, dim=4)
        assert not np.array_equal(n.nu, n.mu)
        assert not np.array_equal(n.tau, n.sigma)

    def test_sign_tau_values(self):
        n = episode_noise(5, 0, length=1000, dim=1, tau_kind=SIGN)
        assert set(np.unique(n.tau)) == {-1.0, 1.0}
        # fair coin: mean within 5 sigma of zero
        assert abs(n.tau.mean()) < 5 / np.sqrt(1000)

    def test_gaussian_tau(self):
        n = episode_noise(5, 0, length=20000, dim=1, tau_kind=GAUSSIAN)
        assert abs(n.tau.mean()) < 0.05
        assert n.tau.var() == pytest.approx(1.0, abs=0.05)

    def test_u_has_unit_covariance(self):
        n = episode_noise(9, 0, length=50000, dim=3, tau_kind=SIGN)
        cov = n.u.T @ n.u / n.length
        np.testing.assert_allclose(cov, np.eye(3), atol=0.05)

    def test_unknown_tau_kind(self):
        with pytest.raises(ValueError):
            episode_noise(1, 0, length=2, dim=2, tau_kind="uniform")


# Bit identity with numpy's own seeding: stream k of episode i is what a
# Generator draws from PCG64(SeedSequence(base_seed, spawn_key=(i, k))).

STREAMS = ("tau", "nu", "sigma", "mu", "u")
EDGE_INTS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)


def fresh(base_seed, spawn_key):
    """A generator seeded from scratch the way numpy seeds one."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(base_seed, spawn_key=spawn_key)))


def reference_streams(base_seed, index, length, dim, tau_kind=SIGN):
    def scalars(gen):
        if tau_kind == SIGN:
            return gen.integers(0, 2, size=length) * 2.0 - 1.0
        return gen.standard_normal(length)

    tau = scalars(fresh(base_seed, (index, 0)))
    nu = fresh(base_seed, (index, 1)).standard_normal((length, dim))
    sigma = scalars(fresh(base_seed, (index, 2)))
    mu = fresh(base_seed, (index, 3)).standard_normal((length, dim))
    return {"tau": tau, "nu": nu, "sigma": sigma, "mu": mu, "u": tau[:, None] * nu}


def assert_block_matches(block, tau_kind=SIGN):
    """Every column of the block, and the EpisodeNoise view block[j] of each,
    draws numpy's streams."""
    for j, index in enumerate(block.indices):
        expected = reference_streams(block.base_seed, index, block.length,
                                     block.dim, tau_kind)
        view = block[j]
        assert view.episode_index == index
        for stream in STREAMS:
            assert np.array_equal(getattr(block, stream)[:, j], expected[stream]), \
                (block.base_seed, index, stream)
            assert np.array_equal(getattr(view, stream), expected[stream]), \
                (block.base_seed, index, stream, "view")


class TestBitIdentity:
    @pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
    @pytest.mark.parametrize("base_seed", [0, 5, 2**32 - 1])
    def test_single_form_every_stream(self, base_seed, tau_kind):
        for index in (0, 1, 7, 299):
            single = episode_noise(base_seed, index, 6, 3, tau_kind)
            expected = reference_streams(base_seed, index, 6, 3, tau_kind)
            for stream in STREAMS:
                assert np.array_equal(getattr(single, stream), expected[stream])
                assert getattr(single, stream).flags.c_contiguous
            assert_block_matches(episode_noises(base_seed, [index], 6, 3, tau_kind),
                                 tau_kind)

    @pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
    def test_every_block_row(self, tau_kind):
        block = episode_noises(17, range(40, 72), 5, 4, tau_kind)
        assert block.tau.shape == (5, 32) and block.nu.shape == (5, 32, 4)
        assert_block_matches(block, tau_kind)

    def test_block_layout_is_steps_first_and_contiguous(self):
        block = episode_noises(3, range(8), 6, 5)
        for stream in STREAMS:
            assert getattr(block, stream).flags.c_contiguous
        assert block.u.shape == (6, 8, 5)

    def test_sub_block_slices(self):
        block = episode_noises(23, range(100, 110), 4, 3, GAUSSIAN)
        early = block[2:9]
        nested = early[1::3]
        reverse = block[8:1:-2]
        assert nested.indices == block.indices[3:9:3]
        for part, rows in ((early, slice(2, 9)), (nested, slice(3, 9, 3)),
                           (reverse, slice(8, 1, -2))):
            assert part.indices == block.indices[rows]
            for stream in STREAMS:
                assert np.array_equal(getattr(part, stream),
                                      getattr(block, stream)[:, rows])
        assert_block_matches(nested, GAUSSIAN)

    def test_block_items_are_episode_noises(self):
        block = episode_noises(9, [4, 0, 2**32 - 1], 3, 2)
        for j, index in enumerate(block.indices):
            single = block[j]
            assert ((single.base_seed, single.episode_index, single.length,
                     single.dim, single.tau_kind) == (9, index, 3, 2, SIGN))
            assert isinstance(single, EpisodeNoise)
            for stream in STREAMS:
                assert np.array_equal(getattr(single, stream),
                                      getattr(episode_noise(9, index, 3, 2), stream))
        assert [n.episode_index for n in block] == [4, 0, 2**32 - 1]
        assert block[-1].episode_index == 2**32 - 1

    @settings(max_examples=40, deadline=None)
    @given(base_seed=st.one_of(st.sampled_from(EDGE_INTS), st.integers(0, 2**140)),
           indices=st.lists(st.one_of(st.sampled_from(EDGE_INTS),
                                      st.integers(0, 2**70)),
                            min_size=1, max_size=4),
           tau_kind=st.sampled_from([SIGN, GAUSSIAN]))
    def test_property_matches_numpy_seeding(self, base_seed, indices, tau_kind):
        assert_block_matches(episode_noises(base_seed, indices, 3, 2, tau_kind),
                             tau_kind)
        assert_block_matches(episode_noises(base_seed, indices[-1:], 3, 2, tau_kind),
                             tau_kind)
        single = episode_noise(base_seed, indices[0], 3, 2, tau_kind)
        expected = reference_streams(base_seed, indices[0], 3, 2, tau_kind)
        for stream in STREAMS:
            assert np.array_equal(getattr(single, stream), expected[stream])

    def test_one_word_indices_take_the_array_route(self):
        block = episode_noises(2**64 + 3, [0, 5, 2**32 - 1], 4, 2)
        assert noise._array_route(block.indices)
        assert_block_matches(block)

    @pytest.mark.parametrize("index", [0, 5, 2**32 - 1, 2**32 + 1])
    def test_one_index_takes_the_per_index_route(self, index):
        block = episode_noises(13, [index], 4, 2)
        assert not noise._array_route(block.indices)
        assert_block_matches(block)

    @pytest.mark.parametrize("indices", [[3, 2**32, 2**64 + 3, 2**100],
                                         [2**32, 2**32 + 5, 2**33]])
    def test_multi_word_indices_take_the_per_index_route(self, indices):
        block = episode_noises(7, indices, 4, 2)
        assert not noise._array_route(block.indices)
        assert_block_matches(block)

    @pytest.mark.parametrize("base_seed", [2**32, 2**64 + 3, 2**127, 2**130 + 7])
    def test_multi_word_seeds(self, base_seed):
        # beyond four words the seed's entropy is mixed in after the pool
        assert_block_matches(episode_noises(base_seed, [0, 9, 2**32 + 1], 3, 2))
        single = episode_noise(base_seed, 4, 3, 2)
        assert np.array_equal(single.u, reference_streams(base_seed, 4, 3, 2)["u"])

    @pytest.mark.parametrize("bad", [dict(base_seed=-1), dict(index=-1),
                                     dict(index=-2**32)])
    def test_negative_seed_or_index_raises_like_seed_sequence(self, bad):
        base_seed, index = bad.get("base_seed", 3), bad.get("index", 0)
        named = "base_seed" if base_seed < 0 else "index"
        with pytest.raises(ValueError):
            np.random.SeedSequence(base_seed, spawn_key=(index, 0))
        # refused when the noise is made, before any draw
        with pytest.raises(ValueError, match=named):
            episode_noise(base_seed, index, 3, 2)
        # a negative index in a block is refused, never masked to 32 bits
        with pytest.raises(ValueError, match=named):
            episode_noises(base_seed, [1, index, 2], 3, 2)
        with pytest.raises(ValueError, match=named):
            coin_block(base_seed, [1, index, 2], 4)
        with pytest.raises(ValueError):
            queue_block(QueueSpec(), base_seed, (index,))
        with pytest.raises(ValueError):
            queue_block(QueueSpec(), base_seed, [1, index, 2])

    @pytest.mark.parametrize("seed", [0, 1000, 2**32 - 1, 2**32, 2**64 + 3])
    def test_queue_bits(self, seed):
        spec = QueueSpec(delay=2, length=24)
        for index in (0, 1, 99, 2**32 - 1, 2**32 + 1):
            inputs, targets = make_queue_episode(spec, seed, index)
            bits = fresh(seed, (index,)).integers(0, 2, size=24).astype(np.float64)
            assert np.array_equal(inputs[:, 0], bits)
            assert targets[:2] == [None, None]
            assert all(np.array_equal(targets[t], bits[t - 2:t - 1])
                       for t in range(2, 24))

    @pytest.mark.parametrize("seed", [0, 1000, 2**32 - 1, 2**32, 2**64 + 3])
    def test_queue_block_rows(self, seed):
        """Row j of a block is episode indices[j]'s fresh draw and the inputs
        of its list view: on the vectorized derivation (several one-word
        indices), the per-index one (an index of two words) and a block of
        one."""
        spec = QueueSpec(delay=2, length=24)
        indices = (0, 1, 99, 2**32 - 1, 2**32 + 1)
        for block in (indices, indices[:4], (99,), (2**32 + 1,)):
            inputs, targets = queue_block(spec, seed, block)
            assert inputs.shape == (len(block), 24, 1)
            assert targets.mask.shape == (24, len(block))
            for j, index in enumerate(block):
                bits = fresh(seed, (index,)).integers(0, 2, size=24).astype(np.float64)
                assert np.array_equal(inputs[j, :, 0], bits)
                assert np.array_equal(make_queue_episode(spec, seed, index)[0],
                                      inputs[j])

    def test_coin_bits_are_the_integers_draw(self):
        # bit 31 of each 32-bit half of the raw outputs, low half first
        for seed in range(200):
            for length in (1, 2, 5, 6, 24, 28, 101):
                raw = fresh(seed, (length,)).bit_generator.random_raw((length + 1) // 2)
                assert np.array_equal(
                    noise._raw_bits(raw, length),
                    fresh(seed, (length,)).integers(0, 2, size=length)), (seed, length)

    @pytest.mark.parametrize("length", [0, 1, 5, 24])
    def test_coin_block_rows_are_uint32_on_both_routes(self, length):
        # make_queue_episode draws each episode as a block of one index
        for index in (0, 7, 2**32 - 1):
            one = coin_block(5, [index], length)
            wide = coin_block(5, [2**40 + index], length)
            pair = coin_block(5, [index, 9], length)  # the array route
            for bits, key in ((one, index), (wide, 2**40 + index)):
                assert bits.dtype == np.uint32 and bits.shape == (1, length)
                assert np.array_equal(bits[0],
                                      fresh(5, (key,)).integers(0, 2, size=length))
            assert pair.dtype == np.uint32
            assert np.array_equal(one[0], pair[0])

    def test_interleaved_draws_on_the_shared_generator(self):
        # an odd length leaves half of a 64-bit draw buffered after the signs
        a = episode_noise(31, 0, 5, 3)
        b = episode_noise(31, 1, 5, 3)
        block = episode_noises(31, [1, 0], 5, 3)
        view = episode_noises(31, [2, 0, 1], 5, 3)[2]
        order = [(a, "tau"), (b, "nu"), (block, "tau"), (view, "u"), (a, "nu"),
                 (b, "tau"), (block, "mu"), (a, "sigma"), (view, "mu"), (b, "mu"),
                 (a, "mu"), (b, "sigma"), (block, "nu"), (block, "sigma")]
        for source, stream in order:
            getattr(source, stream)
        ref = {i: reference_streams(31, i, 5, 3) for i in (0, 1)}
        for stream in STREAMS:
            assert np.array_equal(getattr(a, stream), ref[0][stream])
            assert np.array_equal(getattr(b, stream), ref[1][stream])
            assert np.array_equal(getattr(view, stream), ref[1][stream])
        assert_block_matches(block)

    def test_threads_draw_the_same_streams(self):
        expected = {i: reference_streams(41, i, 5, 3) for i in range(24)}
        failures = []

        def work(offset):
            try:
                for _ in range(20):
                    block = episode_noises(41, range(offset, offset + 8), 5, 3)
                    single = episode_noise(41, offset + 3, 5, 3)
                    for j, index in enumerate(block.indices):
                        for stream in STREAMS:
                            if not np.array_equal(getattr(block, stream)[:, j],
                                                  expected[index][stream]):
                                failures.append((offset, index, stream))
                    if not np.array_equal(single.u, expected[offset + 3]["u"]):
                        failures.append((offset, "single"))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))

        # more threads than cores, switching often, so that a generator
        # shared across threads would be reseated between seating and drawing
        threads = [threading.Thread(target=work, args=(8 * k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# The array route keeps PCG64 states as uint64 limbs and steps its sign
# streams and coin bits together; each output word must be numpy's.

LENGTHS = (1, 2, 5, 6, 24, 28, 101)


def array_route_indices(size):
    """size one-word indices, the largest one-word index among them."""
    return list(range(size - 1)) + [2**32 - 1]


class TestLimbPcg64:
    def test_lcg_step_is_128_bit_arithmetic(self):
        edges = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15)
        quads = np.array(list(itertools.product(edges, repeat=4)), dtype=np.uint64)
        hi, lo = noise._lcg_step(*quads.T)
        mult = noise._PCG64_MULT
        for (s_hi, s_lo, i_hi, i_lo), got_hi, got_lo in zip(quads.tolist(), hi.tolist(),
                                                            lo.tolist()):
            state = (((s_hi << 64 | s_lo) * mult + (i_hi << 64 | i_lo))
                     & (2**128 - 1))
            assert (got_hi, got_lo) == divmod(state, 2**64)

    @pytest.mark.parametrize("inc", [1, 2**64 + 1, 2**128 - 1])
    def test_limb_raw_at_its_edges(self, inc):
        """States whose next step lands on the edges of the 128-bit word and
        of the output rotation (hi >> 58 of 0 and of 63), stepped as limbs."""
        inverse = pow(noise._PCG64_MULT, -1, 2**128)
        landing = (0, 1, 2**64 - 1, 2**64, 2**122 - 1, 2**122, 2**127, 2**128 - 1)
        states = [((target - inc) * inverse) % 2**128 for target in landing]
        limbs = noise._Limbs(*(np.array(words, dtype=np.uint64) for words in zip(
            *(divmod(state, 2**64) + divmod(inc, 2**64) for state in states))))
        assert limbs.states() == [(state, inc) for state in states]
        raw = noise._limb_raw(limbs, 3)
        for state, row in zip(states, raw):
            gen = np.random.PCG64()
            gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
            assert np.array_equal(row, gen.random_raw(3)), (state, inc)

    @pytest.mark.parametrize("base_seed", [0, 17, 2**32 - 1, 2**32, 2**64 + 3,
                                           2**130 + 7])
    @pytest.mark.parametrize("size", [2, 32, 100])
    def test_raw_words_are_random_raw(self, base_seed, size):
        block = episode_noises(base_seed, array_route_indices(size), 3, 2)
        for stream, k in noise._STREAMS.items():
            limbs = block._limbs.take(k)
            assert isinstance(limbs, noise._Limbs)
            expected = np.array([fresh(base_seed, (i, k)).bit_generator.random_raw(
                (max(LENGTHS) + 1) // 2) for i in block.indices])
            for length in LENGTHS:
                words = (length + 1) // 2
                assert np.array_equal(noise._limb_raw(limbs, words),
                                      expected[:, :words]), (stream, length)

    @pytest.mark.parametrize("base_seed", [0, 2**32 - 1, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("size", [2, 32, 100])
    def test_sign_streams_are_the_integers_draw(self, base_seed, size):
        for length in LENGTHS:
            block = episode_noises(base_seed, array_route_indices(size), length, 2)
            for stream, k in (("tau", 0), ("sigma", 2)):
                expected = np.array([fresh(base_seed, (i, k)).integers(0, 2, size=length)
                                     for i in block.indices]).T * 2.0 - 1.0
                drawn = getattr(block, stream)
                assert drawn.flags.c_contiguous and drawn.shape == (length, size)
                assert np.array_equal(drawn, expected), (stream, length)

    @pytest.mark.parametrize("base_seed", [0, 1000, 2**32 - 1, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("size", [2, 32, 100])
    def test_coin_block_rows_are_the_integers_draw(self, base_seed, size):
        indices = array_route_indices(size)
        for length in LENGTHS:
            bits = coin_block(base_seed, indices, length)
            assert bits.flags.c_contiguous and bits.shape == (size, length)
            for row, index in zip(bits, indices):
                assert np.array_equal(
                    row, fresh(base_seed, (index,)).integers(0, 2, size=length)), \
                    (index, length)

    def test_empty_blocks_and_lengths(self):
        assert coin_block(1, [], 5).shape == (0, 5)
        assert coin_block(1, [1, 2], 0).shape == (2, 0)
        for indices, length in (([], 4), ([1, 2], 0)):
            block = episode_noises(1, indices, length, 2)
            assert block.tau.shape == (length, len(indices))
            assert block.u.shape == (length, len(indices), 2)

    @pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
    def test_array_route_slices_draw_the_roots_columns(self, tau_kind):
        # a slice is the block of its indices: the root's columns, bit for bit
        block = episode_noises(11, array_route_indices(32), 7, 2, tau_kind)
        for rows in (slice(3, 9), slice(30, 1, -4), slice(31, 32)):
            part = block[rows]
            assert part.indices == block.indices[rows]
            for stream in STREAMS:
                assert np.array_equal(getattr(part, stream),
                                      getattr(block, stream)[:, rows]), stream

    @pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
    def test_per_index_slices_draw_the_roots_columns(self, tau_kind):
        # the root takes the per-index route; a slice of one-word indices
        # takes the array route and draws the same streams
        block = episode_noises(7, [3, 2**40, 5, 2**32 + 1], 5, 2, tau_kind)
        for rows in (slice(0, 3, 2), slice(1, 3), slice(3, 4), slice(2, 0, -1)):
            part = block[rows]
            assert_block_matches(part, tau_kind)
            for stream in STREAMS:
                assert np.array_equal(getattr(part, stream),
                                      getattr(block, stream)[:, rows]), stream

    def test_generator_is_seated_only_for_per_column_draws(self, monkeypatch):
        seated = []
        seat = noise._generator
        monkeypatch.setattr(noise, "_generator",
                            lambda state: seated.append(state) or seat(state))

        block = episode_noises(3, range(32), 6, 4)  # the array route
        block.tau
        block.sigma
        coin_block(3, range(32), 24)
        assert len(seated) == 0  # sign streams and coin bits are stepped as limbs
        block.u
        assert len(seated) == 32  # once per column, for nu
        block.mu
        assert len(seated) == 64

        seated.clear()
        episode_noises(3, range(32), 6, 4, GAUSSIAN).tau
        assert len(seated) == 32

    def test_per_index_route_never_seats_the_generator(self, monkeypatch):
        # one episode and a per-index block draw from numpy's own PCG64 of
        # each stream, and leave the thread's generator alone
        seated = []
        seat = noise._generator
        monkeypatch.setattr(noise, "_generator",
                            lambda state: seated.append(state) or seat(state))
        for tau_kind in (SIGN, GAUSSIAN):
            single = episode_noise(3, 5, 6, 4, tau_kind)
            block = episode_noises(3, [1, 2**32, 7], 6, 4, tau_kind)
            for stream in STREAMS:
                getattr(single, stream)
                getattr(block, stream)
        coin_block(3, [1, 2**32, 7], 24)
        coin_block(3, [5], 24)
        assert len(seated) == 0


# One episode draws its own streams from numpy's own seeding of each.

ONE_EPISODE_SEEDS = (0, 17, 2**32 - 1, 2**64 + 3, 2**130 + 7)
ONE_EPISODE_INDICES = (0, 5, 2**32 - 1, 2**32 + 1, 2**70 + 9)


class TestOneEpisodeRoute:
    @pytest.mark.parametrize("tau_kind", [SIGN, GAUSSIAN])
    @pytest.mark.parametrize("base_seed", ONE_EPISODE_SEEDS)
    def test_streams_are_numpy_seeding(self, base_seed, tau_kind):
        for index in ONE_EPISODE_INDICES:
            for length in (1, 2, 5, 6, 101):
                single = episode_noise(base_seed, index, length, 3, tau_kind)
                expected = reference_streams(base_seed, index, length, 3, tau_kind)
                for stream in STREAMS:
                    drawn = getattr(single, stream)
                    assert drawn.flags.c_contiguous
                    assert np.array_equal(drawn, expected[stream]), \
                        (base_seed, index, length, stream)

    def test_streams_are_kept_and_settable(self):
        single = episode_noise(3, 1, 4, 2)
        assert single.u is single.u
        single.u *= 2.0  # a stream is a plain attribute once drawn
        assert np.array_equal(single.u, 2.0 * reference_streams(3, 1, 4, 2)["u"])
