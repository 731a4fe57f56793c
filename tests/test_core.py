from __future__ import annotations

import copy
import hashlib
import math
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetest.core import (
    BitString,
    DimensionMismatchError,
    IndexSet,
    RngStream,
    _rekeyed_generator,
    derive_generator,
    derive_key,
)
from cubetest.distance import sample_middle_layer

from conftest import BANDS


class TestFlipSet:
    def test_empty_set_is_identity(self):
        x = BitString.zeros(4)
        assert x.flip(IndexSet(4, [])) == x

    def test_all_flip(self):
        x = BitString.zeros(4)
        assert x.flip(IndexSet(4, [0, 1, 2, 3])) == BitString.ones(4)

    def test_single_coordinate(self):
        x = BitString.from_bits([1, 0, 1])
        assert x.flip_one(1) == BitString.from_bits([1, 1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BitString.zeros(4).flip(IndexSet(5, [0]))

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            BitString.zeros(4).flip([4])

    @given(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 31)))
    @settings(max_examples=200)
    def test_involution(self, bits, coords):
        x = BitString(32, bits)
        s = IndexSet(32, coords)
        assert x.flip(s).flip(s) == x
        assert x.flip(s).n == x.n


class TestPrecedes:
    def test_bottom_below_top(self):
        assert BitString.zeros(3).precedes(BitString.ones(3))

    def test_strictness(self):
        x = BitString.from_bits([1, 0, 1])
        assert not x.precedes(x)

    def test_incomparable(self):
        assert not BitString.from_bits([1, 0]).precedes(BitString.from_bits([0, 1]))
        assert not BitString.from_bits([0, 1]).precedes(BitString.from_bits([1, 0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BitString.zeros(3).precedes(BitString.zeros(4))

    @given(st.lists(st.integers(0, 2**16 - 1), min_size=3, max_size=3))
    @settings(max_examples=300)
    def test_strict_partial_order(self, triple):
        a, b, c = (BitString(16, v) for v in triple)
        assert not a.precedes(a)
        if a.precedes(b):
            assert not b.precedes(a)
        if a.precedes(b) and b.precedes(c):
            assert a.precedes(c)


class TestBitString:
    def test_weight(self):
        assert BitString.from_bits([1, 0, 1, 1]).weight == 3
        assert BitString.zeros(10).weight == 0

    def test_hex_roundtrip(self):
        x = BitString.from_bits([1, 0, 1, 1, 0, 0, 1])
        assert BitString.from_hex(7, x.to_hex()) == x

    def test_json_roundtrip(self):
        x = BitString(12, 0xABC)
        assert BitString.from_json(x.to_json()) == x

    def test_to_array_matches_indexing(self):
        x = BitString(9, 0b101100101)
        arr = x.to_array()
        assert [int(v) for v in arr] == [x[i] for i in range(9)]

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 64, 65, 100])
    def test_indices_match_the_coordinate_loop(self, n):
        g = RngStream(n, "indices")
        points = [0, (1 << n) - 1, 1, 1 << (n - 1)]
        points += [BitString.random(n, g).bits for _ in range(50)]
        for bits in points:
            x = BitString(n, bits)
            assert x.one_indices() == tuple(i for i in range(n) if x[i])
            assert x.zero_indices() == tuple(i for i in range(n) if not x[i])

    def test_large_dimension(self):
        x = BitString.ones(4096)
        assert x.weight == 4096
        assert x.flip_one(4095).weight == 4095

    def test_immutability(self):
        x = BitString.zeros(4)
        with pytest.raises(AttributeError):
            x.bits = 3


class TestIndexSet:
    def test_rejects_duplicval_out_of_range(self):
        with pytest.raises(ValueError):
            IndexSet(4, [4])

    def test_json_is_one_based(self):
        s = IndexSet(5, [0, 3])
        assert s.to_json()["members"] == [1, 4]
        assert IndexSet.from_json(s.to_json()) == s


class TestRngStream:
    def test_range_one_always_one(self):
        s = RngStream(1, "t")
        assert all(s.draw(1) == 1 for _ in range(50))

    def test_replay_determinism(self):
        a = RngStream(99, "tag")
        b = RngStream(99, "tag")
        assert [a.draw(1000) for _ in range(10_000)] == [
            b.draw(1000) for _ in range(10_000)
        ]

    def test_distinct_tags_differ(self):
        a = RngStream(99, "tag-a")
        b = RngStream(99, "tag-b")
        assert [a.draw(10**9) for _ in range(20)] != [
            b.draw(10**9) for _ in range(20)
        ]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            RngStream(0).draw(0)
        # past 2**64 no 64-bit word is below the rejection limit
        with pytest.raises(ValueError, match="2\\*\\*64"):
            RngStream(0).draw(2**64 + 1)

    # blake2b of the repr of the first 50 draws of RngStream(7, "pin") at
    # each range, and of the bits of the first 20 BitString.random points;
    # a faster draw or sampler must reproduce them exactly
    DRAW_DIGESTS = {
        2: "c2a62a3d1caa7a5499f943ddcb5670bf",
        1000: "ce6071da2a8ded738a54517e48e61b01",
        2**16: "4ab87ff3075374fce3f9602a7938a4ce",
        2**64: "1bd53b9a462d65683bbdf65ee8d5997b",
        10**9 + 7: "d0e8a2d380c5cd566a5aafa694e92d15",
    }
    POINT_DIGESTS = {
        100: "3b28c6c131e680ccc3a4e704d411e44e",
        16: "73a0070c57c2430ee18a1c9fb45aded0",
    }

    @staticmethod
    def _digest(values: list[int]) -> str:
        return hashlib.blake2b(repr(values).encode(), digest_size=16).hexdigest()

    def test_draws_pinned(self):
        got = {}
        for upper in self.DRAW_DIGESTS:
            s = RngStream(7, "pin")
            got[upper] = self._digest([s.draw(upper) for _ in range(50)])
        assert got == self.DRAW_DIGESTS
        s = RngStream(7, "pin")
        assert [s.draw(2**64) for _ in range(2)] == [531225418509381289, 8209200834534633894]

    def test_drawn_stream_copies_and_pickles_to_its_continuation(self):
        never = RngStream(7, "pin")  # copied before any draw
        s = RngStream(7, "pin")
        head = [s.draw(1000) for _ in range(5)]
        for c in (copy.copy(never), pickle.loads(pickle.dumps(never))):
            assert [c.draw(1000) for _ in range(5)] == head
        clones = [copy.copy(s), pickle.loads(pickle.dumps(s))]
        tail = [s.draw(1000) for _ in range(20)]
        for c in clones:
            assert repr(c) == "RngStream(seed=7, tag='pin', calls=5)"
            assert [c.draw(1000) for _ in range(20)] == tail
        fresh = RngStream(7, "pin")
        assert [fresh.draw(1000) for _ in range(25)] == head + tail

    def test_random_points_pinned(self):
        got = {}
        for n in self.POINT_DIGESTS:
            s = RngStream(7, "pin")
            got[n] = self._digest([BitString.random(n, s).bits for _ in range(20)])
        assert got == self.POINT_DIGESTS

    # count 1, and counts at which the one-weight band leaves the first block
    # short, so the sampler hashes later blocks of the points still needed
    @pytest.mark.parametrize("count", [1, 40, 300])
    @pytest.mark.parametrize("band", ["point", "all"])
    @pytest.mark.parametrize("n", [1, 15, 16, 63, 64, 65, 100, 128, 129])
    def test_band_points_twin_points(self, n, band, count):
        lo = hi = n // 2
        if band == "all":
            lo, hi = 0, n
        fast, slow = RngStream(7, "band"), RngStream(7, "band")
        got = fast.band_points(n, lo, hi, count)
        want = [sample_middle_layer(n, lo, hi, slow).bits for _ in range(count)]
        words = -(-n // 64)
        assert got.dtype == np.uint64 and got.shape == (count, words)
        assert [sum(int(v) << 64 * w for w, v in enumerate(row)) for row in got] == want
        assert fast._calls == slow._calls
        assert fast.draw(1000) == slow.draw(1000)

    def test_band_points_stream_copies_and_pickles_to_its_continuation(self):
        s = RngStream(7, "band")
        head = s.band_points(65, 30, 35, 50)
        clones = [copy.copy(s), pickle.loads(pickle.dumps(s))]
        calls = s._calls
        tail = s.band_points(65, 30, 35, 50)
        for c in clones:
            assert c._calls == calls
            assert np.array_equal(c.band_points(65, 30, 35, 50), tail)
        fresh = RngStream(7, "band")
        assert np.array_equal(fresh.band_points(65, 30, 35, 100), np.concatenate([head, tail]))
        with pytest.raises(ValueError, match="positive"):
            RngStream(7).band_points(0, 0, 0, 1)

    @pytest.mark.parametrize("n, lo, hi", BANDS)
    def test_band_points_refuses_an_empty_band(self, n, lo, hi):
        # a band with no weight to accept is refused, not an endless loop
        if any(lo <= w <= hi for w in range(n + 1)):
            (bits,) = RngStream(7).band_points(n, lo, hi, 1)[:, 0].tolist()
            assert lo <= bits.bit_count() <= hi
        else:
            with pytest.raises(ValueError, match="no weight"):
                RngStream(7).band_points(n, lo, hi, 1)

    def test_uniformity_chi_square(self):
        # frequency of each value over 1e6 draws with range 16 within 5
        # sigma of 1/16, plus the chi-square statistic within 5 sigma of
        # its mean (15) for 15 degrees of freedom.
        s = RngStream(123, "chi")
        m, k = 1_000_000, 16
        counts = np.zeros(k, dtype=np.int64)
        for _ in range(m):
            counts[s.draw(k) - 1] += 1
        p = 1.0 / k
        sigma = math.sqrt(m * p * (1 - p))
        assert np.all(np.abs(counts - m * p) < 5 * sigma)
        chi2 = float(((counts - m * p) ** 2 / (m * p)).sum())
        dof = k - 1
        assert abs(chi2 - dof) < 5 * math.sqrt(2 * dof)

    def test_sample_without_replacement(self):
        s = RngStream(5, "swr")
        got = s.sample_without_replacement(range(100), 30)
        assert len(got) == 30 and len(set(got)) == 30
        with pytest.raises(ValueError):
            s.sample_without_replacement(range(3), 4)

    @staticmethod
    def _sampler_record(seed: int) -> list:
        """Samples of k = 0, 1, a third and all of pools of 0 to 100 items
        (k = len(pool) ends on upper 1), a shuffle of each pool, and the
        calls used, all on one stream."""
        s = RngStream(seed, "sampler-pin")
        out = []
        for size in (0, 1, 2, 7, 45, 100):
            pool = list(range(3, 3 + 2 * size, 2))
            for k in sorted({0, min(1, size), size // 3, size}):
                out.append(s.sample_without_replacement(pool, k))
            items = list(pool)
            s.shuffle(items)
            out.append(items)
        out.append(s._calls)
        return out

    # blake2b of the repr of _sampler_record, as the per-draw samplers gave
    SAMPLER_DIGESTS = {
        1: "4660a89016c9d2fe7a12d94e51195320",
        7: "9e67c39cdc16359ac5233cf16e487b4c",
        2**40 + 3: "7dfbf640e9d4aed4e13e4443fda9a9b0",
    }

    def test_samplers_pinned(self):
        got = {seed: self._digest(self._sampler_record(seed)) for seed in self.SAMPLER_DIGESTS}
        assert got == self.SAMPLER_DIGESTS
        assert self._sampler_record(1)[-1] == 359  # one call index per swap step

    @staticmethod
    def _slow_sample(s: RngStream, pool, k: int) -> list:
        items = list(pool)
        for i in range(k):
            j = i + s.draw(len(items) - i) - 1
            items[i], items[j] = items[j], items[i]
        return items[:k]

    @staticmethod
    def _slow_shuffle(s: RngStream, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = s.draw(i + 1) - 1
            items[i], items[j] = items[j], items[i]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), size=st.integers(0, 60), data=st.data())
    def test_samplers_match_the_per_draw_twins(self, seed, size, data):
        k = data.draw(st.integers(0, size))
        pool = list(range(size))
        fast, slow = RngStream(seed, "swr"), RngStream(seed, "swr")
        assert fast.sample_without_replacement(pool, k) == self._slow_sample(slow, pool, k)
        assert fast._calls == slow._calls == k
        a, b = list(pool), list(pool)
        fast.shuffle(a)
        self._slow_shuffle(slow, b)
        assert a == b and fast._calls == slow._calls == k + max(size - 1, 0)
        assert fast.draw(1000) == slow.draw(1000)

    # uppers past 2**63 reject about half their words; 2**64 rejects none,
    # and 2**64 - 1 only the word 2**64 - 1
    @pytest.mark.parametrize("upper", [2**63 + 1, 2**63 + 3, 3 * 2**62 + 1, 2**64 - 1, 2**64])
    def test_batched_draws_take_the_rejection_path_of_draw(self, upper):
        fast, slow = RngStream(3, "reject"), RngStream(3, "reject")
        uppers = [upper, 1, upper, 2] * 25
        assert fast._draws(uppers) == [slow.draw(u) for u in uppers]
        assert fast._calls == slow._calls == len(uppers)
        limit = 2**64 - 2**64 % upper
        rejected = sum(RngStream(3, "reject")._word(i, 0) >= limit for i in range(0, 100, 2))
        assert rejected > 10 if upper < 2**64 - 1 else rejected == 0


class TestDeriveGenerator:
    def test_deterministic(self):
        a = derive_generator(3, "role", 1).integers(0, 1000, size=50)
        b = derive_generator(3, "role", 1).integers(0, 1000, size=50)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = derive_generator(3, "role", 1).integers(0, 1000, size=50)
        b = derive_generator(3, "role", 2).integers(0, 1000, size=50)
        assert not np.array_equal(a, b)


class TestRekeyedGenerator:
    """The per-thread re-keyed generator against a fresh
    ``Generator(Philox(key=derive_key(...)))``, its slow twin."""

    # each draw leaves the reused generator in a different state: int32 draws
    # of odd length keep a 32-bit half, the others move the counter
    DRAWS = [
        lambda g: g.integers(0, 16, size=(3,), dtype=np.int32),
        lambda g: g.integers(0, 100, size=(16, 4)),
        lambda g: g.random(7),
        lambda g: g.permutation(17),
        lambda g: g.integers(0, 2, size=5, dtype=np.int32),
        lambda g: g.integers(0, 1 << 40),
    ]

    def test_matches_a_fresh_generator_on_every_draw(self):
        paths = [(0,), ("mono", "terms"), ("mono", "clauses", 5), ("unate", "M"),
                 ("x", -1, "y", 2**62)]
        for seed in (0, 1, 7, 2**63 + 5):
            for path in paths:
                for draw in self.DRAWS:
                    want = draw(np.random.Generator(np.random.Philox(key=derive_key(seed, *path))))
                    assert np.array_equal(draw(_rekeyed_generator(seed, *path)), want)
                    assert np.array_equal(draw(derive_generator(seed, *path)), want)

    def test_two_threads_keep_their_own_rows(self):
        # each thread keys its generator, both wait, then both draw: a
        # generator shared by the threads would hand one of them the other's key
        steps, barrier = 20, threading.Barrier(2, timeout=10)
        got = {0: [], 1: []}

        def work(tid):
            for step in range(steps):
                g = _rekeyed_generator(5, "thread", tid, step)
                barrier.wait()
                got[tid].append(g.integers(0, 1 << 30, size=8))
                barrier.wait()

        threads = [threading.Thread(target=work, args=(tid,)) for tid in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
        for tid in (0, 1):
            assert len(got[tid]) == steps
            for step, row in enumerate(got[tid]):
                want = derive_generator(5, "thread", tid, step).integers(0, 1 << 30, size=8)
                assert np.array_equal(row, want)
