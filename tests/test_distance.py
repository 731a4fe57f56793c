from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetest import distance
from cubetest.cli import main
from cubetest.core import BitString, ResourceLimitError, RngStream
from cubetest.distance import (
    FarnessEstimate,
    count_violating_edges,
    directional_edge_counts,
    estimate_witness_density,
    exact_dist_mono,
    exact_dist_unate,
    exhaustive_witness_density,
    middle_layer_indices,
    sample_middle_layer,
    unate_dist_lower_bound,
    unate_no_family_stats,
    witness_edge_family,
    witness_edge_at,
)
from cubetest.families import (
    FlippedDnfInstance, MonoInstance, OneLevelInstance, QuadrantInstance, Route, UnateInstance,
)

from conftest import BANDS


def _digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def table_of(fn, n):
    return np.array([fn(BitString(n, v)) for v in range(1 << n)], dtype=np.uint8)


class TestExactDistMono:
    def test_monotone_or_is_zero(self):
        t = table_of(lambda x: int(x.weight > 0), 4)
        assert exact_dist_mono(t) == Fraction(0)

    def test_antidictator_half(self):
        t = table_of(lambda x: 1 - x[0], 3)
        assert exact_dist_mono(t) == Fraction(1, 2)

    def test_yes_world_instances_are_monotone(self):
        for s in range(5):
            inst = MonoInstance.sample(9, "yes", seed=s)
            assert exact_dist_mono(inst.truth_table(), 9) == 0

    def test_matches_edge_scan_zero_iff(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            t = rng.integers(0, 2, size=64).astype(np.uint8)
            d = exact_dist_mono(t, 6)
            assert (d == 0) == (count_violating_edges(t, 6) == 0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            exact_dist_mono(np.zeros(1 << 15, dtype=np.uint8))

    def test_single_violating_pair(self):
        # f equals 1 only at the bottom: one disjoint violating pair
        t = np.zeros(8, dtype=np.uint8)
        t[0] = 1
        assert exact_dist_mono(t, 3) == Fraction(1, 8)


    def test_matching_goes_through_the_module_function(self, monkeypatch):
        # the benchmark's tracing wraps distance.maximum_bipartite_matching
        calls = []
        inner = distance.maximum_bipartite_matching

        def counted(graph, perm_type="column"):
            calls.append(perm_type)
            return inner(graph, perm_type=perm_type)

        monkeypatch.setattr(distance, "maximum_bipartite_matching", counted)
        assert exact_dist_mono(table_of(lambda x: 1 - x[0], 3)) == Fraction(1, 2)
        assert calls == ["column"]


LAZY_SCIPY_SCRIPT = """
import importlib, pkgutil, sys
import numpy as np
import cubetest
for mod in pkgutil.walk_packages(cubetest.__path__, "cubetest."):
    if mod.name != "cubetest.__main__":
        importlib.import_module(mod.name)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
from cubetest.distance import exact_dist_mono, exact_dist_unate
t = np.array([(0x6F35 >> i) & 1 for i in range(16)], dtype=np.uint8)
print(exact_dist_mono(t), exact_dist_unate(t), "scipy" in sys.modules)
"""


def test_scipy_is_loaded_on_the_first_exact_distance_call():
    # a fresh interpreter: importing every cubetest module loads no scipy,
    # the first exact distance does, and its values are those of the
    # module-level import (recorded before scipy was made lazy)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3/8", "1/8", "True"]


@pytest.mark.parametrize("table_fn", [
    count_violating_edges, directional_edge_counts, unate_dist_lower_bound,
    exact_dist_mono, exact_dist_unate,
])
def test_table_functions_refuse_a_wrong_dimension(table_fn):
    # an n=16 table read as n=9 once counted 0 violating edges, and as
    # n=17 indexed past its end
    table = MonoInstance.sample(16, "no", 3).truth_table()
    for n in (9, 15, 17):
        with pytest.raises(ValueError, match=r"not 2\*\*"):
            table_fn(table, n)
    assert count_violating_edges(table, 16) == count_violating_edges(table) == 858


class TestExactDistUnate:
    def test_antidictator_is_unate(self):
        t = table_of(lambda x: 1 - x[0], 3)
        assert exact_dist_unate(t) == 0

    def test_never_exceeds_mono_distance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = rng.integers(0, 2, size=32).astype(np.uint8)
            assert exact_dist_unate(t, 5) <= exact_dist_mono(t, 5)

    def test_orientation_invariance(self):
        rng = np.random.default_rng(13)
        idx = np.arange(1 << 6)
        for _ in range(10):
            t = rng.integers(0, 2, size=64).astype(np.uint8)
            base = exact_dist_unate(t, 6)
            for r in rng.integers(0, 64, size=5):
                assert exact_dist_unate(t[idx ^ int(r)], 6) == base

    def test_fi_small_dimension(self):
        inst = QuadrantInstance(4, 2)
        assert exact_dist_unate(inst.truth_table(), cap=6) >= Fraction(1, 8)


class TestUnateLowerBound:
    def test_monotone_is_zero(self):
        t = table_of(lambda x: int(x.weight >= 2), 4)
        assert unate_dist_lower_bound(t) == 0

    def test_fi_exact_eighth(self):
        # single direction carries 2^{n-1} edges of each polarity
        inst = QuadrantInstance(6, 3)
        assert unate_dist_lower_bound(inst.truth_table()) == Fraction(1, 8)

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.integers(0, 2, size=64).astype(np.uint8)
            assert unate_dist_lower_bound(t) <= exact_dist_unate(t, 6)

    def test_directional_sets_are_edge_disjoint(self):
        rng = np.random.default_rng(5)
        t = rng.integers(0, 2, size=256).astype(np.uint8)
        for i, (mono, anti) in enumerate(directional_edge_counts(t, 8)):
            assert len(set(mono)) == len(mono)
            assert not (set(mono) & set(anti))


# Per-edge twins of the edge passes: each direction's lower endpoints from
# an index array over the cube, and the greedy one edge at a time.


def _count_twin(table: np.ndarray, n: int) -> int:
    idx = np.arange(1 << n, dtype=np.int64)
    total = 0
    for i in range(n):
        lower = idx[(idx >> i) & 1 == 0]
        total += int((table[lower] > table[lower | (1 << i)]).sum())
    return total


def _directional_twin(table: np.ndarray, n: int) -> list:
    idx = np.arange(1 << n, dtype=np.int64)
    out = []
    for i in range(n):
        lower = idx[(idx >> i) & 1 == 0]
        lo, up = table[lower], table[lower | (1 << i)]
        out.append((lower[(lo == 0) & (up == 1)], lower[(lo == 1) & (up == 0)]))
    return out


def _greedy_twin(table: np.ndarray, n: int) -> Fraction:
    sets = _directional_twin(table, n)
    order = sorted(range(n), key=lambda i: min(map(len, sets[i])), reverse=True)
    used = np.zeros(1 << n, dtype=bool)
    total = 0
    for i in order:
        bit = 1 << i
        free = [[x for x in e if not used[x] and not used[x | bit]] for e in sets[i]]
        take = min(map(len, free))
        for e in free:
            for x in e[:take]:
                used[x] = used[x | bit] = True
        total += take
    return Fraction(total, 1 << n)


def _unate_scan_twin(table: np.ndarray, n: int) -> Fraction:
    idx = np.arange(1 << n, dtype=np.int64)
    return min(exact_dist_mono(table[idx ^ r], n) for r in range(1 << n))


def _random_tables(n: int) -> list:
    rng = np.random.default_rng(100 + n)
    return [(rng.random(1 << n) < p).astype(np.uint8) for p in (0.1, 0.5, 0.9)]


# tables the edge passes are checked on against their twins, by name
_EDGE_TABLES = {
    **{f"random-n{n}": (lambda n=n: _random_tables(n)) for n in range(1, 11)},
    **{
        f"mono-{n}-{world}": (lambda n=n, world=world: [
            MonoInstance.sample(n, world, seed).truth_table() for seed in (0, 1)
        ])
        for n in (9, 16) for world in ("yes", "no")
    },
    "flipdnf": lambda: [FlippedDnfInstance.sample(n, "no", 2).truth_table() for n in (9, 16)],
    "onelevel": lambda: [OneLevelInstance.sample(n, "no", 2).truth_table() for n in (9, 16)],
    "unate-base": lambda: [
        UnateInstance.sample(16, world, 2).base_truth_table() for world in ("yes", "no")
    ],
    "quadrant": lambda: [
        QuadrantInstance(n, i).truth_table() for n in (1, 2, 5, 8) for i in {0, n // 2, n - 1}
    ],
}


@pytest.mark.parametrize("tables", _EDGE_TABLES.values(), ids=_EDGE_TABLES.keys())
def test_edge_passes_match_the_per_edge_twins(tables):
    for table in tables():
        n = int(len(table)).bit_length() - 1
        assert count_violating_edges(table, n) == _count_twin(table, n)
        for got, want in zip(directional_edge_counts(table, n), _directional_twin(table, n)):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64 and np.array_equal(g, w)
        assert unate_dist_lower_bound(table, n) == _greedy_twin(table, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_unate_scan_matches_the_full_scan(n):
    for table in _random_tables(n):
        assert exact_dist_unate(table, n) == _unate_scan_twin(table, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_unate_scan_stops_at_the_lower_bound(n, monkeypatch):
    # orientation 0 of a quadrant table already meets the bound 1/8
    calls = []
    inner = distance.exact_dist_mono

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(distance, "exact_dist_mono", counted)
    for i in range(n):
        calls.clear()
        assert exact_dist_unate(QuadrantInstance(n, i).truth_table()) == Fraction(1, 8)
        assert calls == [n + 2]


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_whole_cube_passes_build_no_index_arrays():
    # an int64 index array over the cube is 8 MiB at n=20; built from such
    # arrays, the two passes peaked at 21.0 and 32.9 MiB and the quadrant
    # table at 19.0 MiB
    table = MonoInstance.sample(20, "no", 1, term_len=4).truth_table()
    assert _peak_bytes(lambda: count_violating_edges(table, 20)) < 4 << 20
    assert _peak_bytes(lambda: unate_dist_lower_bound(table, 20)) < 24 << 20
    assert _peak_bytes(lambda: QuadrantInstance(18, 5).truth_table()) < 8 << 20
    # the oriented table gathered through such an array peaked at 10.0 MiB
    # and the base table at 7.7 MiB; built on XORed columns it is the latter
    unate = UnateInstance.sample(20, "no", 1)
    assert _peak_bytes(unate.truth_table) < 9 << 20


class TestWitnessEdges:
    def test_non_cell_routes_are_excluded(self):
        inst = MonoInstance.sample(16, "no", seed=1)
        zero_route = None
        rng = RngStream(0, "xp")
        while zero_route is None:
            x = BitString.random(16, rng)
            if inst.weight_class(x) == "middle" and inst.route(x).kind == "zero":
                zero_route = x
        assert witness_edge_at(inst, zero_route) is None

    def test_zero_value_excluded(self, rng):
        inst = MonoInstance.sample(16, "no", seed=2)
        checked = 0
        while checked < 50:
            x = BitString.random(16, rng)
            if inst.weight_class(x) != "middle":
                continue
            if inst.value(x) == 0:
                checked += 1
                assert witness_edge_at(inst, x) is None

    def test_yes_world_rejected(self):
        inst = MonoInstance.sample(16, "yes", seed=1)
        with pytest.raises(ValueError, match="no-world"):
            witness_edge_at(inst, BitString.from_indices(16, range(8)))

    @pytest.mark.parametrize(
        "scan",
        [witness_edge_family, exhaustive_witness_density,
         lambda inst: estimate_witness_density(inst, 10)],
        ids=["family", "exhaustive", "estimate"],
    )
    @pytest.mark.parametrize(
        "inst, reason",
        [(MonoInstance.sample(16, "yes", seed=1), "no-world"),
         (UnateInstance.sample(16, "no", seed=1), "two-level")],
        ids=["mono-yes", "unate-no"],
    )
    def test_scans_need_a_no_world_mono_instance(self, scan, inst, reason):
        with pytest.raises(ValueError, match=reason):
            scan(inst)

    def test_witnesses_reverify(self):
        for s in range(5):
            inst = MonoInstance.sample(16, "no", seed=s)
            fam = witness_edge_family(inst)
            assert fam, "expected a nonempty witness family"
            seen = set()
            for x, xs in fam:
                assert x.precedes(xs)
                assert inst.value(x) == 1 and inst.value(xs) == 0
                assert x not in seen and xs not in seen
                seen.add(x)
                seen.add(xs)

    def test_witness_edges_violate_at_band_top(self):
        # this instance has a cell witness candidate x at the top weight of
        # the band (10); its flip x^(k) leaves the band and reads 1, so the
        # scan and its per-point twin must both leave x out
        inst = MonoInstance.sample(14, "no", seed=9150456756868688970, term_len=4)
        table = inst.truth_table()
        edges = _assert_scan_matches_the_per_point_twin(inst)
        for x, xs in edges:
            assert table[x.bits] == 1 and table[xs.bits] == 0

    def test_pointwise_matches_scan(self, rng):
        inst = MonoInstance.sample(16, "no", seed=4)
        members = {x for x, _ in witness_edge_family(inst)}
        for _ in range(800):
            x = BitString.random(16, rng)
            if inst.weight_class(x) != "middle":
                continue
            assert (witness_edge_at(inst, x) is not None) == (x in members)

    def test_family_density_lower_bounds_distance(self):
        inst = MonoInstance.sample(14, "no", seed=0, term_len=4)
        fam = witness_edge_family(inst)
        dist = exact_dist_mono(inst.truth_table(), 14)
        assert Fraction(len(fam), 1 << 14) <= dist

    def test_estimate_gives_certified_half_bound(self):
        # estimate * middle fraction / 2 is a (weak) certified lower bound
        inst = MonoInstance.sample(14, "no", seed=1, term_len=4)
        est = estimate_witness_density(inst, 20000, RngStream(9, "half"))
        mid_frac = len(middle_layer_indices(14, inst.band_low, inst.band_high)) / (
            1 << 14
        )
        dist = exact_dist_mono(inst.truth_table(), 14)
        exact_pr = exhaustive_witness_density(inst)
        assert exact_pr * mid_frac / 2 <= dist
        # and the estimator tracks the exact probability
        assert abs(est.estimate - exact_pr) <= 4 * max(est.ci_halfwidth / 1.96, 1e-4)

    def test_estimator_validation(self):
        inst = MonoInstance.sample(16, "no", seed=3)
        with pytest.raises(ValueError, match="samples"):
            estimate_witness_density(inst, 0)

    def test_estimator_agrees_with_exhaustive(self):
        inst = MonoInstance.sample(16, "no", seed=3)
        exact = exhaustive_witness_density(inst)
        est = estimate_witness_density(inst, 20000, RngStream(5, "mc"))
        assert abs(est.estimate - exact) <= 3 * max(est.ci_halfwidth / 1.96, 1e-4)


def _unate_point_class(inst: UnateInstance, y: BitString) -> Optional[tuple[int, str]]:
    """Per-point twin of ``unate_no_family_stats``: (special variable, side)
    of a de-oriented point, if it is in X with value 0; side '+' when
    y_k = 0, '-' when y_k = 1."""
    if inst.band_class_base(y) != "middle":
        return None
    r = inst.route_base(y)
    if r.kind != "term":
        return None
    k = int(inst._dict_vars[r.i])
    if inst.dictator(r.i).value_at(y) != 0:
        return None
    return (k, "+" if y[k] == 0 else "-")


class TestUnateFamilyStats:
    def test_yes_world_min_sum_zero(self):
        inst = UnateInstance.sample(16, "yes", seed=2)
        stats = unate_no_family_stats(inst, exhaustive=True)
        assert stats.min_sum == 0.0
        # monotone side may be populated; the anti side must be empty
        assert all(est.estimate == 0.0 for est in stats.minus.values())

    def test_exhaustive_vs_sampled(self):
        inst = UnateInstance.sample(16, "no", seed=6)
        exact = unate_no_family_stats(inst, exhaustive=True)
        sampled = unate_no_family_stats(
            inst, samples=30000, rng=RngStream(1, "ustats")
        )
        for k, est in sampled.plus.items():
            sigma = max(est.ci_halfwidth / 1.96, 1e-4)
            assert abs(est.estimate - exact.plus[k].estimate) <= 4 * sigma
        for k, est in sampled.minus.items():
            sigma = max(est.ci_halfwidth / 1.96, 1e-4)
            assert abs(est.estimate - exact.minus[k].estimate) <= 4 * sigma

    def test_member_edges_are_bichromatic(self, rng):
        inst = UnateInstance.sample(16, "no", seed=7)
        checked = 0
        while checked < 200:
            y = BitString.random(16, rng)
            cls = _unate_point_class(inst, y)
            if cls is None:
                continue
            checked += 1
            k, _ = cls
            assert inst.base_value(y) != inst.base_value(y.flip_one(k))

    def test_validation(self):
        inst = UnateInstance.sample(16, "no", seed=1)
        with pytest.raises(ValueError, match="samples"):
            unate_no_family_stats(inst, samples=0)

    @pytest.mark.parametrize("n, seed", [(16, 4), (16, 5), (100, 2)])
    def test_sampled_counts_match_the_per_point_twin(self, n, seed):
        # the same stream, replayed one BitString.random point at a time
        inst = UnateInstance.sample(n, "no", seed)
        fast, slow = RngStream(seed, "ustats-twin"), RngStream(seed, "ustats-twin")
        stats = unate_no_family_stats(inst, samples=2000, rng=fast)
        hits = {(int(k), side): 0 for k in inst.Mbar_sorted for side in "+-"}
        for _ in range(2000):
            cls = _unate_point_class(inst, BitString.random(n, slow))
            if cls is not None:
                hits[cls] += 1
        assert sum(hits.values()) > 0
        assert stats.plus == {k: FarnessEstimate.from_hits(hits[k, "+"], 2000) for k, _ in hits}
        assert stats.minus == {k: FarnessEstimate.from_hits(hits[k, "-"], 2000) for k, _ in hits}
        assert fast._calls == slow._calls


class TestFarnessEstimate:
    def test_hits_constructor(self):
        est = FarnessEstimate.from_hits(250, 1000, seed=3)
        assert est.estimate == 0.25
        assert est.ci_halfwidth == pytest.approx(
            1.96 * (0.25 * 0.75 / 1000) ** 0.5
        )

    @pytest.mark.parametrize("n, lo, hi", BANDS)
    def test_middle_layer_sampler_refuses_an_empty_band(self, n, lo, hi):
        # the rejection loop would never end on a band with no integer weight
        if any(lo <= w <= hi for w in range(n + 1)):
            assert lo <= sample_middle_layer(n, lo, hi, RngStream(1)).weight <= hi
        else:
            with pytest.raises(ValueError, match="no weight"):
                sample_middle_layer(n, lo, hi, RngStream(1))

    def test_middle_layer_sampler_takes_a_one_weight_band(self):
        x = sample_middle_layer(16, 3.2, 4.0, RngStream(1))
        assert x.weight == 4

    def test_middle_layer_enumeration(self):
        idx = middle_layer_indices(16, 4, 12)
        w = np.array([bin(v).count("1") for v in idx])
        assert w.min() >= 4 and w.max() <= 12
        assert len(idx) == sum(
            1 for v in range(1 << 16) if 4 <= bin(v).count("1") <= 12
        )


# blake2b digests recorded when the whole-cube scans ran over a boolean
# point matrix; they pin the bitset block scans bit for bit.
# witness_edge_family of MonoInstance.sample(n, "no", seed, term_len=...):
WITNESS_FAMILY_DIGESTS = {
    (14, 4, 0): "b1f12ec37d2277e9386b3d37dcd0183f",
    (14, 4, 1): "b2c82f4be23ff27a77496e29b1c7abfc",
    (16, None, 0): "b47e6b15b259211ca162295ba1ae0ecc",
    (16, None, 1): "5f69f618a048e4cca18c4d52ddba0e41",
}
# middle_layer_indices(n, n/2 - sqrt(n), n/2 + sqrt(n)) as int64 bytes:
MIDDLE_LAYER_DIGESTS = {
    9: "e55c6e6d787f5da91c0ba08e13c1acb3",
    14: "75e16dc5c0ad266599a1259097430780",
    16: "967ef329eb6e93c41bcaa0b8b1dc4a62",
    20: "82f106ae5a47e725d23780bb3464d9e6",
}
# repr of unate_no_family_stats(UnateInstance.sample(16, world, seed), exhaustive=True):
UNATE_STATS_DIGESTS = {
    (0, "yes"): "51d521b6644e09ebf94ecdbec87b2a12",
    (0, "no"): "4a8ac22a8a6c403b5285126447f2b431",
    (1, "yes"): "d5820b60b1f0240058f940a6daa77f13",
    (1, "no"): "fa268f288b2e9d347a62343983ff1219",
}


def test_cube_scans_pinned():
    witness = {}
    for n, term_len in ((14, 4), (16, None)):
        for seed in (0, 1):
            fam = witness_edge_family(MonoInstance.sample(n, "no", seed, term_len=term_len))
            witness[n, term_len, seed] = _digest(repr([(x.bits, y.bits) for x, y in fam]).encode())
    middle = {
        n: _digest(np.asarray(
            middle_layer_indices(n, n / 2 - math.sqrt(n), n / 2 + math.sqrt(n)), dtype=np.int64
        ).tobytes())
        for n in (9, 14, 16, 20)
    }
    stats = {
        (seed, world): _digest(repr(
            unate_no_family_stats(UnateInstance.sample(16, world, seed), exhaustive=True)
        ).encode())
        for seed in (0, 1)
        for world in ("yes", "no")
    }
    assert witness == WITNESS_FAMILY_DIGESTS
    assert middle == MIDDLE_LAYER_DIGESTS
    assert stats == UNATE_STATS_DIGESTS


def _mono21() -> MonoInstance:
    return MonoInstance.sample(21, "no", 1, term_len=4)


def _unate21() -> UnateInstance:
    return UnateInstance.from_parts(21, "no", range(10), [[0, 1], [2]], [(12, True), (15, False)])


# every whole-cube entry point, one dimension past the 2**20 table cap, as
# (instance builder, call)
_CUBE_ENTRY_POINTS = {
    "mono-truth_table": (_mono21, MonoInstance.truth_table),
    "flipdnf-truth_table": (
        lambda: FlippedDnfInstance.from_parts(21, "no", [[0, 1], [2, 3]], [4]),
        FlippedDnfInstance.truth_table,
    ),
    "onelevel-truth_table": (
        lambda: OneLevelInstance.from_parts(21, "no", [[0, 1], [2]], [3, 4]),
        OneLevelInstance.truth_table,
    ),
    "unate-truth_table": (_unate21, UnateInstance.truth_table),
    "unate-base_truth_table": (_unate21, UnateInstance.base_truth_table),
    "witness_edge_family": (_mono21, witness_edge_family),
    "exhaustive_witness_density": (_mono21, exhaustive_witness_density),
    "unate_no_family_stats": (_unate21, lambda inst: unate_no_family_stats(inst, exhaustive=True)),
    "quadrant-truth_table": (lambda: QuadrantInstance(19, 0), QuadrantInstance.truth_table),
    "middle_layer_indices": (lambda: None, lambda _: middle_layer_indices(21, 6, 15)),
}


@pytest.mark.parametrize("build, call", _CUBE_ENTRY_POINTS.values(), ids=_CUBE_ENTRY_POINTS.keys())
def test_whole_cube_entry_points_keep_the_cap(build, call):
    inst = build()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            call(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # refused before any per-point allocation: one bit per point is 256 KB
    assert peak < 1 << 17


def _assert_scan_matches_the_per_point_twin(inst: MonoInstance) -> list:
    """The cube scan's edges are those of ``witness_edge_at`` over the whole
    middle layer, each once."""
    fam = witness_edge_family(inst)
    twin = [
        edge
        for bits in middle_layer_indices(inst.n, inst.band_low, inst.band_high)
        if (edge := witness_edge_at(inst, BitString(inst.n, int(bits)))) is not None
    ]
    assert len(fam) == len(twin) and set(fam) == set(twin)
    return fam


def _per_point_hits(inst: MonoInstance, samples: int, rng: RngStream) -> int:
    """Slow twin of the estimator: one point and one multiplexer walk at a time."""
    return sum(
        witness_edge_at(inst, sample_middle_layer(inst.n, inst.band_low, inst.band_high, rng))
        is not None
        for _ in range(samples)
    )


# sample counts off a multiple of 8 end in a partial byte of the bitsets
# 4000 samples at n = 16 is the mc-n16 benchmark's size
@pytest.mark.parametrize("samples", [1, 7, 8, 9, 1000, 4000])
# n = 65 draws two-word points; it is not a square, so the term length is given
@pytest.mark.parametrize("n, term_len", [(16, None), (14, 4), (25, None), (100, None), (65, 8)])
@settings(max_examples=3, deadline=None)
@given(inst_seed=st.integers(0, 2**32), rng_seed=st.integers(0, 2**63 - 1))
def test_estimate_matches_the_per_point_loop(n, term_len, samples, inst_seed, rng_seed):
    inst = MonoInstance.sample(n, "no", inst_seed, term_len=term_len)
    fast, slow = RngStream(rng_seed, "twin"), RngStream(rng_seed, "twin")
    est = estimate_witness_density(inst, samples, fast)
    assert not [key for key in inst._rows if key[0] == "clause_tables"]
    assert est == FarnessEstimate.from_hits(_per_point_hits(inst, samples, slow), samples, rng_seed)
    assert fast._calls == slow._calls
    assert fast.draw(2**64) == slow.draw(2**64)


# Hand-built n=9 instances (band [1.5, 7.5]), one per branch of the cell
# checks; each probe is a point of the sample with its route and whether it
# is a witness.  Terms are [0, 1] and [2, 3] unless a case says otherwise.
_CELL_CASES = {
    # {0,1,4,6} falsifies no clause of term 0, {0,1,4} one, {0,1} both
    "clauses-0-1-2": (
        dict(terms=[[0, 1], [2, 3]], clauses=[[[4, 5], [6, 7]], [[4, 4], [8, 8]]],
             dictators=[[8, 2], [0, 1]]),
        [((0, 1, 4, 6), Route.one(), False), ((0, 1, 4), Route.cell(0, 1), True),
         ((0, 1), Route.zero(), False)],
    ),
    # the anti-dictator of cell (0, 0) is in its clause [4, 4], and that of
    # cell (0, 1) is one of the two variables of [5, 6]
    "k-in-its-clause": (
        dict(terms=[[0, 1], [2, 3]], clauses=[[[4, 4], [5, 6]], [[4, 4], [8, 8]]],
             dictators=[[4, 6], [0, 1]]),
        [((0, 1, 5), Route.cell(0, 0), False), ((0, 1, 4), Route.cell(0, 1), False),
         ((2, 3, 8), Route.cell(1, 0), True)],
    ),
    "x_k-already-1": (
        dict(terms=[[0, 1], [2, 3]], clauses=[[[4, 5], [6, 7]], [[4, 4], [8, 8]]],
             dictators=[[8, 8], [0, 1]]),
        [((0, 1, 6, 8), Route.cell(0, 0), False), ((0, 1, 6), Route.cell(0, 0), True)],
    ),
    # at the weight-7 point with 0s at 2 and 4, term 0 alone is satisfied,
    # clause (0, 0) alone is falsified, and its anti-dictator 4 reads 0 and
    # avoids the clause, but setting it reaches weight 8, above the band
    "flip-leaves-the-band": (
        dict(terms=[[0, 0], [2, 2]], clauses=[[[2, 2], [3, 3]], [[5, 5], [6, 6]]],
             dictators=[[4, 5], [7, 8]]),
        [((0, 1, 3, 5, 6, 7, 8), Route.cell(0, 0), False),
         ((0, 1, 3, 5, 6, 7), Route.cell(0, 0), True)],
    ),
    # setting x_3 completes term 1 = [2, 3] at the first probe only
    "k-completes-a-second-term": (
        dict(terms=[[0, 1], [2, 3]], clauses=[[[4, 5], [6, 7]], [[4, 4], [8, 8]]],
             dictators=[[3, 2], [0, 1]]),
        [((0, 1, 2, 6), Route.cell(0, 0), False), ((0, 1, 6), Route.cell(0, 0), True)],
    ),
    "k-completes-a-term-of-k-repeated": (
        dict(terms=[[0, 1], [3, 3]], clauses=[[[4, 5], [6, 7]], [[4, 4], [8, 8]]],
             dictators=[[3, 2], [0, 1]]),
        [((0, 1, 6), Route.cell(0, 0), False), ((0, 1, 4), Route.cell(0, 1), True)],
    ),
    "N-is-3": (
        dict(terms=[[0, 1], [2, 3], [4, 5]],
             clauses=[[[6, 6], [7, 7], [8, 8]], [[0, 0], [1, 1], [8, 8]],
                      [[0, 0], [1, 1], [2, 2]]],
             dictators=[[2, 4, 5], [0, 1, 6], [1, 2, 3]]),
        [((0, 1, 6, 7), Route.cell(0, 2), True), ((0, 1), Route.zero(), False),
         ((0, 2, 4, 5), Route.cell(2, 1), False)],
    ),
}


@pytest.mark.parametrize("case", list(_CELL_CASES))
def test_estimate_matches_the_per_point_loop_on_hand_built_cells(case):
    parts, probes = _CELL_CASES[case]
    inst = MonoInstance.from_parts(9, "no", **parts)
    fast, slow = RngStream(3, "cells"), RngStream(3, "cells")
    est = estimate_witness_density(inst, 4000, fast)
    assert not [key for key in inst._rows if key[0] == "clause_tables"]
    drawn = RngStream(3, "cells")
    sample = {sample_middle_layer(9, 1.5, 7.5, drawn) for _ in range(4000)}
    for ones, route, member in probes:
        x = BitString.from_indices(9, ones)
        assert x in sample
        assert inst.route(x) == route
        assert (witness_edge_at(inst, x) is not None) == member
    assert est == FarnessEstimate.from_hits(_per_point_hits(inst, 4000, slow), 4000, 3)
    assert fast._calls == slow._calls
    assert (inst.band_low, inst.band_high) == (1.5, 7.5)
    _assert_scan_matches_the_per_point_twin(inst)


def _route_block_twin(inst: MonoInstance, points: list[int], among: int):
    """Slow twin of ``MonoInstance._route_block`` from the term and clause
    views alone: the bitset of the points of ``among`` that satisfy two or
    more terms and, sorted by term and position, ``(term, position, number
    of falsified clauses, first falsified clause or 0)`` of each point that
    satisfies exactly one."""
    terms = [inst.term(i).mask for i in range(inst.N)]
    clauses: dict[int, list[int]] = {}
    two, once = 0, []
    for p, bits in enumerate(points):
        sat = [i for i, mask in enumerate(terms) if among >> p & 1 and bits & mask == mask]
        if len(sat) > 1:
            two |= 1 << p
        elif sat:
            (i,) = sat
            if i not in clauses:
                clauses[i] = [inst.clause(i, j).mask for j in range(inst.N)]
            fals = [j for j, mask in enumerate(clauses[i]) if not bits & mask]
            once.append((i, p, len(fals), fals[0] if fals else 0))
    return two, sorted(once)


def _members_twin(inst: MonoInstance, points: list[int], among: int) -> list[tuple[int, int]]:
    """``witness_edge_at`` at each point of ``among``, as ``(bits, k)`` in
    term order and ascending position."""
    found = []
    for p, bits in enumerate(points):
        x = BitString(inst.n, bits)
        if among >> p & 1 and (edge := witness_edge_at(inst, x)) is not None:
            found.append((inst.route(x).i, p, bits, (edge[1].bits ^ bits).bit_length() - 1))
    return [(bits, k) for _, _, bits, k in sorted(found)]


def _assert_flat_pass_matches_the_twins(inst, points, among, block):
    two, (term, at, count, first) = inst._route_block(among, block)
    assert (two, list(zip(term.tolist(), at.tolist(), count.tolist(), first.tolist()))) == (
        _route_block_twin(inst, points, among))
    members = distance._witness_members(inst, among, block)
    assert members == _members_twin(inst, points, among)
    return members


# at n=100 most terms that some sampled point satisfies alone hold one or two
# such points; among drops a random part of the block
@pytest.mark.parametrize("seed", range(2))
def test_flat_pass_matches_the_per_point_twins_on_sampled_blocks(seed):
    inst = MonoInstance.sample(100, "no", seed)
    rng = RngStream(seed, "flat-twin")
    block = rng.band_points(100, inst.band_low, inst.band_high, 500)
    for among in ((1 << 500) - 1, BitString.random(500, rng).bits):
        _assert_flat_pass_matches_the_twins(inst, distance._point_ints(block), among, block)


@pytest.mark.parametrize("seed", range(3))
def test_flat_pass_matches_the_per_point_twins_on_the_cube(seed):
    inst = MonoInstance.sample(14, "no", seed, term_len=4)
    mid = 0
    for bits in middle_layer_indices(14, inst.band_low, inst.band_high).tolist():
        mid |= 1 << bits
    members = _assert_flat_pass_matches_the_twins(inst, list(range(1 << 14)), mid, None)
    assert members


def test_a_block_where_no_point_satisfies_exactly_one_term():
    # the two terms are equal, so every point satisfies none or both
    inst = MonoInstance.from_parts(9, "no", terms=[[0, 1], [1, 0]],
                                   clauses=[[[4, 5], [6, 7]], [[4, 4], [8, 8]]],
                                   dictators=[[8, 2], [0, 1]])
    block = RngStream(5, "no-once").band_points(9, inst.band_low, inst.band_high, 300)
    for among, points, cut in (((1 << 300) - 1, distance._point_ints(block), block),
                               ((1 << 512) - 1, list(range(512)), None)):
        two, flat = inst._route_block(among, cut)
        assert two and [len(a) for a in flat] == [0, 0, 0, 0]
        _assert_flat_pass_matches_the_twins(inst, points, among, cut)
    assert np.array_equal(inst.truth_table(), table_of(inst.value, 9))
    assert witness_edge_family(inst) == []
    assert estimate_witness_density(inst, 300, RngStream(5, "no-once")).estimate == 0.0


def test_flat_pass_keeps_its_memory_per_term():
    # tracemalloc peaks when each term's cells went through their own array
    # pass; a pass that concatenated the terms' falsified matrices peaked at
    # 30.5, 30.5 and 68.8 MiB.  The n=100 peak is mostly the row store: the
    # clause blocks and dictator rows of the ~600 terms the sample reaches
    assert _peak_bytes(MonoInstance.sample(20, "no", 1, term_len=4).truth_table) < 10.6 * 2**20
    inst = MonoInstance.sample(20, "no", 1, term_len=4)
    assert _peak_bytes(lambda: witness_edge_family(inst)) < 13.4 * 2**20
    inst = MonoInstance.sample(100, "no", 1)
    rng = RngStream(1, "flat-memory")
    assert _peak_bytes(lambda: estimate_witness_density(inst, 4000, rng)) < 26.9 * 2**20


# recorded with the per-point estimator: estimate_witness_density of
# MonoInstance.sample(16, "no", s) with 4000 samples from RngStream(s, "witness-pin"),
# as (estimate, calls the stream made)
ESTIMATE_PINS = {
    0: (0.015, 4081),
    1: (0.0165, 4101),
    2: (0.01625, 4087),
    3: (0.01575, 4071),
    4: (0.0085, 4086),
}
# the sampled unate_no_family_stats of UnateInstance.sample(n, "no", s) with 3000
# samples from RngStream(s, "ustats-pin"), as (repr digest, calls the stream made)
UNATE_SAMPLED_PINS = {
    (16, 0): ("cdf2cbae4388d4de7d6debdb8670ba83", 3000),
    (16, 1): ("ccad416d9964ae41c19a2b81753872a6", 3000),
    (100, 0): ("1ef8c1e7e0eca70f28c6a04fe2fb9c84", 6000),
    (100, 1): ("3897c08dabce923d52a2ca60ff976fd2", 6000),
}
WITNESS_ESTIMATE_STDOUT = (
    '{\n  "ci_halfwidth": 0.004581104508578527,\n  "estimate": 0.016666666666666666,\n'
    '  "mode": "witness-estimate",\n  "samples": 3000\n}\n'
)


def test_sampled_estimates_pinned(tmp_path, capsys):
    got = {}
    for s in ESTIMATE_PINS:
        rng = RngStream(s, "witness-pin")
        est = estimate_witness_density(MonoInstance.sample(16, "no", s), 4000, rng)
        got[s] = (est.estimate, rng._calls)
    assert got == ESTIMATE_PINS
    got = {}
    for n, s in UNATE_SAMPLED_PINS:
        rng = RngStream(s, "ustats-pin")
        stats = unate_no_family_stats(UnateInstance.sample(n, "no", s), samples=3000, rng=rng)
        got[n, s] = (_digest(repr(stats).encode()), rng._calls)
    assert got == UNATE_SAMPLED_PINS
    inst = tmp_path / "inst.json"
    main(["sample", "--family", "mono", "--n", "16", "--world", "no", "--seed", "11",
          "--out", str(inst)])
    capsys.readouterr()
    assert main(["distance", "--instance", str(inst), "--mode", "witness-estimate",
                 "--samples", "3000", "--seed", "4"]) == 0
    assert capsys.readouterr().out == WITNESS_ESTIMATE_STDOUT
