from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetest.cli import _dump_json
from cubetest.cli import main as cli_main
from cubetest.core import BitString, ResourceLimitError, derive_generator
from cubetest.families import (
    FlippedDnfInstance,
    QuadrantInstance,
    MonoInstance,
    OneLevelInstance,
    Route,
    UnateInstance,
    instance_from_json,
    sample_instance,
)

from conftest import handbuilt_instance, make_handbuilt_mono, random_middle


class TestMonoSampling:
    def test_counts(self):
        inst = MonoInstance.sample(16, "yes", seed=7)
        assert inst.N == 16 and inst.m == 4
        assert inst._terms.shape == (16, 4)
        assert inst.clause_block(3).shape == (16, 4)
        assert not inst.negated

    def test_no_world_shares_multiplexer(self):
        yes = MonoInstance.sample(16, "yes", seed=7)
        no = MonoInstance.sample(16, "no", seed=7)
        assert np.array_equal(yes._terms, no._terms)
        assert np.array_equal(yes.clause_block(5), no.clause_block(5))
        assert np.array_equal(yes.dict_row(2), no.dict_row(2))
        assert no.negated

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            MonoInstance.sample(15, "yes", seed=0)

    def test_term_entry_uniformity(self):
        # distribution of the first variable of the first term across seeds
        n, trials = 16, 20_000
        counts = np.zeros(n, dtype=np.int64)
        for s in range(trials):
            inst = MonoInstance.sample(n, "yes", seed=s)
            counts[int(inst._terms[0, 0])] += 1
        p = 1.0 / n
        sigma = math.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) < 5 * sigma)

    def test_lazy_explicit_equivalence(self, rng):
        # a hand-built instance pinned to the rows a sampled one derives
        # evaluates like a fresh sample, which derives each row on first use
        src = MonoInstance.sample(16, "no", seed=11)
        pinned = MonoInstance.from_parts(
            16, "no", src._terms,
            [src.clause_block(i) for i in range(16)],
            [src.dict_row(i) for i in range(16)],
            seed=11,
        )
        lazy = MonoInstance.sample(16, "no", seed=11)
        for _ in range(500):
            x = BitString.random(16, rng)
            assert lazy.value(x) == pinned.value(x)
        # full-table equality covers every possible query exactly
        assert np.array_equal(lazy.truth_table(), pinned.truth_table())
        for i in range(16):
            assert np.array_equal(lazy.clause_block(i), pinned.clause_block(i))
            assert np.array_equal(lazy.dict_row(i), pinned.dict_row(i))
        assert lazy.to_json()["storage"] == "lazy"
        assert pinned.to_json()["storage"] == "explicit"

    def test_rows_do_not_depend_on_derivation_order(self):
        # rows come from a generator re-keyed per row: deriving them in
        # another order, between other draws, gives the same rows, and
        # those of the independent derive_generator
        a = MonoInstance.sample(16, "no", seed=3)
        b = MonoInstance.sample(16, "no", seed=3)
        for i in range(16):
            a.clause_block(i)
            a.dict_row(i)
        for i in reversed(range(16)):
            b.dict_row(i)
            UnateInstance.sample(16, "no", seed=i)
            b.clause_block(i)
        for i in range(16):
            clauses = derive_generator(3, "mono", "clauses", i).integers(
                0, 16, size=(16, 4), dtype=np.int32
            )
            dicts = derive_generator(3, "mono", "dict", i).integers(0, 16, size=16, dtype=np.int32)
            for inst in (a, b):
                assert np.array_equal(inst.clause_block(i), clauses)
                assert np.array_equal(inst.dict_row(i), dicts)

    def test_row_index_out_of_range(self):
        # a row outside [0, N) is not part of the instance: nothing is
        # derived or stored for it, on a sampled or a hand-built instance
        inst = MonoInstance.sample(16, "no", seed=11)
        with pytest.raises(IndexError):
            inst.clause_block(16)
        with pytest.raises(IndexError):
            inst.dict_row(-1)
        assert inst._rows == {}
        with pytest.raises(IndexError):
            make_handbuilt_mono("no").clause_block(7)

    def test_table_cap(self):
        # dimension n + 2 = 21 exceeds the 2**20 table cap
        with pytest.raises(ResourceLimitError):
            QuadrantInstance(19, 0).truth_table()


class TestMonoEvaluation:
    def test_truncation(self):
        inst = MonoInstance.sample(16, "yes", seed=3)
        assert inst.value(BitString.ones(16)) == 1
        assert inst.value(BitString.zeros(16)) == 0

    def test_all_zero_routes_to_zero(self):
        inst = MonoInstance.sample(16, "yes", seed=3)
        assert inst.route(BitString.zeros(16)) == Route.zero()

    def test_all_ones_routes_to_one(self):
        inst = MonoInstance.sample(16, "yes", seed=3)
        assert inst.route(BitString.ones(16)) == Route.one()

    def test_handbuilt_cell_route(self):
        inst = make_handbuilt_mono("no")
        # weight 5 point satisfying only term 0 and falsifying only cell (0,0)
        x = BitString.from_indices(16, [0, 1, 2, 3, 12])
        assert inst.weight_class(x) == "middle"
        assert inst.route(x) == Route.cell(0, 0)

    def test_handbuilt_value_through_antidictator(self):
        inst = make_handbuilt_mono("no")
        x = BitString.from_indices(16, [0, 1, 2, 3, 12])
        # anti-dictator on coordinate 13, x_13 = 0 -> value 1
        assert x[13] == 0
        assert inst.value(x) == 1

    def test_handbuilt_two_terms_is_forced_one(self):
        inst = make_handbuilt_mono("no")
        x = BitString.from_indices(16, [0, 1, 2, 3, 4, 5, 6, 7, 12])
        assert inst.route(x) == Route.one()
        assert inst.value(x) == 1

    def test_truth_table_matches_pointwise(self, rng):
        for world in ("yes", "no"):
            inst = MonoInstance.sample(16, world, seed=5)
            table = inst.truth_table()
            for _ in range(2000):
                x = BitString.random(16, rng)
                assert table[x.bits] == inst.value(x)

    def test_forced_one_survives_upward_flips(self, rng):
        # terms and clauses are monotone, so a forced-one route (several
        # terms, or a unique term with every clause satisfied) stays
        # forced-one under any 0 -> 1 flip
        inst = MonoInstance.sample(16, "no", seed=9)
        found = 0
        while found < 60:
            x = random_middle(inst, rng)
            if inst.route(x) != Route.one():
                continue
            found += 1
            for i in x.zero_indices():
                assert inst.route(x.flip_one(i)) == Route.one()

    def test_nonsquare_opt_in(self):
        inst = MonoInstance.sample(14, "no", seed=1, term_len=4)
        assert inst.N == 16 and inst.m == 4
        assert inst.band_low == 7 - math.sqrt(14)
        x = BitString.from_indices(14, range(7))
        assert inst.value(x) in (0, 1)


class TestBB15:
    def test_yes_world_has_no_flip(self):
        inst = FlippedDnfInstance.sample(16, "yes", seed=2)
        assert len(inst.flip_coords) == 0
        assert inst.value(BitString.ones(16)) == 1
        assert inst.value(BitString.zeros(16)) == 0

    def test_no_world_flip_semantics(self):
        # two-term instance: flipping the planted coordinate changes the
        # middle-layer value exactly like evaluating the DNF at the flip
        inst = FlippedDnfInstance.from_parts(
            16, "no", [[0, 1, 2, 3], [4, 5, 6, 7]], [0]
        )
        x = BitString.from_indices(16, [1, 2, 3, 8, 9, 10, 11, 12])
        y = x.flip(inst.flip_coords)
        assert inst.value(x) == inst.dnf_value(y)

    def test_table_matches_pointwise(self, rng):
        inst = FlippedDnfInstance.sample(16, "no", seed=8)
        table = inst.truth_table()
        for _ in range(1500):
            x = BitString.random(16, rng)
            assert table[x.bits] == inst.value(x)

    def test_yes_world_table_is_monotone(self):
        from cubetest.distance import count_violating_edges

        inst = FlippedDnfInstance.sample(16, "yes", seed=4)
        assert count_violating_edges(inst.truth_table(), 16) == 0


class TestOneLevel:
    def test_truncation_and_terms(self):
        inst = OneLevelInstance.sample(16, "no", seed=6)
        assert inst.N == 16
        assert inst.value(BitString.ones(16)) == 1
        assert inst.value(BitString.zeros(16)) == 0

    def test_handbuilt_negative_dictator(self):
        inst = OneLevelInstance.from_parts(
            16, "no", [[0, 1], [2, 3]], [8, 9]
        )
        # satisfies exactly the second term; anti-dictator on 9 with x_9=1
        x = BitString.from_indices(16, [2, 3, 9, 10, 11, 12, 13, 14])
        assert inst.route(x) == Route.term(1)
        assert inst.value(x) == 0

    def test_table_matches_pointwise(self, rng):
        inst = OneLevelInstance.sample(16, "yes", seed=3)
        table = inst.truth_table()
        for _ in range(1500):
            x = BitString.random(16, rng)
            assert table[x.bits] == inst.value(x)


class TestUnate:
    def test_size_formula(self):
        assert UnateInstance.size_for(16) == 3
        assert UnateInstance.size_for(100) == 11

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            UnateInstance.sample(17, "yes", seed=0)

    def test_yes_world_all_positive(self):
        for s in range(100):
            inst = UnateInstance.sample(16, "yes", seed=s)
            assert not inst._dict_negated.any()

    def test_structure(self):
        inst = UnateInstance.sample(16, "no", seed=5)
        assert len(inst.M) == 8
        for i in range(inst.N):
            assert set(inst.term(i).vars) <= inst.M
            assert inst.dictator(i).index not in inst.M

    def test_term_density(self):
        # mean size of the first term over seeds approx (n/2)/sqrt(n)
        n, trials = 100, 3000
        total = 0
        for s in range(trials):
            inst = UnateInstance.sample(n, "yes", seed=s)
            total += len(inst.term(0).vars)
        mean = total / trials
        expect = (n / 2) / math.sqrt(n)
        sigma = math.sqrt(expect * (1 - 1 / math.sqrt(n)) / trials)
        assert abs(mean - expect) < 3 * sigma

    def test_oriented_extremes(self):
        inst = UnateInstance.sample(16, "no", seed=9)
        # a query whose de-oriented M-half is all ones evaluates to 1
        x = inst.orientation.flip(range(16))  # de-orients to all ones
        assert inst.value(x) == 1
        assert inst.value(inst.orientation) == 0  # de-orients to all zeros

    def test_truncation_after_xor(self, rng):
        inst = UnateInstance.sample(16, "no", seed=9)
        for _ in range(500):
            x = BitString.random(16, rng)
            y = x.xor(inst.orientation)
            got = inst.value(x)
            if inst.m_weight(y) > inst.band_high:
                assert got == 1
            elif inst.m_weight(y) < inst.band_low:
                assert got == 0

    def test_table_matches_pointwise(self, rng):
        inst = UnateInstance.sample(16, "no", seed=2)
        table = inst.truth_table()
        for _ in range(1500):
            x = BitString.random(16, rng)
            assert table[x.bits] == inst.value(x)

    def test_handbuilt_positive_dictator_trace(self):
        inst = UnateInstance.from_parts(
            16,
            "yes",
            m_members=range(8),
            terms=[[0, 1], [0, 1, 2, 3, 4], [5, 6, 7]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        x = BitString.from_indices(16, [0, 1, 8])
        assert inst.route_base(x) == Route.term(0)
        assert inst.value(x) == 1
        assert inst.value(BitString.from_indices(16, [0, 1])) == 0


class TestFi:
    def test_quadrants(self):
        inst = QuadrantInstance(4, 1)
        x0 = BitString.from_indices(6, [3])  # x with x_i = 1 at i=1 -> coord 3
        x1 = BitString.zeros(6)
        assert inst.value(BitString.from_indices(6, [0, 1])) == 1  # (a,b)=(1,1)
        assert inst.value(x1) == 0  # (0,0)
        assert inst.value(BitString.from_indices(6, [1])) == 1  # (0,1), x_i=0
        assert inst.value(BitString.from_indices(6, [1, 3])) == 0  # (0,1), x_i=1
        assert inst.value(BitString.from_indices(6, [0])) == 0  # (1,0), x_i=0
        assert inst.value(BitString.from_indices(6, [0, 3])) == 1  # (1,0), x_i=1

    def test_table_small(self):
        inst = QuadrantInstance(2, 0)
        table = inst.truth_table()
        assert len(table) == 16
        for bits in range(16):
            assert table[bits] == inst.value(BitString(4, bits))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            QuadrantInstance(4, 4)


_BUILDS = [
    lambda: MonoInstance.sample(16, "no", seed=1),
    lambda: MonoInstance.sample(16, "yes", seed=2),
    lambda: FlippedDnfInstance.sample(16, "no", seed=3),
    lambda: OneLevelInstance.sample(16, "yes", seed=4),
    lambda: UnateInstance.sample(16, "no", seed=5),
    lambda: QuadrantInstance(6, 2),
]


class TestSerialization:
    @pytest.mark.parametrize("build", _BUILDS)
    def test_roundtrip_preserves_values(self, build, rng):
        inst = build()
        blob = json.dumps(inst.to_json(), sort_keys=True)
        back = instance_from_json(json.loads(blob))
        dim = getattr(inst, "dimension", inst.n)
        for _ in range(400):
            x = BitString.random(dim, rng)
            assert inst.value(x) == back.value(x)

    @pytest.mark.parametrize("build", _BUILDS)
    def test_roundtrip_bytes_identical(self, build):
        inst = build()
        blob = json.dumps(inst.to_json(), sort_keys=True)
        back = instance_from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_flipdnf_truncate_after_flip_key(self):
        obj = FlippedDnfInstance.sample(16, "no", seed=3).to_json()
        assert "truncate_after_flip" not in obj
        table = instance_from_json(obj).truth_table()
        old = instance_from_json({**obj, "truncate_after_flip": False})
        assert np.array_equal(old.truth_table(), table)
        with pytest.raises(ValueError, match="truncate_after_flip"):
            instance_from_json({**obj, "truncate_after_flip": True})


# ---------------------------------------------------------------------------
# The instance file format
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# blake2b digests of ``cubetest sample --n 16 --seed 7`` output as written
# when the two-level family had a lazy and an explicit storage option; they
# pin the file format of every family (the four-quadrant family has no
# worlds, so both of its files are one file)
SAMPLE_DIGESTS = {
    ("mono", "yes"): "81989a1d1e2d9f3079b48679058ebe5b",
    ("mono", "no"): "eb45d02d6d786effb9c5cbec3ee9af25",
    ("flipdnf", "yes"): "0271a2c5f3788ca59b633f96c5629c5f",
    ("flipdnf", "no"): "ff0ecaea45bd26b8d637ccce421cb87e",
    ("onelevel", "yes"): "1d66ca94c0eea0cf3d342b4a4bfbc4d2",
    ("onelevel", "no"): "ecaa1d2159754bd39a7a32e0d8fe0509",
    ("unate", "yes"): "a66192269ce8e766d638d7949151be65",
    ("unate", "no"): "2b1107a2b816d04ffe172d793a5cb3c4",
    ("quadrant", "yes"): "564d8509e631933bd18a1c572bd9ef9c",
    ("quadrant", "no"): "564d8509e631933bd18a1c572bd9ef9c",
}

# the explicit (hand-built) form of the two conftest instances, written the
# same way
HANDBUILT_DIGESTS = {
    "yes": "2608da706ad5d7052cf81422c6c9d4bf",
    "no": "81b3149ff6d9e75c867ccec3b468e856",
}


def test_sample_bytes_pinned(tmp_path):
    got = {}
    for family, world in SAMPLE_DIGESTS:
        out = tmp_path / f"{family}-{world}.json"
        argv = ["sample", "--family", family, "--n", "16", "--world", world,
                "--seed", "7", "--out", str(out)]
        assert cli_main(argv) == 0
        got[family, world] = _blake(out.read_bytes())
    assert got == SAMPLE_DIGESTS


def test_explicit_form_pinned_and_roundtrips():
    # a file written by ``cubetest sample --family mono --n 9 --world no
    # --seed 7 --storage explicit`` before that option went: every row is
    # pinned from the file, equals the row the seed derives, and is written
    # back byte for byte
    text = (FIXTURES / "mono_n9_no_seed7_explicit.json").read_text()
    inst = instance_from_json(json.loads(text))
    assert inst.seed == 7 and inst.to_json()["storage"] == "explicit"
    assert np.array_equal(inst.truth_table(), MonoInstance.sample(9, "no", 7).truth_table())
    assert _dump_json(inst.to_json()) == text
    for world, digest in HANDBUILT_DIGESTS.items():
        text = _dump_json(make_handbuilt_mono(world).to_json())
        assert _blake(text.encode()) == digest
        assert _dump_json(instance_from_json(json.loads(text)).to_json()) == text


def _set(*path):
    """Put the value at ``path`` of an instance file to ``bad``; the put
    returns the file."""

    def put(obj, bad):
        inner = obj
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = bad
        return obj

    return put


def _set_term(obj, bad):
    obj["terms"][0] = [bad]
    return obj


def _replace_file(obj, bad):
    return bad


# (family, world, where the out-of-range 1-based index goes)
_BAD_INDEX_CASES = {
    "mono-terms": ("mono", "no", _set("terms", 0, 0)),
    "mono-clauses": ("mono", "no", _set("clauses", 1, 2, 3)),
    "mono-dictators": ("mono", "yes", _set("dictators", 3, 1)),
    "flipdnf-terms": ("flipdnf", "no", _set("terms", 5, 1)),
    "flipdnf-flip": ("flipdnf", "no", _set("flip_set", "members", 0)),
    "onelevel-terms": ("onelevel", "yes", _set_term),
    "onelevel-dictators": ("onelevel", "no", _set("dictators", 2)),
    "unate-M": ("unate", "yes", _set("M", 0)),
    "unate-terms": ("unate", "no", _set_term),
    "unate-dictators": ("unate", "no", _set("dictators", 1, "index")),
    "quadrant-i": ("quadrant", "yes", _set("i")),
}


def _instance_file(family: str, world: str) -> dict:
    if family == "mono":  # the lazy form holds no indices
        return make_handbuilt_mono(world).to_json()
    return sample_instance(family, 16, world, seed=3).to_json()


@pytest.mark.parametrize("bad", [0, 17])
@pytest.mark.parametrize(
    "family, world, put", _BAD_INDEX_CASES.values(), ids=_BAD_INDEX_CASES.keys()
)
def test_out_of_range_index_rejected(family, world, put, bad, tmp_path, capsys):
    # 1-based files hold 1..n; a 0 used to load as coordinate n-1 and an
    # n+1 to crash evaluation
    obj = _instance_file(family, world)
    assert instance_from_json(obj) is not None
    put(obj, bad)
    with pytest.raises(ValueError, match="out of range"):
        instance_from_json(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["eval", "--instance", str(path), "--random", "3"]) == 2
    assert "out of range" in capsys.readouterr().err


# (family, world, where the malformed value goes, the value, the error's field)
_MALFORMED_CASES = {
    # numpy used to broadcast one bit over all of M or Mbar
    "unate-r_bits-short": ("unate", "no", _set("r_bits"), [1], "r_bits"),
    "unate-s_bits-short": ("unate", "yes", _set("s_bits"), [0], "s_bits"),
    # any nonzero bit used to read as 1
    "unate-r_bits-2": ("unate", "yes", _set("r_bits", 2), 2, "r_bits"),
    "unate-s_bits-minus-1": ("unate", "no", _set("s_bits", 5), -1, "s_bits"),
    # the string "false" used to read as True: a yes-world file was refused
    # as having a negated dictator, and a no-world file loaded it as negated
    "unate-negated-yes": ("unate", "yes", _set("dictators", 0, "negated"), "false", "negated"),
    "unate-negated-no": ("unate", "no", _set("dictators", 1, "negated"), "false", "negated"),
    # a lazy two-level file with a non-integer seed used to crash with a TypeError
    "mono-seed-null": ("mono", "no", _set("seed"), None, "seed"),
    "mono-seed-string": ("mono", "yes", _set("seed"), "7", "seed"),
    "mono-seed-bool": ("mono", "no", _set("seed"), True, "seed"),
    # a non-integer index or dimension used to crash with a TypeError ...
    "unate-M-string": ("unate", "no", _set("M", 0), "1", "M:"),
    "unate-terms-null": ("unate", "yes", _set_term, None, "terms:"),
    "unate-index-string": ("unate", "no", _set("dictators", 1, "index"), "9", "index:"),
    "onelevel-dictators-null": ("onelevel", "no", _set("dictators", 0), None, "dictators:"),
    "onelevel-terms-string": ("onelevel", "yes", _set_term, "2", "terms:"),
    "mono-explicit-terms-null": ("mono-explicit", "no", _set("terms", 0, 0), None, "terms:"),
    "flipdnf-terms-null": ("flipdnf", "no", _set("terms", 5, 1), None, "terms:"),
    "flipdnf-flip-null": ("flipdnf", "no", _set("flip_set", "members"), [None], "flip_set:"),
    "quadrant-i-string": ("quadrant", "yes", _set("i"), "2", "i:"),
    "quadrant-i-float": ("quadrant", "yes", _set("i"), 2.5, "i:"),
    "mono-n-string": ("mono", "no", _set("n"), "9", "n:"),
    "mono-term_len-string": ("mono", "yes", _set("term_len"), "4", "term_len:"),
    # ... or, as a float, loaded silently as another instance
    "mono-explicit-terms-float": ("mono-explicit", "yes", _set("terms", 1, 2), 1.5, "terms:"),
    "flipdnf-terms-float": ("flipdnf", "yes", _set("terms", 3, 0), 2.7, "terms:"),
    "unate-index-bool": ("unate", "yes", _set("dictators", 0, "index"), True, "index:"),
    "mono-term_len-bool": ("mono", "no", _set("term_len"), True, "term_len:"),
    # a field of the wrong shape used to crash with a TypeError, IndexError
    # or AttributeError
    "unate-M-scalar": ("unate", "no", _set("M"), 5, "M:"),
    "unate-terms-flat": ("unate", "yes", _set("terms"), [1, 2], "terms:"),
    "unate-dictators-scalar": ("unate", "no", _set("dictators"), 3, "dictators:"),
    "unate-dictators-ints": ("unate", "yes", _set("dictators"), [3, 5], "dictators:"),
    "onelevel-term-too-deep": ("onelevel", "no", _set_term, [1], "terms:"),
    "onelevel-dictators-too-deep": ("onelevel", "yes", _set("dictators", 0), [1], "dictators:"),
    "flipdnf-terms-scalar": ("flipdnf", "no", _set("terms"), 3, "terms:"),
    "flipdnf-members-scalar": ("flipdnf", "no", _set("flip_set", "members"), 2, "flip_set:"),
    "flipdnf-flip_set-list": ("flipdnf", "yes", _set("flip_set"), [1], "flip_set:"),
    "mono-explicit-terms-scalar": ("mono-explicit", "no", _set("terms"), 3, "terms:"),
    "quadrant-i-list": ("quadrant", "yes", _set("i"), [2], "i:"),
    "file-not-an-object": ("quadrant", "yes", _replace_file, [1, 2], "instance file:"),
}


@pytest.mark.parametrize(
    "family, world, put, bad, field", _MALFORMED_CASES.values(), ids=_MALFORMED_CASES.keys()
)
def test_malformed_field_rejected(family, world, put, bad, field, tmp_path, capsys):
    if family == "mono-explicit":
        obj = make_handbuilt_mono(world).to_json()
    else:
        obj = sample_instance(family, 16, world, seed=3).to_json()
    assert instance_from_json(obj) is not None
    obj = put(obj, bad)
    with pytest.raises(ValueError, match=field):
        instance_from_json(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["eval", "--instance", str(path), "--random", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


# blake2b digests of truth_table() as the one-level and unateness families
# computed it when each had its own implementation; they pin the shared
# single-level core's output bit for bit
SINGLE_LEVEL_TABLE_DIGESTS = {
    ("onelevel", 0, "yes"): "e6aa26c1c82c0149c36808558dbdab11",
    ("onelevel", 0, "no"): "980cec256bbd040ce4461dd29b5cd4d8",
    ("onelevel", 1, "yes"): "a03147e4d9c23ac0b1bf015f0da8f1e1",
    ("onelevel", 1, "no"): "cd16ae9b0dc5bf52cdafcea7ec396a3c",
    ("unate", 0, "yes"): "b722c22d7afcc24a7717cb06b9a4e772",
    ("unate", 0, "no"): "d1ca4b99693cc4ccc0ac43bdeefc86c9",
    ("unate", 1, "yes"): "a616f3b1b0b8314ceb296e29c010e0b1",
    ("unate", 1, "no"): "6808535c6acdd4ac265fcf00cf2cef76",
}


def _table_digest(inst) -> str:
    return hashlib.blake2b(inst.truth_table().tobytes(), digest_size=16).hexdigest()


def test_single_level_tables_pinned():
    got = {}
    for cls in (OneLevelInstance, UnateInstance):
        for seed in (0, 1):
            for world in ("yes", "no"):
                got[cls.family, seed, world] = _table_digest(cls.sample(16, world, seed))
    assert got == SINGLE_LEVEL_TABLE_DIGESTS


# blake2b digests of truth_table() as computed over a boolean point matrix;
# they pin the bitset whole-cube scans of the two-level and
# flipped-DNF families bit for bit.  Keys: (n, term_len, seed, world).
MONO_TABLE_DIGESTS = {
    (9, None, 0, "yes"): "0a06e8ee2a6589e48263150a0a064282",
    (16, None, 0, "yes"): "00514aadfa927fb90a38958bae943ce7",
    (14, 4, 0, "yes"): "8a6c136887e8b3cbaf23e256e941c689",
    (9, None, 0, "no"): "7c31baed15d4f2822635e10d93de51a2",
    (16, None, 0, "no"): "c443af7d8ad5c35df4aec949a1057add",
    (14, 4, 0, "no"): "9974bf5c1f7b7093ecbeabb305194a03",
    (9, None, 1, "yes"): "53ea988fa57a9ae58ce7652a44a0e0f0",
    (16, None, 1, "yes"): "4b273fa80e2455afedfdfcd94c21e076",
    (14, 4, 1, "yes"): "9cec54bb9f78c849126e740b6a891e55",
    (9, None, 1, "no"): "1c22b88b1eedb5976ada636796f1bdd7",
    (16, None, 1, "no"): "83b7b8f7f0354e98120f6c47a6b826dd",
    (14, 4, 1, "no"): "c9b0886b97f44d29b946062417cc9e01",
}
FLIPDNF_TABLE_DIGESTS = {
    (9, 0, "yes"): "8a0257a146a7527d9f017f99cde3dbdf",
    (16, 0, "yes"): "6da5c5ac78e738363f1b5e86c7e6a39f",
    (9, 0, "no"): "e3eb0ae0b17c4b868162c21d0555956a",
    (16, 0, "no"): "fd6d423e9748b1e14e2b1005741646c7",
    (9, 1, "yes"): "8efd76a006d20e2c3397dfb64981bc43",
    (16, 1, "yes"): "2792bac5fdb40cf2c10bbf7e0275484a",
    (9, 1, "no"): "458a291878e4f5cc59b01cf2b6810c8e",
    (16, 1, "no"): "bd7ae314b0f0474ba1d98d794b701f4e",
}


def test_mono_and_flipdnf_tables_pinned():
    got_mono, got_flip = {}, {}
    for seed in (0, 1):
        for world in ("yes", "no"):
            for n, term_len in ((9, None), (16, None), (14, 4)):
                inst = MonoInstance.sample(n, world, seed, term_len=term_len)
                got_mono[n, term_len, seed, world] = _table_digest(inst)
            for n in (9, 16):
                inst = FlippedDnfInstance.sample(n, world, seed)
                got_flip[n, seed, world] = _table_digest(inst)
    assert got_mono == MONO_TABLE_DIGESTS
    assert got_flip == FLIPDNF_TABLE_DIGESTS


# ---------------------------------------------------------------------------
# Hand-built instances: tables against the scalar oracle, and per-query hits
# against the Term / Clause views
# ---------------------------------------------------------------------------


def _first_two_of(flags) -> list[int]:
    return [i for i, hit in enumerate(flags) if hit][:2]


@settings(max_examples=60, deadline=None)
@given(inst=handbuilt_instance(), picks=st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=24))
def test_handbuilt_scans_match_views(inst, picks):
    n = inst.n
    table = inst.truth_table()
    assert [int(v) for v in table] == [inst.value(BitString(n, t)) for t in range(1 << n)]
    terms = [inst.term(i) for i in range(inst.N)]
    for pick in picks:
        x = BitString(n, pick % (1 << n))
        if isinstance(inst, UnateInstance):
            assert inst.satisfied_terms_base(x) == _first_two_of(t.satisfied_by(x) for t in terms)
            continue
        if isinstance(inst, FlippedDnfInstance):
            assert inst.dnf_value(x) == int(any(t.satisfied_by(x) for t in terms))
            continue
        assert inst.satisfied_terms(x) == _first_two_of(t.satisfied_by(x) for t in terms)
        for i in range(inst.N):
            views = (inst.clause(i, j).falsified_by(x) for j in range(inst.N))
            assert inst.falsified_clauses(i, x) == _first_two_of(views)
