from __future__ import annotations

import pytest

from cubetest.core import BitString
from cubetest.families import MonoInstance, OneLevelInstance, UnateInstance
from cubetest.sigoracle import (
    ClausePattern,
    FullSignature,
    OutOfBandError,
    TermPattern,
    UnateSignature,
    mono_full_signature,
    unate_signature,
    value_from_mono_signature,
    value_from_unate_signature,
)

from conftest import make_handbuilt_mono, random_middle


class TestPatternEntries:
    def test_none_pattern(self):
        p = TermPattern("none")
        assert p.members() == ()
        assert all(p.entry(k) == 0 for k in range(8))

    def test_unique_pattern(self):
        p = TermPattern("unique", 3)
        assert p.entry(3) == 1
        assert p.entry(0) == 0 and p.entry(7) == 0

    def test_multi_pattern_truncates(self):
        p = TermPattern("multi", 2, 5)
        assert p.entry(2) == 1 and p.entry(5) == 1
        assert p.entry(0) == 0 and p.entry(4) == 0
        assert p.entry(6) is None and p.entry(7) is None

    def test_clause_pattern_is_dual(self):
        p = ClausePattern("multi", 1, 4)
        assert p.entry(1) == 0 and p.entry(4) == 0
        assert p.entry(0) == 1 and p.entry(3) == 1
        assert p.entry(5) is None
        q = ClausePattern("unique", 2)
        assert q.entry(2) == 0 and q.entry(9) == 1

    @pytest.mark.parametrize("kind", [TermPattern, ClausePattern])
    @pytest.mark.parametrize("hits", [[], [0], [3], [9], [0, 1], [2, 5], [4, 9]])
    def test_unmarked_are_the_known_complement_entries(self, kind, hits):
        # the transcripts feed R / Rij from these without an entry() call per index
        p = kind.of(hits)
        keys = [7, 0, 9, 3, 5, 1, 4, 2, 8, 6]
        assert p.unmarked(keys) == [k for k in keys if p.entry(k) == 1 - kind._MARK]
        assert p.unmarked(set(keys)) == [k for k in set(keys) if p.entry(k) == 1 - kind._MARK]

    def test_of_builds_from_hits(self):
        assert TermPattern.of([]) == TermPattern("none")
        assert ClausePattern.of([]) == ClausePattern("all_one")
        assert TermPattern.of([3]) == TermPattern("unique", 3)
        assert ClausePattern.of([2, 5]) == ClausePattern("multi", 2, 5)
        assert TermPattern.of([2, 5]) != ClausePattern.of([2, 5])
        assert ClausePattern.of([2, 5]).zero_members() == (2, 5)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            TermPattern("multi", 5, 2)
        with pytest.raises(ValueError):
            TermPattern("unique", None)
        with pytest.raises(ValueError):
            ClausePattern("all_one", 1)


class TestSignatureValidation:
    def test_clause_required_iff_unique(self):
        with pytest.raises(ValueError):
            FullSignature(TermPattern("none"), ClausePattern("all_one"))
        with pytest.raises(ValueError):
            FullSignature(TermPattern("unique", 1), None)

    def test_value_fields_follow_shape(self):
        with pytest.raises(ValueError):
            FullSignature(TermPattern("unique", 1), ClausePattern("all_one"), a=1)
        with pytest.raises(ValueError):
            FullSignature(TermPattern("unique", 1), ClausePattern("unique", 0))
        with pytest.raises(ValueError):
            FullSignature(
                TermPattern("unique", 1), ClausePattern("multi", 0, 2), a=1
            )
        FullSignature(TermPattern("unique", 1), ClausePattern("multi", 0, 2), 1, 0)

    def test_unate_signature_shape(self):
        with pytest.raises(ValueError):
            UnateSignature(TermPattern("none"), a=1)
        with pytest.raises(ValueError):
            UnateSignature(TermPattern("multi", 0, 1), a=1)
        UnateSignature(TermPattern("multi", 0, 1), a=1, b=0)


class TestMonoSignature:
    def test_no_term_satisfied(self):
        inst = make_handbuilt_mono("no")
        x = BitString.from_indices(16, [8, 9, 10, 11, 12])
        sig = mono_full_signature(inst, x)
        assert sig.term == TermPattern("none")
        assert sig.clause is None and sig.a is None and sig.b is None

    def test_two_terms_smallest_pair(self):
        inst = make_handbuilt_mono("no")
        x = BitString.from_indices(16, [0, 1, 2, 3, 4, 5, 6, 7, 12])
        sig = mono_full_signature(inst, x)
        assert sig.term == TermPattern("multi", 0, 1)
        assert sig.clause is None

    def test_unique_term_unique_clause(self):
        inst = make_handbuilt_mono("no")
        x = BitString.from_indices(16, [0, 1, 2, 3, 12])
        sig = mono_full_signature(inst, x)
        assert sig.term == TermPattern("unique", 0)
        assert sig.clause == ClausePattern("unique", 0)
        # anti-dictator on 13 with x_13 = 0
        assert sig.a == 1 and sig.b is None

    def test_unique_term_multi_clause(self):
        inst = make_handbuilt_mono("no")
        x = BitString.from_indices(16, [0, 1, 2, 3, 8])
        # falsifies cell (0,0)? no: 8 is set -> clause {8,9,10,11} satisfied;
        # the single-variable clauses {12} are all falsified -> multi at (1,2)
        sig = mono_full_signature(inst, x)
        assert sig.term == TermPattern("unique", 0)
        assert sig.clause == ClausePattern("multi", 1, 2)
        assert sig.a in (0, 1) and sig.b in (0, 1)

    def test_out_of_band_rejected(self):
        inst = make_handbuilt_mono("no")
        with pytest.raises(OutOfBandError, match="middle layers"):
            mono_full_signature(inst, BitString.zeros(16))

    def test_reconstruction_cases(self):
        zero = FullSignature(TermPattern("none"), None)
        assert value_from_mono_signature("middle", zero) == 0
        multi = FullSignature(TermPattern("multi", 1, 3), None)
        assert value_from_mono_signature("middle", multi) == 1
        allone = FullSignature(TermPattern("unique", 2), ClausePattern("all_one"))
        assert value_from_mono_signature("middle", allone) == 1
        twofalse = FullSignature(
            TermPattern("unique", 2), ClausePattern("multi", 0, 1), 1, 1
        )
        assert value_from_mono_signature("middle", twofalse) == 0
        onefalse = FullSignature(
            TermPattern("unique", 2), ClausePattern("unique", 4), a=0
        )
        assert value_from_mono_signature("middle", onefalse) == 0
        assert value_from_mono_signature("low", None) == 0
        assert value_from_mono_signature("high", None) == 1

    def test_soundness_sampled(self, rng):
        for seed in range(10):
            for world in ("yes", "no"):
                inst = MonoInstance.sample(16, world, seed=seed)
                for _ in range(300):
                    x = random_middle(inst, rng)
                    sig = mono_full_signature(inst, x)
                    assert value_from_mono_signature("middle", sig) == inst.value(x)


class TestUnateSignature:
    def test_value_cases(self):
        assert value_from_unate_signature("middle", UnateSignature(TermPattern("none"))) == 0
        assert (
            value_from_unate_signature(
                "middle", UnateSignature(TermPattern("unique", 1), a=1)
            )
            == 1
        )
        assert (
            value_from_unate_signature(
                "middle", UnateSignature(TermPattern("multi", 0, 1), a=0, b=0)
            )
            == 1
        )

    def test_handbuilt_positive_dictator(self):
        inst = UnateInstance.from_parts(
            16,
            "yes",
            m_members=range(8),
            terms=[[0, 1], [5, 6, 7], [2, 3, 4, 5, 6]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        x = BitString.from_indices(16, [0, 1, 8])
        sig = unate_signature(inst, x)
        assert sig.term == TermPattern("unique", 0)
        assert sig.a == 1 and sig.b is None

    def test_values_read_after_orientation(self, rng):
        # a = dictator value at the de-oriented point
        for seed in range(6):
            inst = UnateInstance.sample(16, "no", seed=seed)
            for _ in range(200):
                x = BitString.random(16, rng)
                y = x.xor(inst.orientation)
                if inst.band_class_base(y) != "middle":
                    continue
                sig = unate_signature(inst, x)
                if sig.term.kind == "unique":
                    assert sig.a == inst.dictator(sig.term.first).value_at(y)

    def test_soundness_sampled(self, rng):
        for seed in range(10):
            for world in ("yes", "no"):
                inst = UnateInstance.sample(16, world, seed=seed)
                for _ in range(300):
                    x = BitString.random(16, rng)
                    y = x.xor(inst.orientation)
                    if inst.band_class_base(y) != "middle":
                        continue
                    sig = unate_signature(inst, x)
                    assert value_from_unate_signature("middle", sig) == inst.value(x)

    def test_out_of_band_rejected(self):
        # at n=36 the band [9-6, 9+6] excludes the all-zero half
        inst = UnateInstance.sample(36, "no", seed=1)
        bad = inst.orientation  # de-orients to all zeros: below the band
        assert inst.band_class_base(BitString.zeros(36)) == "low"
        with pytest.raises(OutOfBandError):
            unate_signature(inst, bad)


class TestOneLevelSignature:
    def test_soundness_sampled(self, rng):
        for seed in range(10):
            for world in ("yes", "no"):
                inst = OneLevelInstance.sample(16, world, seed=seed)
                for _ in range(300):
                    x = random_middle(inst, rng)
                    sig = unate_signature(inst, x)
                    assert value_from_unate_signature("middle", sig) == inst.value(x)
