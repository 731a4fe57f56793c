from __future__ import annotations

import hashlib

import pytest

from cubetest import transcripts
from cubetest.core import BitString, RngStream
from cubetest.families import MonoInstance, OneLevelInstance, UnateInstance
from cubetest.likelihood import (
    mono_leaf_likelihood,
    mono_leaf_likelihood_bruteforce,
    onelevel_outcome_likelihood,
    onelevel_outcome_likelihood_bruteforce,
    unate_likelihood_bruteforce,
    unate_transcript_likelihood,
)
from cubetest.sigoracle import (
    ClausePattern,
    FullSignature,
    OutOfBandError,
    TermPattern,
    UnateSignature,
    mono_full_signature,
    unate_signature,
)
from cubetest.transcripts import (
    ClassifierConfig,
    EdgeClass,
    MonoTranscript,
    SingleLevelTranscript,
    UnateSignatureOracle,
    UnateTranscript,
    breached_terms,
    classify_mono_edge,
    classify_unate_edge,
    consistency_status,
    induced_mono_tuple,
    induced_single_level_tuple,
)

from conftest import random_middle


def full_sig(term, clause=None, a=None, b=None):
    return FullSignature(term, clause, a, b)


def point(n, ones):
    return BitString.from_indices(n, ones)


def hand_mask(points, ones: bool) -> int:
    """The agreement bitset of ``points``, built here from their index
    tuples: the coordinates where every point is 1 (``ones``) or 0."""
    common = set(range(points[0].n))
    for x in points:
        common &= set(x.one_indices() if ones else x.zero_indices())
    mask = 0
    for v in common:
        mask |= 1 << v
    return mask


def hand_masks(t, P: dict) -> dict:
    """Per key of ``P``: (A1, A0) built by ``hand_mask`` from its members."""
    out = {}
    for key, members in P.items():
        points = [t.queries[q][0] for q in members]
        out[key] = (hand_mask(points, True), hand_mask(points, False))
    return out


def masks_of(A1: dict, A0: dict) -> dict:
    return {key: (A1[key], A0[key]) for key in A1}


def fields_of(t, names) -> dict:
    """Copies of the named fields of ``t``, containers copied all the way
    down (the points and signatures inside are immutable)."""
    def dup(v):
        if isinstance(v, dict):
            return {k: dup(w) for k, w in v.items()}
        return type(v)(map(dup, v)) if isinstance(v, (list, set)) else v

    return {name: dup(getattr(t, name)) for name in names}


class TestMonoTranscriptUpdates:
    def test_singleton_creation(self):
        t = MonoTranscript(16)
        x = point(16, [0, 2, 4, 6, 8])
        sig = full_sig(TermPattern("unique", 4), ClausePattern("unique", 2), a=1)
        t.extend(x, sig)
        assert t.I == {4}
        assert t.J[4] == {2}
        assert t.P[4] == [0] and t.Pij[(4, 2)] == [0]
        assert t.A1[4] == 0b0000_0001_0101_0101  # coordinate v at bit v
        assert t.A0[4] == 0b1111_1110_1010_1010
        assert t.rho[(4, 2)] == {0: 1}

    def test_zero_signature_feeds_every_r(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2]),
            full_sig(TermPattern("multi", 1, 5), None),
        )
        before_p = {i: list(v) for i, v in t.P.items()}
        t.extend(point(16, [3, 4, 5]), full_sig(TermPattern("none"), None))
        assert {i: list(v) for i, v in t.P.items()} == before_p
        assert t.R[1] == [1] and t.R[5] == [1]

    def test_r_backfill_on_new_term(self):
        t = MonoTranscript(16)
        t.extend(point(16, [0, 1]), full_sig(TermPattern("none"), None))
        t.extend(
            point(16, [2, 3]),
            full_sig(TermPattern("unique", 7), ClausePattern("all_one")),
        )
        # the earlier query is known not to satisfy term 7
        assert t.R[7] == [0]

    def test_star_entries_do_not_backfill(self):
        t = MonoTranscript(16)
        # multi pattern (1,3): entries beyond 3 are unknown
        t.extend(point(16, [0]), full_sig(TermPattern("multi", 1, 3), None))
        t.extend(
            point(16, [1]),
            full_sig(TermPattern("unique", 9), ClausePattern("all_one")),
        )
        assert t.R[9] == []  # first query's entry at 9 is unknown, not 0
        assert t.R[1] == [1] and t.R[3] == [1]

    def test_incremental_equals_scratch_random(self, rng):
        for seed in range(60):
            inst = MonoInstance.sample(16, "no", seed=seed)
            t = MonoTranscript(16)
            pairs = []
            for _ in range(20):
                x = random_middle(inst, rng)
                sig = mono_full_signature(inst, x)
                t.extend(x, sig)
                pairs.append((x, sig))
            ref = induced_mono_tuple(pairs)
            assert t.I == ref.I and t.J == ref.J
            assert t.P == ref.P and t.R == ref.R
            assert t.Pij == ref.Pij and t.Rij == ref.Rij
            assert t.A1 == ref.A1 and t.A0 == ref.A0
            assert t.Aij1 == ref.Aij1 and t.Aij0 == ref.Aij0
            assert t.rho == ref.rho

    def test_axioms_on_random_transcripts(self, rng):
        for seed in range(40):
            inst = MonoInstance.sample(16, "yes", seed=seed)
            t = MonoTranscript(16)
            for _ in range(30):
                x = random_middle(inst, rng)
                t.extend(x, mono_full_signature(inst, x))
            assert t.check_axioms() == []
            assert t.cross_check_instance(inst) == []

    def test_extend_validates(self):
        t = MonoTranscript(16)
        with pytest.raises(ValueError):
            t.extend(point(8, [0]), full_sig(TermPattern("none"), None))
        with pytest.raises(ValueError):
            t.extend(point(16, [0]), UnateSignature(TermPattern("none")))


class TestAgreementBitsets:
    """The incremental agreement bitsets against masks built in the test
    from index intersections, on random n=16 transcripts of both kinds;
    the closed-form likelihoods, which read those bitsets, against their
    brute-force twins on the same transcripts."""

    def test_two_level(self, rng):
        leaves = 0
        for seed in range(30):
            inst = MonoInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            t = MonoTranscript(16)
            for _ in range(15):
                x = random_middle(inst, rng)
                t.extend(x, mono_full_signature(inst, x))
                assert masks_of(t.A1, t.A0) == hand_masks(t, t.P)
                assert masks_of(t.Aij1, t.Aij0) == hand_masks(t, t.Pij)
                if any(consistency_status(t, i, j) == "inconsistent" for (i, j) in t.rho):
                    continue  # the closed form covers consistent leaves only
                closed = mono_leaf_likelihood(inst, t)
                brute = mono_leaf_likelihood_bruteforce(inst, t)
                assert closed.p_yes == pytest.approx(brute.p_yes, rel=1e-12, abs=0)
                assert closed.p_no == pytest.approx(brute.p_no, rel=1e-12, abs=0)
                leaves += bool(t.rho)
        assert leaves >= 100

    def test_single_level(self, rng):
        leaves = 0
        for seed in range(30):
            inst = OneLevelInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            t = SingleLevelTranscript(16)
            for _ in range(15):
                x = random_middle(inst, rng)
                t.extend(x, unate_signature(inst, x))
                assert masks_of(t.A1, t.A0) == hand_masks(t, t.P)
                if any(consistency_status(t, i) == "inconsistent" for i in t.rho):
                    continue
                closed = onelevel_outcome_likelihood(inst, t)
                brute = onelevel_outcome_likelihood_bruteforce(inst, t)
                assert closed.p_yes == pytest.approx(brute.p_yes, rel=1e-12, abs=0)
                assert closed.p_no == pytest.approx(brute.p_no, rel=1e-12, abs=0)
                leaves += bool(t.rho)
        assert leaves >= 30

    def test_unateness(self):
        for seed in range(20):
            inst = UnateInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            oracle = UnateSignatureOracle(inst)
            g = RngStream(seed, "bitset-twin")
            while len(oracle.transcript) < 10:
                try:
                    oracle.query(BitString.random(16, g))
                except OutOfBandError:
                    continue
                t = oracle.transcript
                assert masks_of(t.A1, t.A0) == hand_masks(t, t.P)
            mbar = sum(1 << k for k in range(16) if k not in inst.M)
            assert t.Mbar == mbar
            for i, (a1, a0) in hand_masks(t, t.P).items():
                assert t.common_coords(i) & t.Mbar == (a1 | a0) & mbar
            closed = unate_transcript_likelihood(inst, t, mode="exhaustive")
            brute = unate_likelihood_bruteforce(inst, t)
            assert closed.p_yes == pytest.approx(brute.p_yes, rel=1e-12, abs=0)
            assert closed.p_no == pytest.approx(brute.p_no, rel=1e-12, abs=0)

    def test_induced_tuples_never_run_the_incremental_update(self, rng, monkeypatch):
        # the twins are independent only if they build their agreement
        # sets without ``_track``, the update they are checked against
        inst = MonoInstance.sample(16, "no", seed=3)
        pairs = []
        for _ in range(15):
            x = random_middle(inst, rng)
            pairs.append((x, mono_full_signature(inst, x)))
        single = OneLevelInstance.sample(16, "no", seed=3)
        single_pairs = []
        for _ in range(15):
            x = random_middle(single, rng)
            single_pairs.append((x, unate_signature(single, x)))

        def broken(*args):
            raise AssertionError("an induced tuple ran _track")

        monkeypatch.setattr(transcripts._Transcript, "_track", broken)
        ref = induced_mono_tuple(pairs)
        assert masks_of(ref.A1, ref.A0) == hand_masks(ref, ref.P)
        assert masks_of(ref.Aij1, ref.Aij0) == hand_masks(ref, ref.Pij)
        assert ref.Pij  # the cell level is exercised
        ref = induced_single_level_tuple(single_pairs)
        assert ref.P and masks_of(ref.A1, ref.A0) == hand_masks(ref, ref.P)


class TestConsistency:
    def test_statuses(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1]),
            full_sig(TermPattern("unique", 2), ClausePattern("unique", 1), a=0),
        )
        assert consistency_status(t, 2, 1) == "zero_consistent"
        t.extend(
            point(16, [0, 2]),
            full_sig(TermPattern("unique", 2), ClausePattern("unique", 1), a=1),
        )
        assert consistency_status(t, 2, 1) == "inconsistent"
        with pytest.raises(KeyError):
            consistency_status(t, 2, 9)

    def test_value_for_rejects_unrecorded_clause(self):
        sig = full_sig(TermPattern("unique", 2), ClausePattern("multi", 1, 4), 0, 1)
        assert (sig.value_for(1), sig.value_for(4)) == (0, 1)
        with pytest.raises(KeyError):
            sig.value_for(3)
        with pytest.raises(KeyError):
            full_sig(TermPattern("multi", 1, 5), None).value_for(1)


class TestMonoClassifier:
    def setup_method(self):
        self.cfg_loose = ClassifierConfig(16, alpha=4.0, mono_drop=4)
        self.cfg_std = ClassifierConfig(16, alpha=4.0)

    def test_first_query_is_clean(self):
        t = MonoTranscript(16)
        edge = classify_mono_edge(
            t,
            point(16, [0, 1]),
            full_sig(TermPattern("unique", 1), ClausePattern("all_one")),
            self.cfg_std,
        )
        assert edge.kind is None

    def test_e1_large_one_drop(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3, 4, 5, 6, 7]),
            full_sig(TermPattern("unique", 3), ClausePattern("all_one")),
        )
        x = point(16, [0, 8, 9, 10, 11, 12, 13, 14])  # kills ones 1..7 of A_{3,1}
        sig = full_sig(TermPattern("unique", 3), ClausePattern("all_one"))
        edge = classify_mono_edge(t, x, sig, self.cfg_loose)
        assert edge == EdgeClass("E1", 3)

    def test_e2_large_zero_drop(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3]),
            full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0),
        )
        # joins the same cell while setting many common zeros to one
        x = point(16, [0, 1, 2, 3, 8, 9, 10, 11, 12])
        sig = full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0)
        edge = classify_mono_edge(t, x, sig, self.cfg_loose)
        assert edge == EdgeClass("E2", 3, 5)

    def test_e3_zero_consistent_flip(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3]),
            full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0),
        )
        x = point(16, [0, 1, 2, 4])
        sig = full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=1)
        edge = classify_mono_edge(t, x, sig, self.cfg_std)
        assert edge == EdgeClass("E3", 3, 5)

    def test_e4_one_consistent_flip(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3]),
            full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=1),
        )
        x = point(16, [0, 1, 2, 4])
        sig = full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0)
        edge = classify_mono_edge(t, x, sig, self.cfg_std)
        assert edge == EdgeClass("E4", 3, 5)

    def test_e3_requires_not_e2(self):
        # same flip as E3 but with a huge zero-drop: E2 wins, E3 excluded
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3]),
            full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0),
        )
        x = point(16, [0, 1, 2, 3, 8, 9, 10, 11, 12])
        sig = full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=1)
        edge = classify_mono_edge(t, x, sig, self.cfg_loose)
        assert edge.kind == "E2"

    def test_ambiguous_reports_lowest(self):
        # E1 (term drop) and E2 (cell drop) at the same edge
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3, 4, 5, 6, 7]),
            full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0),
        )
        x = point(16, [0, 8, 9, 10, 11, 12, 13, 14])
        sig = full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0)
        edge = classify_mono_edge(t, x, sig, self.cfg_loose)
        assert edge.kind == "E1"
        assert set(edge.ambiguous) == {"E1", "E2"}

    def test_silent_after_first_bad_edge(self):
        t = MonoTranscript(16)
        t.extend(
            point(16, [0, 1, 2, 3]),
            full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=0),
        )
        t.bad_edge = EdgeClass("E3", 3, 5)
        x = point(16, [0, 1, 2, 4])
        sig = full_sig(TermPattern("unique", 3), ClausePattern("unique", 5), a=1)
        assert classify_mono_edge(t, x, sig, self.cfg_std).kind is None


class TestUnateTranscript:
    def test_oracle_reveals_on_breach(self):
        inst = UnateInstance.from_parts(
            16,
            "no",
            m_members=range(8),
            terms=[[0], [1, 2, 3, 4, 5], [6, 7]],
            dictators=[(8, True), (9, False), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        x1 = point(16, [0, 8])
        sig, revealed = oracle.query(x1)
        assert sig.term == TermPattern("unique", 0)
        assert revealed == {}
        # same routing, conflicting dictator value -> inconsistent -> breached
        x2 = point(16, [0])
        sig2, revealed2 = oracle.query(x2)
        assert sig2.a != sig.a
        assert revealed2 == {0: 8}
        assert oracle.transcript.I_B == {0}
        assert oracle.transcript.delta[0] == 8

    def test_out_of_band_query_is_not_counted(self):
        inst = UnateInstance.sample(36, "no", seed=1)
        oracle = UnateSignatureOracle(inst)
        with pytest.raises(OutOfBandError):
            oracle.query(inst.orientation)
        assert oracle.queries_used == len(oracle.transcript) == 0

    def test_breach_by_overlap_shrink(self):
        inst = UnateInstance.from_parts(
            100,
            "no",
            m_members=range(50),
            terms=[[0], [40, 41, 42]],
            dictators=[(70, False), (51, False)],
        )
        oracle = UnateSignatureOracle(inst)
        m_part = list(range(25))  # in-band half of M, term 0 satisfied
        oracle.query(point(100, m_part + list(range(50, 75))))
        t = oracle.transcript
        assert t.I_S == {0}
        assert (t.common_coords(0) & t.Mbar).bit_count() == 50
        # second query agrees on only 5 complement coordinates but keeps
        # the dictator value consistent (coordinate 70 stays 1)
        sig, revealed = oracle.query(point(100, m_part + list(range(70, 100))))
        assert consistency_status(t, 0) == "one_consistent"
        assert 0 in t.I_B and revealed == {0: 70}

    @pytest.mark.parametrize("agree, breached", [(10, True), (11, False)])
    def test_breach_at_the_overlap_floor(self, agree, breached):
        # n=100, floor n/10 = 10: a term whose agreement set outside M
        # shrinks to exactly 10 coordinates is breached, at 11 it is not
        inst = UnateInstance.from_parts(
            100, "no", m_members=range(50), terms=[[0]], dictators=[(70, False)],
        )
        oracle = UnateSignatureOracle(inst)
        m_part = list(range(25))
        oracle.query(point(100, m_part + list(range(50, 75))))
        # the first query's ones 75 - agree .. 74 stay 1 (coordinate 70
        # among them); every other coordinate outside M flips
        ones = list(range(75 - agree, 75)) + list(range(75, 100))
        _, revealed = oracle.query(point(100, m_part + ones))
        t = oracle.transcript
        assert (t.common_coords(0) & t.Mbar).bit_count() == agree
        assert consistency_status(t, 0) == "one_consistent"
        assert t.is_breached(0) is breached
        assert revealed == ({0: 70} if breached else {})

    def test_snapshot_is_an_independent_copy(self):
        inst = UnateInstance.from_parts(
            16, "no", m_members=range(8), terms=[[0], [1, 2], [6, 7]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        oracle.query(point(16, [0, 1, 2, 8, 9]))
        oracle.query(point(16, [0, 8]))
        oracle.query(point(16, [0]))  # breaches term 0
        t = oracle.transcript
        t.bad_edge = EdgeClass("E2")
        t.edge_classes = [None, None, EdgeClass("E2")]
        names = ("n", "M", "Mbar", "queries", "I", "P", "R", "A1", "A0", "rho",
                 "I_B", "delta", "breach_events", "bad_edge", "edge_classes")
        before = fields_of(t, names)
        c = t.snapshot()
        assert fields_of(c, names) == before
        assert t.I_B == {0} and t.A1[1] == 0b11_0000_0111
        x = point(16, [1, 2, 3, 9, 10])
        c.extend(x, unate_signature(inst, x), reveal=oracle._special_var)
        c.bad_edge = None
        c.edge_classes.append(None)
        assert fields_of(t, names) == before

    def test_breached_monotone_and_scratch_equal(self, rng):
        for seed in range(20):
            inst = UnateInstance.sample(16, "no", seed=seed)
            oracle = UnateSignatureOracle(inst)
            prev: set = set()
            for _ in range(25):
                x = BitString.random(16, rng)
                try:
                    oracle.query(x)
                except OutOfBandError:
                    continue
                t = oracle.transcript
                assert prev <= t.I_B  # breached stays breached
                prev = set(t.I_B)
                scratch_b, scratch_s = breached_terms(t)
                assert scratch_b == frozenset(t.I_B)
                assert scratch_s == frozenset(t.I_S)

    def test_single_level_scratch_equivalence(self, rng):
        for seed in range(20):
            inst = OneLevelInstance.sample(16, "no", seed=seed)
            t = SingleLevelTranscript(16)
            pairs = []
            for _ in range(20):
                x = random_middle(inst, rng)
                sig = unate_signature(inst, x)
                t.extend(x, sig)
                pairs.append((x, sig))
            ref = induced_single_level_tuple(pairs)
            assert t.I == ref.I and t.P == ref.P and t.R == ref.R
            assert t.A1 == ref.A1 and t.A0 == ref.A0 and t.rho == ref.rho

    def test_reveal_required(self):
        t = UnateTranscript(16, range(8))
        sig1 = UnateSignature(TermPattern("unique", 0), a=1)
        sig2 = UnateSignature(TermPattern("unique", 0), a=0)
        t.extend(point(16, [0, 8]), sig1, reveal={})
        with pytest.raises(ValueError, match="no revelation"):
            t.extend(point(16, [0]), sig2)


class TestClassifierConfig:
    @pytest.mark.parametrize("field", ["alpha", "mono_drop", "unate_drop", "breach_cap"])
    def test_nan_threshold_refused(self, field):
        # a NaN threshold compares false with every drop, so its event never fires
        with pytest.raises(ValueError, match=field):
            ClassifierConfig(16, **{field: float("nan")})

    def test_integer_thresholds_load(self):
        cfg = ClassifierConfig(16, mono_drop=4, unate_drop=6, breach_cap=5)
        assert (cfg.mono_drop, cfg.unate_drop, cfg.breach_cap) == (4, 6, 5)
        with pytest.raises(ValueError, match="alpha"):
            ClassifierConfig(16, alpha=0.5)


class TestUnateClassifier:
    def test_first_query_clean(self):
        t = UnateTranscript(16, range(8))
        cfg = ClassifierConfig(16)
        sig = UnateSignature(TermPattern("unique", 0), a=1)
        edge = classify_unate_edge(t, point(16, [0, 8]), sig, {}, cfg)
        assert edge.kind is None

    def test_e1_agreement_drop(self):
        cfg = ClassifierConfig(16, unate_drop=6)
        t = UnateTranscript(16, range(8))
        t.extend(point(16, [0, 1, 2, 8, 9]), UnateSignature(TermPattern("unique", 0), a=1), reveal={})
        x = point(16, [0, 3, 4, 10, 11, 12])  # disagrees widely inside A_0
        sig = UnateSignature(TermPattern("unique", 0), a=1)
        edge = classify_unate_edge(t, x, sig, {}, cfg)
        assert edge == EdgeClass("E1", 0)

    def test_e2_breach_count(self):
        # standard cap at n=16 is below 1, so the first breach trips E2
        cfg = ClassifierConfig(16)
        assert cfg.breach_cap < 1
        inst = UnateInstance.from_parts(
            16,
            "no",
            m_members=range(8),
            terms=[[0], [1, 2, 3, 4, 5], [6, 7]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        oracle.query(point(16, [0, 8]))
        x = point(16, [0])
        edge = oracle.classify_next(x, cfg)
        assert edge.kind == "E2"

    def test_e3_special_variable_collision(self):
        # cap raised so two breaches are allowed; they share delta -> E3
        cfg = ClassifierConfig(16, breach_cap=5)
        inst = UnateInstance.from_parts(
            16,
            "no",
            m_members=range(8),
            terms=[[0], [1], [6, 7]],
            dictators=[(8, False), (8, True), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        oracle.query(point(16, [0, 8]))
        oracle.query(point(16, [0]))  # breach term 0 (inconsistent)
        assert oracle.transcript.I_B == {0}
        oracle.query(point(16, [1, 8]))
        x = point(16, [1])  # breaches term 1, delta collision at 8
        edge = oracle.classify_next(x, cfg)
        assert edge == EdgeClass("E3", 0, 1)

    def test_classify_leaves_the_transcript_untouched(self):
        # the classifier extends a snapshot; its probe breaches term 0
        inst = UnateInstance.from_parts(
            100, "no", m_members=range(50), terms=[[0], [40, 41, 42]],
            dictators=[(70, False), (51, False)],
        )
        oracle = UnateSignatureOracle(inst)
        m_part = list(range(25))
        oracle.query(point(100, m_part + list(range(50, 75))))
        t = oracle.transcript
        x = point(100, m_part + list(range(70, 100)))
        probe = t.snapshot()
        assert probe.extend(x, unate_signature(inst, x), reveal=oracle._special_var) == {0: 70}
        fields = ("queries", "A1", "A0", "P", "R", "rho", "I_B", "delta", "breach_events")
        before = fields_of(t, fields)
        for cfg in (ClassifierConfig(100), ClassifierConfig(100, breach_cap=5)):
            oracle.classify_next(x, cfg)
            assert fields_of(t, fields) == before
        assert t.I_B == set() and oracle.queries_used == 1

    def test_priority_e1_over_e2(self):
        cfg = ClassifierConfig(16, unate_drop=4)
        inst = UnateInstance.from_parts(
            16,
            "no",
            m_members=range(8),
            terms=[[0], [1, 2, 3, 4, 5], [6, 7]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        oracle.query(point(16, [0, 8, 9, 10, 11]))
        # large disagreement AND an inconsistency-breach at once
        x = point(16, [0, 12, 13, 14, 15])
        edge = oracle.classify_next(x, cfg)
        assert edge.kind == "E1"


class TestTranscriptDump:
    def test_mono_dump_schema(self, rng):
        import json

        inst = MonoInstance.sample(16, "no", seed=3)
        t = MonoTranscript(16)
        for _ in range(6):
            x = random_middle(inst, rng)
            sig = mono_full_signature(inst, x)
            t.edge_classes.append(
                classify_mono_edge(t, x, sig, ClassifierConfig(16))
                or None
            )
            t.extend(x, sig)
        lines = t.dump_jsonl().splitlines()
        assert len(lines) == 6
        sizes_prev = 0
        for line in lines:
            rec = json.loads(line)
            assert {"x", "signature", "sizes"} <= set(rec)
            assert rec["sizes"]["queries"] == sizes_prev + 1
            sizes_prev += 1

    def test_unate_dump_records_breaches(self):
        import json

        inst = UnateInstance.from_parts(
            16,
            "no",
            m_members=range(8),
            terms=[[0], [1, 2, 3, 4, 5], [6, 7]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        oracle.query(point(16, [0, 8]))
        oracle.query(point(16, [0]))
        lines = [json.loads(l) for l in oracle.transcript.dump_jsonl().splitlines()]
        assert len(lines) == 2
        assert "breach_events" not in lines[0]
        assert lines[1]["breach_events"] == {"0": 8}


class TestPinnedDumps:
    """Pinned blake2b digests of ``dump_jsonl`` bytes: restructuring the
    transcript code must not move a byte of them."""

    def test_mono_dump_with_edge_classes(self):
        h = hashlib.blake2b(digest_size=16)
        classes = 0
        for seed in range(6):
            inst = MonoInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            rng = RngStream(seed, "pinned-mono-dump")
            cfg = ClassifierConfig(16, mono_drop=3 + seed % 3)
            t = MonoTranscript(16)
            for _ in range(25):
                x = random_middle(inst, rng)
                sig = mono_full_signature(inst, x)
                edge = classify_mono_edge(t, x, sig, cfg)
                t.edge_classes.append(edge or None)
                if edge and t.bad_edge is None:
                    t.bad_edge = edge
                t.extend(x, sig)
            classes += sum(e is not None for e in t.edge_classes)
            h.update(t.dump_jsonl().encode())
        assert classes > 0
        assert h.hexdigest() == "dba1aad8582f9406930ccdd2c00fdc4f"

    def test_unate_dump_with_breaches(self):
        h = hashlib.blake2b(digest_size=16)
        breaches = 0
        for seed in range(6):
            inst = UnateInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            oracle = UnateSignatureOracle(inst)
            rng = RngStream(seed, "pinned-unate-dump")
            cfg = ClassifierConfig(16, unate_drop=4, breach_cap=2)
            for _ in range(40):
                x = BitString.random(16, rng)
                try:
                    edge = oracle.classify_next(x, cfg)
                except OutOfBandError:
                    continue
                oracle.transcript.edge_classes.append(edge or None)
                oracle.query(x)
            breaches += len(oracle.transcript.I_B)
            h.update(oracle.transcript.dump_jsonl().encode())
        assert breaches > 0
        assert h.hexdigest() == "ec53c1df02b1fb3fb30187a386f8d8b2"


class TestPinnedEdgeClasses:
    """Pinned blake2b digests of every edge class the classifiers give on
    seeded n=16 transcripts, past the first bad edge too (``bad_edge`` is
    never set).  The thresholds are low enough that E1, E2 and E3 fire, so
    the drop counts of ``A1`` / ``A0`` / ``Aij0`` are pinned as well."""

    def test_mono_edge_classes(self):
        h = hashlib.blake2b(digest_size=16)
        kinds = set()
        for seed in range(8):
            inst = MonoInstance.sample(16, "no", seed=seed)
            rng = RngStream(seed, "pinned-mono-edges")
            cfg = ClassifierConfig(16, mono_drop=3)
            t = MonoTranscript(16)
            x = random_middle(inst, rng)
            for _ in range(50):
                # a walk that flips up to 4 coordinates a step revisits cells
                y = x.flip(rng.sample_without_replacement(range(16), rng.draw(4)))
                if inst.weight_class(y) == "middle":
                    x = y
                sig = mono_full_signature(inst, x)
                edge = classify_mono_edge(t, x, sig, cfg)
                kinds.update(edge.ambiguous or (edge.kind,))
                h.update(repr(edge).encode())
                t.extend(x, sig)
        assert {"E1", "E2", "E3"} <= kinds
        assert h.hexdigest() == "8c07729c0ae921db5014e58d82b23c85"

    def test_unate_edge_classes(self):
        h = hashlib.blake2b(digest_size=16)
        kinds = set()
        for seed in range(6):
            inst = UnateInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            oracle = UnateSignatureOracle(inst)
            rng = RngStream(seed, "pinned-unate-edges")
            cfg = ClassifierConfig(16, unate_drop=4, breach_cap=2)
            for _ in range(40):
                x = BitString.random(16, rng)
                try:
                    edge = oracle.classify_next(x, cfg)
                except OutOfBandError:
                    continue
                kinds.add(edge.kind)
                h.update(repr(edge).encode())
                oracle.query(x)
        assert {"E1", "E2", "E3"} <= kinds
        assert h.hexdigest() == "ec8d15d0248f6b357a990ae2e94026e0"
