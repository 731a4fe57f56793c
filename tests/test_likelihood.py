from __future__ import annotations

import hashlib
import math

import pytest

from cubetest.core import BitString, RngStream
from cubetest.families import MonoInstance, OneLevelInstance, UnateInstance
from cubetest.likelihood import (
    LeafLikelihood,
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
    mono_full_signature,
    unate_signature,
)
from cubetest.transcripts import (
    MonoTranscript,
    SingleLevelTranscript,
    UnateSignatureOracle,
    consistency_status,
)

from conftest import random_middle


def toy_mono(world: str, seed: int, n: int = 16, n_terms: int = 4) -> MonoInstance:
    g = RngStream(seed, "toy")
    m = math.isqrt(n)
    terms = [[g.randint0(n) for _ in range(m)] for _ in range(n_terms)]
    clauses = [
        [[g.randint0(n) for _ in range(m)] for _ in range(n_terms)]
        for _ in range(n_terms)
    ]
    dicts = [[g.randint0(n) for _ in range(n_terms)] for _ in range(n_terms)]
    return MonoInstance.from_parts(n, world, terms, clauses, dicts)


def grow_mono_transcript(inst, k, rng) -> MonoTranscript:
    t = MonoTranscript(inst.n)
    for _ in range(k):
        x = random_middle(inst, rng)
        t.extend(x, mono_full_signature(inst, x))
    return t


class TestMonoLeafLikelihood:
    def test_empty_transcript(self):
        inst = toy_mono("yes", 0)
        out = mono_leaf_likelihood(inst, MonoTranscript(16))
        assert (out.p_yes, out.p_no, out.ratio) == (1.0, 1.0, 1.0)

    def test_symmetric_cell_has_unit_ratio(self):
        inst = toy_mono("yes", 1)
        t = MonoTranscript(16)
        x = BitString.from_indices(16, range(8))  # 8 ones, 8 zeros
        sig = FullSignature(
            TermPattern("unique", 0), ClausePattern("unique", 1), a=1
        )
        t.extend(x, sig)
        # force agreement with the toy's patterns by computing directly
        out_sizes = (t.Aij1[(0, 1)].bit_count(), t.Aij0[(0, 1)].bit_count())
        assert out_sizes == (8, 8)
        p_yes = out_sizes[0] / 16
        p_no = out_sizes[1] / 16
        assert p_yes == p_no  # ratio 1 by symmetry

    def test_mismatched_multiplexer_is_zero(self, rng):
        inst = toy_mono("no", 2)
        other = toy_mono("no", 3)
        t = grow_mono_transcript(inst, 10, rng)
        if any(consistency_status(t, i, j) == "inconsistent" for (i, j) in t.rho):
            pytest.skip("transcript landed inconsistent")
        out = mono_leaf_likelihood(other, t)
        assert out.p_yes == 0.0 and out.p_no == 0.0
        assert math.isnan(out.ratio)

    def test_inconsistent_leaf_unsupported(self):
        inst = toy_mono("no", 4)
        t = MonoTranscript(16)
        sig0 = FullSignature(TermPattern("unique", 0), ClausePattern("unique", 1), a=0)
        sig1 = FullSignature(TermPattern("unique", 0), ClausePattern("unique", 1), a=1)
        t.extend(BitString.from_indices(16, range(8)), sig0)
        t.extend(BitString.from_indices(16, range(1, 9)), sig1)
        with pytest.raises(ValueError, match="inconsistent"):
            mono_leaf_likelihood(inst, t)

    def test_closed_form_equals_enumeration(self, rng):
        checked = 0
        seed = 0
        while checked < 60:
            seed += 1
            inst = toy_mono("yes" if seed % 2 else "no", seed)
            t = grow_mono_transcript(inst, 12, rng)
            if any(
                consistency_status(t, i, j) == "inconsistent" for (i, j) in t.rho
            ):
                continue
            closed = mono_leaf_likelihood(inst, t)
            brute = mono_leaf_likelihood_bruteforce(inst, t)
            assert closed.p_yes == pytest.approx(brute.p_yes, rel=1e-12, abs=0)
            assert closed.p_no == pytest.approx(brute.p_no, rel=1e-12, abs=0)
            checked += 1

    def test_ratio_infinity_encoding(self):
        assert math.isinf(LeafLikelihood(0.0, 0.5).ratio)
        assert math.isnan(LeafLikelihood(0.0, 0.0).ratio)
        assert LeafLikelihood(0.25, 0.5).ratio == 2.0


class TestOneLevelLikelihood:
    def test_closed_form_equals_enumeration(self, rng):
        for seed in range(25):
            inst = OneLevelInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            t = SingleLevelTranscript(16)
            for _ in range(10):
                x = random_middle(inst, rng)
                t.extend(x, unate_signature(inst, x))
            if any(consistency_status(t, i) == "inconsistent" for i in t.rho):
                continue
            closed = onelevel_outcome_likelihood(inst, t)
            brute = onelevel_outcome_likelihood_bruteforce(inst, t)
            assert closed.p_yes == pytest.approx(brute.p_yes, rel=1e-12, abs=0)
            assert closed.p_no == pytest.approx(brute.p_no, rel=1e-12, abs=0)


class TestUnateLikelihood:
    def grow(self, inst, k, seed) -> UnateSignatureOracle:
        oracle = UnateSignatureOracle(inst)
        rng = RngStream(seed, "unate-grow")
        added, tries = 0, 0
        while added < k and tries < 100 * k:
            tries += 1
            x = BitString.random(inst.n, rng)
            try:
                oracle.query(x)
                added += 1
            except OutOfBandError:
                continue
        return oracle

    def test_empty_transcript(self):
        inst = UnateInstance.sample(16, "no", seed=0)
        oracle = UnateSignatureOracle(inst)
        out = unate_transcript_likelihood(inst, oracle.transcript, mode="exhaustive")
        assert out.p_yes == 1.0 and out.p_no == 1.0

    def test_single_breach_no_side(self):
        # one breached term and no safe terms: the no-side is exactly 1/n
        inst = UnateInstance.from_parts(
            16,
            "no",
            m_members=range(8),
            terms=[[0], [1, 2, 3, 4, 5], [6, 7]],
            dictators=[(8, False), (9, False), (10, False)],
        )
        oracle = UnateSignatureOracle(inst)
        oracle.query(BitString.from_indices(16, [0, 8]))
        oracle.query(BitString.from_indices(16, [0]))
        t = oracle.transcript
        assert t.I_B == {0} and t.I_S == set()
        out = unate_transcript_likelihood(inst, t, mode="exhaustive")
        assert out.p_no == pytest.approx(1.0 / 16, rel=1e-12)

    def test_closed_form_equals_enumeration(self, rng):
        for seed in range(40):
            inst = UnateInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            oracle = self.grow(inst, 10, seed)
            closed = unate_transcript_likelihood(
                inst, oracle.transcript, mode="exhaustive"
            )
            brute = unate_likelihood_bruteforce(inst, oracle.transcript)
            assert closed.p_yes == pytest.approx(brute.p_yes, rel=1e-12, abs=0)
            assert closed.p_no == pytest.approx(brute.p_no, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_bruteforce_reads_the_orientation_coordinates_of_the_instance(self, seed):
        # the twin must not share the transcript's bookkeeping: with one
        # coordinate dropped from t.Mbar the closed form moves, and brute
        # force, reading the instance, does not
        inst = UnateInstance.sample(16, "no", seed=seed)
        oracle, g = UnateSignatureOracle(inst), RngStream(seed, "mbar")
        while len(oracle.transcript) < 8:
            try:
                oracle.query(BitString.random(16, g))
            except OutOfBandError:
                continue
        t = oracle.transcript
        brute = unate_likelihood_bruteforce(inst, t)
        assert unate_transcript_likelihood(inst, t, mode="exhaustive") == brute
        t.Mbar &= t.Mbar - 1
        assert unate_likelihood_bruteforce(inst, t) == brute
        assert unate_transcript_likelihood(inst, t, mode="exhaustive") != brute

    def test_monte_carlo_matches_exhaustive(self):
        inst = UnateInstance.sample(16, "no", seed=5)
        oracle = self.grow(inst, 8, 5)
        exact = unate_transcript_likelihood(inst, oracle.transcript, mode="exhaustive")
        mc = unate_transcript_likelihood(
            inst,
            oracle.transcript,
            mode="monte_carlo",
            samples=20000,
            rng=RngStream(1, "mc"),
        )
        assert mc.p_yes_ci is not None
        assert abs(mc.p_yes - exact.p_yes) <= 3 * max(mc.p_yes_ci, 1e-9)

    def test_pattern_mismatch_is_zero(self):
        inst = UnateInstance.sample(16, "no", seed=7)
        other = UnateInstance.sample(16, "no", seed=8)
        oracle = self.grow(inst, 8, 7)
        out = unate_transcript_likelihood(other, oracle.transcript, mode="exhaustive")
        assert out.p_yes == 0.0 and out.p_no == 0.0

    def test_reprs_pinned(self):
        # blake2b of the reprs, bit for bit: exhaustive mode on 20 transcripts
        # with breached and safe terms, and Monte-Carlo mode with its
        # interval and the number of draws it took from the stream
        exhaustive = []
        for seed in range(20):
            inst = UnateInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            t = self.grow(inst, 4 + seed % 9, seed).transcript
            exhaustive.append(repr(unate_transcript_likelihood(inst, t, mode="exhaustive")))
        monte_carlo = []
        for seed in (3, 5, 8, 13):
            inst = UnateInstance.sample(16, "no" if seed % 2 else "yes", seed=seed)
            t = self.grow(inst, 8, seed).transcript
            rng = RngStream(seed, "pinned-mc")
            out = unate_transcript_likelihood(inst, t, mode="monte_carlo", samples=500, rng=rng)
            monte_carlo.append(f"{out!r} calls={rng._calls}")
        digests = [
            hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()
            for lines in (exhaustive, monte_carlo)
        ]
        assert digests == ["b393b74e87b458cd38d24d9bce47eae3", "ce2a8cd3defa17972df49a6e98932796"]


class TestPinnedLeafLikelihoods:
    """Pinned blake2b digest of the reprs (and error messages) of the four
    leaf likelihoods, closed form and brute force at two levels and one, at
    fixed seeds, on the transcript's own instance and a mismatched one."""

    def test_reprs_pinned(self):
        out = []
        for seed in range(12):
            world = "no" if seed % 2 else "yes"
            rng = RngStream(seed, "pinned-leaf")
            inst = toy_mono(world, seed)
            t = grow_mono_transcript(inst, 2 + seed % 5, rng)
            one = OneLevelInstance.sample(16, world, seed=seed)
            ts = SingleLevelTranscript(16)
            for _ in range(1 + seed % 4):
                x = random_middle(one, rng)
                ts.extend(x, unate_signature(one, x))
            for fn, args in (
                (mono_leaf_likelihood, (inst, t)),
                (mono_leaf_likelihood_bruteforce, (inst, t)),
                (mono_leaf_likelihood, (toy_mono(world, seed + 100), t)),
                (onelevel_outcome_likelihood, (one, ts)),
                (onelevel_outcome_likelihood_bruteforce, (one, ts)),
                (onelevel_outcome_likelihood,
                 (OneLevelInstance.sample(16, world, seed=seed + 100), ts)),
            ):
                try:
                    out.append(repr(fn(*args)))
                except ValueError as e:
                    out.append(f"ValueError: {e}")
        assert any("inconsistent" in line for line in out)
        assert sum("p_yes=0.0, p_no=0.0" not in line for line in out) > 30
        digest = hashlib.blake2b("\n".join(out).encode(), digest_size=16).hexdigest()
        assert digest == "14202720e0db27b822d4fd7ddd054c05"
