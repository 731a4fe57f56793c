from __future__ import annotations

import math

import pytest

from cubetest.core import BitString, RngStream
from cubetest.families import FlippedDnfInstance, QuadrantInstance, MonoInstance
from cubetest.testers import (
    CountingOracle,
    OrientationNotFoundError,
    TesterConfig,
    flipped_dnf_attack,
    check_orientation,
    edge_tester,
    find_good_orientation,
    two_level_attack,
)


class TestCountingOracle:
    def test_counts_fresh_queries_only(self):
        calls = []
        oracle = CountingOracle(lambda x: calls.append(x) or 0, budget=10)
        x = BitString.zeros(4)
        oracle(x)
        oracle(x)
        assert oracle.queries_used == 1 and len(calls) == 1

    def test_budget(self):
        from cubetest.testers import BudgetExhaustedError

        oracle = CountingOracle(lambda x: 0, budget=2)
        oracle(BitString(4, 1))
        oracle(BitString(4, 2))
        with pytest.raises(BudgetExhaustedError):
            oracle(BitString(4, 3))


class TestEdgeTester:
    def test_accepts_constant_zero(self):
        v = edge_tester(lambda x: 0, 8, TesterConfig(q=100, seed=1))
        assert v.decision == "accept" and v.witness is None

    def test_rejects_antidictator_whp(self):
        # violating-edge density gives per-round hit chance 1/16 at n=8
        rejects = sum(
            edge_tester(lambda x: 1 - x[0], 8, TesterConfig(q=400, seed=s)).decision
            == "reject"
            for s in range(100)
        )
        assert rejects >= 99

    def test_never_rejects_monotone_instances(self):
        for s in range(30):
            inst = MonoInstance.sample(16, "yes", seed=s)
            v = edge_tester(inst.value, 16, TesterConfig(q=200, seed=s))
            assert v.decision == "accept"

    def test_budget_respected(self):
        v = edge_tester(lambda x: 1 - x[0], 8, TesterConfig(q=7, seed=3))
        assert v.queries_used <= 7


class TestAttacks:
    @pytest.mark.parametrize(
        "attack,family,budget",
        [(flipped_dnf_attack, FlippedDnfInstance, 1500), (two_level_attack, MonoInstance, 4000)],
    )
    def test_one_sided_on_yes_world(self, attack, family, budget):
        for s in range(40):
            inst = family.sample(100, "yes", seed=s)
            v = attack(inst.value, 100, TesterConfig(q=budget, seed=s))
            assert v.decision == "accept"
            assert v.queries_used <= budget

    @pytest.mark.parametrize(
        "attack,family,budget",
        [(flipped_dnf_attack, FlippedDnfInstance, 1500), (two_level_attack, MonoInstance, 4000)],
    )
    def test_no_world_rejections_carry_witnesses(self, attack, family, budget):
        rejects = 0
        for s in range(120):
            inst = family.sample(100, "no", seed=1000 + s)
            v = attack(inst.value, 100, TesterConfig(q=budget, seed=s))
            if v.decision == "reject":
                rejects += 1
                w = v.witness
                assert w.lower.precedes(w.upper)
                assert inst.value(w.lower) == 1
                assert inst.value(w.upper) == 0
        assert rejects > 0

    def test_deterministic_given_seed(self):
        inst = MonoInstance.sample(100, "no", seed=77)
        a = two_level_attack(inst.value, 100, TesterConfig(q=4000, seed=5))
        b = two_level_attack(inst.value, 100, TesterConfig(q=4000, seed=5))
        assert a.to_json() == b.to_json()
        inst2 = FlippedDnfInstance.sample(100, "no", seed=77)
        a2 = flipped_dnf_attack(inst2.value, 100, TesterConfig(q=1500, seed=5))
        b2 = flipped_dnf_attack(inst2.value, 100, TesterConfig(q=1500, seed=5))
        assert a2.to_json() == b2.to_json()

    def test_planted_single_term_found(self):
        # one planted term with its negated variable inside: rejections occur
        rejects = 0
        for s in range(150):
            g = RngStream(s, "plant")
            vars1 = g.sample_without_replacement(range(100), 10)
            inst = FlippedDnfInstance.from_parts(100, "no", [vars1], [vars1[0]])
            v = flipped_dnf_attack(inst.value, 100, TesterConfig(q=1500, seed=s))
            if v.decision == "reject":
                rejects += 1
                assert inst.value(v.witness.lower) == 1
                assert inst.value(v.witness.upper) == 0
        assert rejects > 0

    # (world, seed): verdict, queries, stage queries and witness (lower, upper
    # bits in hex) of the two-level attack at n=100, recorded before the
    # per-query scan moved from packed words to hex-digit tables
    _PINNED = {
        ("yes", 0): ("accept", 135, {"seed": 1, "stage1": 26, "outer": 135}, None),
        ("yes", 1): ("accept", 1005, {"seed": 1, "stage1": 39, "outer": 1005}, None),
        ("yes", 2): ("accept", 1500, {"seed": 2, "stage1": 40, "outer": 1500}, None),
        ("yes", 3): ("accept", 545, {"seed": 1, "stage1": 39, "outer": 545}, None),
        ("no", 0): ("accept", 2120, {"seed": 1, "stage1": 39, "outer": 2120}, None),
        ("no", 1): ("accept", 1976, {"seed": 1, "stage1": 39, "outer": 1976}, None),
        ("no", 2): ("accept", 2137, {"seed": 2, "stage1": 40, "outer": 2137}, None),
        ("no", 3): ("accept", 440, {"seed": 1, "stage1": 39, "outer": 440}, None),
        ("no", 48): ("reject", 522, {"seed": 2, "stage1": 40, "stage4": 522},
                     ("323692473bca616b724ed3252", "723692473bca616b724ed3256")),
    }

    @pytest.mark.parametrize("world,seed", list(_PINNED))
    def test_two_level_attack_pinned_at_n100(self, world, seed):
        inst = MonoInstance.sample(100, world, seed)
        v = two_level_attack(inst.value, 100, TesterConfig(q=4000, seed=seed))
        w = v.witness
        got = (v.decision, v.queries_used, v.stage_queries,
               None if w is None else (f"{w.lower.bits:x}", f"{w.upper.bits:x}"))
        assert got == self._PINNED[world, seed]

    def test_budget_exhaustion_accepts(self):
        inst = MonoInstance.sample(100, "no", seed=9)
        v = two_level_attack(inst.value, 100, TesterConfig(q=20, seed=2))
        assert v.decision == "accept"
        assert v.queries_used <= 20


class TestOrientation:
    def test_singleton_always_passes(self):
        q = [BitString.random(16, RngStream(0, "o"))]
        assert check_orientation(q, BitString.zeros(16), 16)
        r, tries = find_good_orientation(q, RngStream(1, "o"))
        assert tries == 1

    def test_complement_pair(self):
        # 0^16 and 1^16 are comparable only under the two extreme
        # orientations, where their distance 16 > 2 log 16 fails the check
        q = [BitString.zeros(16), BitString.ones(16)]
        assert not check_orientation(q, BitString.zeros(16), 16)
        assert not check_orientation(q, BitString.ones(16), 16)
        rng = RngStream(3, "o")
        for _ in range(50):
            r = BitString.random(16, rng)
            if r.weight in (0, 16):
                continue
            assert check_orientation(q, r, 16)

    def test_random_pass_fraction_union_bound(self):
        # fraction of random orientations failing is below the pair count
        # divided by n^2
        n, size = 64, 10
        g = RngStream(9, "o")
        pts = [BitString.random(n, g) for _ in range(size)]
        trials = 400
        fails = sum(
            not check_orientation(pts, BitString.random(n, g), n)
            for _ in range(trials)
        )
        pairs = size * (size - 1)  # ordered pairs
        bound = pairs / (n * n)
        # allow 3-sigma slack on the empirical estimate
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert fails / trials <= bound + 3 * sigma + 1e-9

    def test_found_orientation_always_passes(self):
        g = RngStream(11, "o")
        for trial in range(30):
            pts = [BitString.random(64, g) for _ in range(6)]
            r, _ = find_good_orientation(pts, g, max_tries=200)
            assert check_orientation(pts, r, 64)

    def test_exhausted_budget_reports_tries(self):
        q = [BitString.zeros(32), BitString.ones(32)]
        with pytest.raises(OrientationNotFoundError) as err:
            find_good_orientation(q, RngStream(0, "o"), max_tries=0)
        assert err.value.tries == 0
        with pytest.raises(ValueError):
            find_good_orientation([], RngStream(0, "o"))
