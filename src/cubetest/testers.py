"""Query-bounded testing algorithms and violation witnesses.

All testers are honest black-box algorithms over the standard value
oracle: they see bits only, never signatures or instance internals, and
they reject only after re-verifying a concrete witness against the oracle
(from cache, so verification costs no extra queries).  That makes them
one-sided by construction: no monotone function can ever be rejected.

The two staged attacks walk the structure of the hard families: shrink
the candidate set of the satisfied term by flipping 1-blocks, cover the
0-side in blocks to localize the hidden anti-dictator variable, then
split the hit block to exhibit a violating pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import BitString, RngStream
from .distance import sample_middle_layer

__all__ = [
    "BudgetExhaustedError",
    "CountingOracle",
    "TesterConfig",
    "MonoPairWitness",
    "Verdict",
    "edge_tester",
    "flipped_dnf_attack",
    "two_level_attack",
    "check_orientation",
    "find_good_orientation",
    "OrientationNotFoundError",
]


class BudgetExhaustedError(RuntimeError):
    """Internal signal: the query budget ran out mid-run."""


class CountingOracle:
    """Caching, counting wrapper around a value oracle.

    Fresh evaluations count against the budget; repeated queries (in
    particular witness re-verification) are served from cache for free.
    """

    def __init__(self, fn: Callable[[BitString], int], budget: Optional[int] = None):
        self._fn = fn
        self.budget = budget
        self.queries_used = 0
        self.cache: dict[BitString, int] = {}

    def __call__(self, x: BitString) -> int:
        hit = self.cache.get(x)
        if hit is not None:
            return hit
        if self.budget is not None and self.queries_used >= self.budget:
            raise BudgetExhaustedError()
        self.queries_used += 1
        v = int(self._fn(x))
        self.cache[x] = v
        return v


@dataclass
class TesterConfig:
    """Query budget and seed of one tester run."""

    __test__ = False  # not a pytest collection target

    q: int
    seed: int = 0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"query budget must be >= 1, got {self.q}")


@dataclass(frozen=True)
class MonoPairWitness:
    """A violating pair: ``lower`` strictly below ``upper`` with values 1/0."""

    lower: BitString
    upper: BitString

    def verify(self, oracle: Callable[[BitString], int]) -> bool:
        return (
            self.lower.precedes(self.upper)
            and oracle(self.lower) == 1
            and oracle(self.upper) == 0
        )

    def to_json(self) -> dict:
        return {
            "kind": "mono_pair",
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
        }


@dataclass
class Verdict:
    """Tester output; a reject always carries a verified witness."""

    decision: str  # "accept" | "reject"
    witness: Optional[object]
    queries_used: int
    stage_queries: dict[str, int] = field(default_factory=dict)
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "witness": self.witness.to_json() if self.witness else None,
            "queries_used": self.queries_used,
            "stage_queries": self.stage_queries,
            "seed": self.seed,
        }


def _accept(oracle: CountingOracle, stages: dict[str, int], seed: int) -> Verdict:
    return Verdict("accept", None, oracle.queries_used, stages, seed)


def _reject(
    oracle: CountingOracle,
    witness: MonoPairWitness,
    stages: dict[str, int],
    seed: int,
) -> Verdict:
    if not witness.verify(oracle):
        raise AssertionError("refusing to reject: witness failed re-verification")
    return Verdict("reject", witness, oracle.queries_used, stages, seed)


def _find_seed(oracle: CountingOracle, rng: RngStream, n: int) -> Optional[BitString]:
    """A random 1-point of the seed window, or None after 200 tries.

    Seed weights sit just above the band center: the multiplexer is
    balanced there (a unique satisfied term is likeliest), while
    sqrt(n)-sized down-flips still cannot leave the middle layers."""
    lo = math.ceil(n / 2)
    hi = lo + 2
    for _ in range(200):
        cand = sample_middle_layer(n, lo, hi, rng)
        if oracle(cand) == 1:
            return cand
    return None


def edge_tester(fn: Callable[[BitString], int], n: int, cfg: TesterConfig) -> Verdict:
    """The classical edge tester: random point, random direction, reject
    on a violating edge.  Runs ``q/2`` rounds (two queries per round)."""
    oracle = CountingOracle(fn, budget=cfg.q)
    rng = RngStream(cfg.seed, "edge-tester")
    stages = {"rounds": 0}
    try:
        for _ in range(cfg.q // 2):
            stages["rounds"] += 1
            x = BitString.random(n, rng)
            i = rng.randint0(n)
            y = x.flip_one(i)
            lower, upper = (x, y) if x[i] == 0 else (y, x)
            if oracle(lower) == 1 and oracle(upper) == 0:
                return _reject(oracle, MonoPairWitness(lower, upper), stages, cfg.seed)
    except BudgetExhaustedError:
        pass
    return _accept(oracle, stages, cfg.seed)


def _shrink_pass(
    oracle: CountingOracle,
    base: BitString,
    pool: list[int],
    rounds: int,
    piece: int,
    keep_value: int,
    rng: RngStream,
) -> list[int]:
    """Flip random ``piece``-sized subsets of ``pool`` on top of ``base``;
    whenever the value stays ``keep_value`` the flipped coordinates are
    declared safe, removed from the pool, and collected."""
    removed: list[int] = []
    current = list(pool)
    for _ in range(rounds):
        if len(current) < piece:
            break
        chosen = rng.sample_without_replacement(current, piece)
        if oracle(base.flip(chosen)) == keep_value:
            chosen_set = set(chosen)
            current = [c for c in current if c not in chosen_set]
            removed.extend(sorted(chosen))
    return removed


def flipped_dnf_attack(fn: Callable[[BitString], int], n: int, cfg: TesterConfig) -> Verdict:
    """Three-stage violation search against flipped-DNF style functions.

    Stage 1 shrinks the 1-side: random sqrt(n)-subsets of the seed's
    1-coordinates whose flip keeps the value 1 are safe to flip later.
    Stage 2 covers the 0-side in blocks, flipped together with the safe
    set to stay in the middle layers; a block answering 0 localizes the
    hidden negated variable.  Stage 3 splits that block into sqrt(n)
    pieces, looking for a point below the hit that still evaluates to 1.
    """
    oracle = CountingOracle(fn, budget=cfg.q)
    rng = RngStream(cfg.seed, "flipped-dnf-attack")
    m = max(1, math.isqrt(n))
    stages: dict[str, int] = {}
    try:
        x = _find_seed(oracle, rng, n)
        stages["seed"] = oracle.queries_used
        if x is None:
            return _accept(oracle, stages, cfg.seed)

        a1 = sorted(x.one_indices())
        rounds = math.ceil(n**0.25)
        piece1 = m
        safe_ones = _shrink_pass(oracle, x, a1, rounds, piece1, 1, rng)
        stages["stage1"] = oracle.queries_used
        if not safe_ones:
            return _accept(oracle, stages, cfg.seed)

        a0 = sorted(x.zero_indices())
        rng.shuffle(a0)
        block = len(safe_ones)
        for lo in range(0, len(a0), block):
            part = a0[lo : lo + block]
            y = x.flip(part + safe_ones)
            if oracle(y) != 0:
                continue
            pieces = [part[p : p + m] for p in range(0, len(part), m)]
            for piece in pieces:
                z = y.flip(piece)
                if oracle(z) == 1 and z.precedes(y):
                    stages["stage3"] = oracle.queries_used
                    return _reject(
                        oracle, MonoPairWitness(z, y), stages, cfg.seed
                    )
        stages["stage2"] = oracle.queries_used
    except BudgetExhaustedError:
        pass
    return _accept(oracle, stages, cfg.seed)


def two_level_attack(
    fn: Callable[[BitString], int], n: int, cfg: TesterConfig
) -> Verdict:
    """Four-stage violation search against the two-level family.

    Stage 1 shrinks the 1-side as in :func:`flipped_dnf_attack`.  Each outer
    round then: picks a 0-block matched in size to the safe 1-set (so the
    flip stays in the middle layers) hoping to land on value 0 inside a
    single cell (stage 2); shrinks the remaining 0-side to find
    coordinates that can be flipped up without leaving the cell's clause
    (stage 3); and covers the 0-block in pieces flipped together with
    those safe coordinates (stage 4).  A piece answering 1 is accepted
    only on a majority over independently rebuilt safe sets (new clause
    hits re-randomize; the hidden negated variable persists), then split
    to exhibit the violating pair.
    """
    oracle = CountingOracle(fn, budget=cfg.q)
    rng = RngStream(cfg.seed, "two-level-attack")
    m = max(1, math.isqrt(n))
    lo_band = n / 2 - math.sqrt(n)
    hi_band = n / 2 + math.sqrt(n)
    stages: dict[str, int] = {}
    try:
        x = _find_seed(oracle, rng, n)
        stages["seed"] = oracle.queries_used
        if x is None:
            return _accept(oracle, stages, cfg.seed)

        # Stage sizes are fixed functions of n, so the rows of an experiment
        # depend on its config alone.  The repetition counts keep the
        # sketch's exponents but carry calibrated multipliers -- at
        # desk-scale n the survival probability of a sqrt(n)-sized flip is
        # a small constant, so the bare counts collect far too few safe
        # coordinates.  Pieces smaller than sqrt(n) trade queries for
        # per-flip survival.
        a1 = sorted(x.one_indices())
        rounds1 = math.ceil(8 * n ** (1.0 / 3.0))
        piece1 = max(2, m // 2)
        c1 = _shrink_pass(oracle, x, a1, rounds1, piece1, 1, rng)
        stages["stage1"] = oracle.queries_used
        if not c1:
            return _accept(oracle, stages, cfg.seed)

        outer = 4 * math.ceil(n ** (1.0 / 6.0))
        c0_target = math.ceil(n ** (5.0 / 6.0))
        rounds3 = math.ceil(n ** (2.0 / 3.0))
        piece3 = max(2, m // 3)
        parts = 2 * math.ceil(n ** (1.0 / 6.0)) + 2
        final_piece = max(2, m // 4)
        majority = 3
        # drop y slightly below the band center so the later up-flips
        # (stage 3 shrink passes, final pieces) stay inside the band
        y_target = n // 2 - max(1, m // 3)

        for _ in range(outer):
            a0 = sorted(x.zero_indices())
            # |y| = |x| - |C1| + |C0|; aim for y_target within band limits
            wanted = len(c1) + y_target - x.weight
            hi_allowed = len(c1) + math.floor(hi_band - x.weight)
            lo_needed = max(1, len(c1) - math.floor(x.weight - lo_band))
            size = min(c0_target, len(a0), hi_allowed, max(wanted, lo_needed))
            if size < lo_needed:
                continue
            c0 = rng.sample_without_replacement(a0, size)
            y = x.flip(c0 + c1)
            if oracle(y) != 0:
                continue

            pool = sorted(set(a0) - set(c0))
            c = _shrink_pass(oracle, y, pool, rounds3, piece3, 0, rng)
            block = max(1, math.ceil(len(c0) / parts))
            c0_shuffled = list(c0)
            rng.shuffle(c0_shuffled)
            for lo in range(0, len(c0_shuffled), block):
                part = c0_shuffled[lo : lo + block]
                w = y.flip(part + c)
                if oracle(w) != 1:
                    continue
                votes = 1
                for _rep in range(majority - 1):
                    c_rep = _shrink_pass(oracle, y, pool, rounds3, piece3, 0, rng)
                    if oracle(y.flip(part + c_rep)) == 1:
                        votes += 1
                if 2 * votes <= majority:
                    continue
                for p in range(0, len(part), final_piece):
                    piece = part[p : p + final_piece]
                    z = w.flip(piece)
                    if oracle(z) == 0 and w.precedes(z):
                        stages["stage4"] = oracle.queries_used
                        return _reject(
                            oracle, MonoPairWitness(w, z), stages, cfg.seed
                        )
        stages["outer"] = oracle.queries_used
    except BudgetExhaustedError:
        pass
    return _accept(oracle, stages, cfg.seed)


def check_orientation(points: Iterable[BitString], r: BitString, n: int) -> bool:
    """True iff every pair comparable after XOR with ``r`` is within
    Hamming distance ``2 log2 n``."""
    pts = list(points)
    # not math.log2: the quotient differs from it in the last bit at some n
    limit = 2.0 * math.log(n) / math.log(2.0)
    for idx, a in enumerate(pts):
        ar = a.xor(r)
        for b in pts[idx + 1 :]:
            br = b.xor(r)
            if ar.precedes(br) or br.precedes(ar):
                if (a.bits ^ b.bits).bit_count() > limit:
                    return False
    return True


class OrientationNotFoundError(RuntimeError):
    def __init__(self, tries: int):
        super().__init__(f"no good orientation within {tries} tries")
        self.tries = tries


def find_good_orientation(
    points: Sequence[BitString], rng: RngStream, max_tries: int = 200
) -> tuple[BitString, int]:
    """Rejection-sample an orientation passing :func:`check_orientation`.

    Returns ``(r, tries)``; raises :class:`OrientationNotFoundError` when
    the budget runs out.
    """
    if not points:
        raise ValueError("need at least one point")
    n = points[0].n
    for t in range(1, max_tries + 1):
        r = BitString.random(n, rng)
        if check_orientation(points, r, n):
            return r, t
    raise OrientationNotFoundError(max_tries)
