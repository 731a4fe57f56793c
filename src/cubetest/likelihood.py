"""Exact transcript likelihoods under the yes/no hidden-randomness models.

For a fixed multiplexer (terms and clauses), the probability that a random
dictator assignment reproduces a transcript factors over the tracked
cells; this module implements those closed forms and, next to each one, a
brute-force counterpart that enumerates the hidden randomness directly and
never touches the transcript's bitset bookkeeping.  The pairs are kept
deliberately independent: agreement between them is the correctness
argument for both.

Conventions: yes world = dictators only, no world = anti-dictators (two
level, single level) or fair-coin polarity (unateness).  All probabilities
are conditioned on the fixed term/clause draw, which must itself be
consistent with the recorded term/clause patterns (otherwise both sides
are zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .core import BitString, ResourceLimitError, RngStream, _set_bits
from .families import MonoInstance, OneLevelInstance, UnateInstance
from .sigoracle import ClausePattern, TermPattern
from .transcripts import (
    MonoTranscript,
    SingleLevelTranscript,
    UnateTranscript,
    _status,
    consistency_status,
)

__all__ = [
    "LeafLikelihood",
    "UnateLikelihood",
    "mono_leaf_likelihood",
    "mono_leaf_likelihood_bruteforce",
    "onelevel_outcome_likelihood",
    "onelevel_outcome_likelihood_bruteforce",
    "unate_transcript_likelihood",
    "unate_likelihood_bruteforce",
]

EXHAUSTIVE_CAP = 20  # most orientation coordinates a unateness likelihood enumerates


@dataclass(frozen=True)
class LeafLikelihood:
    """Reach probabilities of a transcript under the two hidden worlds.

    ``ratio`` is no/yes; infinity encodes a transcript reachable only in
    the no world, NaN one reachable in neither.
    """

    p_yes: float
    p_no: float

    @property
    def ratio(self) -> float:
        if self.p_yes > 0:
            return self.p_no / self.p_yes
        return math.inf if self.p_no > 0 else math.nan


@dataclass(frozen=True)
class UnateLikelihood:
    p_yes: float
    p_no: float
    p_yes_ci: Optional[float] = None  # 95% half-width when Monte-Carlo
    samples: Optional[int] = None


# ---------------------------------------------------------------------------
# Pattern consistency of the fixed multiplexer
# ---------------------------------------------------------------------------


def _mono_patterns_match(inst: MonoInstance, t: MonoTranscript) -> bool:
    for x, sig in t.queries:
        if sig.term != TermPattern.of(inst.satisfied_terms(x)):
            return False
        if sig.term.kind == "unique" and sig.clause != ClausePattern.of(
            inst.falsified_clauses(sig.term.first, x)
        ):
            return False
    return True


def _single_level_patterns_match(inst: UnateInstance, t: SingleLevelTranscript) -> bool:
    return all(
        sig.term == TermPattern.of(inst.satisfied_terms_base(x.xor(inst.orientation)))
        for x, sig in t.queries
    )


# ---------------------------------------------------------------------------
# Leaf likelihoods: one closed-form product, one enumeration
# ---------------------------------------------------------------------------


def _closed_product(
    inst, t, patterns_match, A1: dict, A0: dict, inconsistent: str
) -> LeafLikelihood:
    """Product over the tracked keys of ``t.rho`` (sorted, all consistent)
    of |A_rho| / n (yes, dictator) and |A_(1-rho)| / n (no, anti-dictator),
    the agreement bitsets being ``A1``/``A0``; ``inconsistent`` formats the
    error for the first key that is not consistent."""
    for key, values in t.rho.items():
        if _status(values.values()) == "inconsistent":
            raise ValueError(inconsistent.format(key))
    if not patterns_match(inst, t):
        return LeafLikelihood(0.0, 0.0)
    n = inst.n
    p_yes = 1.0
    p_no = 1.0
    for key, values in sorted(t.rho.items()):
        rho = next(iter(values.values()))
        size_rho = (A1[key] if rho == 1 else A0[key]).bit_count()
        size_other = (A0[key] if rho == 1 else A1[key]).bit_count()
        p_yes *= size_rho / n
        p_no *= size_other / n
    return LeafLikelihood(p_yes, p_no)


def _dictator_counts(inst, t, patterns_match) -> LeafLikelihood:
    """Enumeration over dictator choices: for each tracked key of ``t.rho``
    (sorted), the share of variables whose dictator (yes) or anti-dictator
    (no) reproduces every recorded value on the raw queries."""
    if not patterns_match(inst, t):
        return LeafLikelihood(0.0, 0.0)
    n = inst.n
    p_yes = 1.0
    p_no = 1.0
    for _, values in sorted(t.rho.items()):
        yes_count = 0
        no_count = 0
        for k in range(n):
            if all(t.queries[q][0][k] == v for q, v in values.items()):
                yes_count += 1
            if all(1 - t.queries[q][0][k] == v for q, v in values.items()):
                no_count += 1
        p_yes *= yes_count / n
        p_no *= no_count / n
    return LeafLikelihood(p_yes, p_no)


def mono_leaf_likelihood(inst: MonoInstance, t: MonoTranscript) -> LeafLikelihood:
    """Closed-form reach probabilities over the dictator draw, one factor
    per tracked cell.

    Requires every tracked cell to be consistent (the formula is only
    meaningful at such leaves).  Conditioned on the instance's terms and
    clauses matching the recorded patterns; if they do not, both
    probabilities are zero.
    """
    return _closed_product(
        inst, t, _mono_patterns_match, t.Aij1, t.Aij0,
        "cell {} is inconsistent; the closed form only covers consistent leaves",
    )


def mono_leaf_likelihood_bruteforce(
    inst: MonoInstance, t: MonoTranscript
) -> LeafLikelihood:
    """Enumeration over dictator choices, cell by cell."""
    return _dictator_counts(inst, t, _mono_patterns_match)


def onelevel_outcome_likelihood(
    inst: OneLevelInstance, t: SingleLevelTranscript
) -> LeafLikelihood:
    """Single-level analogue: one factor per tracked term."""
    return _closed_product(
        inst, t, _single_level_patterns_match, t.A1, t.A0,
        "term {} is inconsistent; the closed form only covers consistent outcomes",
    )


def onelevel_outcome_likelihood_bruteforce(
    inst: OneLevelInstance, t: SingleLevelTranscript
) -> LeafLikelihood:
    return _dictator_counts(inst, t, _single_level_patterns_match)


# ---------------------------------------------------------------------------
# Unateness transcript likelihood
# ---------------------------------------------------------------------------


def _unate_setup(inst: UnateInstance, t: UnateTranscript):
    """Shared preparation: representatives, observed values, reachability."""
    n = inst.n
    reps: dict[int, BitString] = {}
    alphas: dict[int, int] = {}
    for i in sorted(t.I):
        q = t.P[i][0]
        reps[i] = t.queries[q][0]
        alphas[i] = t.rho[i][q]
    for i in sorted(t.I_S):
        if consistency_status(t, i) == "inconsistent":
            raise ValueError(f"safe term {i} is inconsistent; transcript corrupt")
    for i in sorted(t.I_B):
        k = t.delta[i]
        seen = {t.queries[q][0][k] ^ v for q, v in t.rho[i].items()}
        if len(seen) != 1:
            raise ValueError(
                f"breached term {i} has no consistent polarity at its special "
                "variable; transcript unreachable in either world"
            )
    return n, reps, alphas


def unate_transcript_likelihood(
    inst: UnateInstance,
    t: UnateTranscript,
    mode: str = "auto",
    samples: int = 20000,
    rng: RngStream | None = None,
) -> UnateLikelihood:
    """Reach probabilities of a unateness transcript over (H, s).

    The no-side is the closed product ``(1/n)^{|I_B|} * prod |A_i cap
    Mbar| / n`` over safe terms.  The yes-side is an expectation over the
    orientation restricted to the coordinates that matter (special
    variables of breached terms plus the agreement sets of safe terms):
    exhaustive when at most ``EXHAUSTIVE_CAP`` coordinates are involved,
    Monte-Carlo with a reported confidence interval otherwise.
    """
    if not _single_level_patterns_match(inst, t):
        return UnateLikelihood(0.0, 0.0)
    n, reps, alphas = _unate_setup(inst, t)

    p_no = (1.0 / n) ** len(t.I_B)
    constraints: dict[int, tuple[int, ...]] = {}  # i in I_S -> candidate coords
    for i in sorted(t.I_S):
        free = t.common_coords(i) & t.Mbar
        p_no *= free.bit_count() / n
        constraints[i] = _set_bits(free)
    coords = sorted({t.delta[i] for i in t.I_B}.union(*constraints.values()))

    # An assignment of the orientation on ``coords`` is an int ``a`` with
    # ``coords[r]`` at bit ``L-1-r``, so counting ``a`` up runs through
    # ``product((0, 1), repeat=L)`` in order.  Term ``i`` agrees with its
    # representative at ``k`` when ``a`` holds ``reps[i][k] ^ alphas[i]``
    # there: ``want`` holds those bits over ``mask``, the term's coords.
    L = len(coords)
    place = {k: 1 << (L - 1 - r) for r, k in enumerate(coords)}

    def mask_want(i: int, ks) -> tuple[int, int]:
        mask = want = 0
        for k in ks:
            mask |= place[k]
            if reps[i][k] ^ alphas[i]:
                want |= place[k]
        return mask, want

    breached = [mask_want(i, (t.delta[i],)) for i in sorted(t.I_B)]
    safe = [mask_want(i, constraints[i]) for i in sorted(t.I_S)]
    breached_factor = 1.0  # one factor per breached term, multiplied in term order
    for _ in breached:
        breached_factor *= 2.0 / n
    half_n = n / 2.0

    def z_product(a: int) -> float:
        for mask, want in breached:
            if (a ^ want) & mask:
                return 0.0
        out = breached_factor
        for mask, want in safe:
            out *= (~(a ^ want) & mask).bit_count() / half_n
        return out

    if mode == "auto":
        mode = "exhaustive" if L <= EXHAUSTIVE_CAP else "monte_carlo"
    if mode == "exhaustive":
        if L > EXHAUSTIVE_CAP:
            raise ResourceLimitError(
                f"{L} relevant coordinates exceed the exhaustive cap {EXHAUSTIVE_CAP}"
            )
        total = 0.0
        for a in range(1 << L):
            total += z_product(a)
        p_yes = total / (1 << L)
        return UnateLikelihood(p_yes, p_no)
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    rng = rng or RngStream(0, "unate-likelihood")
    vals = np.empty(samples)
    for it in range(samples):
        a = 0
        for _ in range(L):  # one draw per coordinate, in ``coords`` order
            a = (a << 1) | rng.randint0(2)
        vals[it] = z_product(a)
    p_yes = float(vals.mean())
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
    return UnateLikelihood(p_yes, p_no, p_yes_ci=half, samples=samples)


def unate_likelihood_bruteforce(inst: UnateInstance, t: UnateTranscript) -> UnateLikelihood:
    """Full enumeration over the hidden pair (H, s).

    Iterates the orientation over all of ``Mbar``, read from the instance
    and not from the transcript's own bookkeeping, and, per term, every
    dictator candidate (variable and polarity), validating each directly
    against the recorded values and breach revelations.
    """
    if not _single_level_patterns_match(inst, t):
        return UnateLikelihood(0.0, 0.0)
    n = inst.n
    mbar = inst.Mbar_sorted.tolist()
    if len(mbar) > EXHAUSTIVE_CAP:
        raise ResourceLimitError(
            f"|Mbar|={len(mbar)} exceeds the brute-force cap {EXHAUSTIVE_CAP}"
        )
    obs = {
        i: [(t.queries[q][0], v) for q, v in sorted(t.rho[i].items())]
        for i in sorted(t.I)
    }

    def count_valid(i: int, bits: dict[int, int], anti_allowed: bool) -> int:
        target = t.delta.get(i)
        count = 0
        for k in mbar:
            if target is not None and k != target:
                continue
            for neg in (False, True) if anti_allowed else (False,):
                ok = all(
                    (x[k] ^ bits[k] ^ int(neg)) == v for x, v in obs[i]
                )
                if ok:
                    count += 1
        return count

    total_yes = 0.0
    total_no = 0.0
    for assignment in product((0, 1), repeat=len(mbar)):
        bits = dict(zip(mbar, assignment))
        py = 1.0
        pn = 1.0
        for i in sorted(t.I):
            py *= count_valid(i, bits, anti_allowed=False) / (n / 2.0)
            pn *= count_valid(i, bits, anti_allowed=True) / float(n)
        total_yes += py
        total_no += pn
    scale = 1 << len(mbar)
    return UnateLikelihood(total_yes / scale, total_no / scale)
