"""Stronger oracles that answer queries with signatures instead of bits.

For the two-level family the response is a *full signature*: which terms
the query satisfies (truncated to the smallest two indices), which clauses
of the unique satisfied term it falsifies (again smallest two), and the
dictator values of the touched cells.  For the single-level families the
response is the analogous triple.  The function value is always
reconstructible from the signature (`value_from_*`), so these oracles are
at least as strong as the standard one; they never answer queries outside
the middle weight band.

Pattern entries follow the truncated encoding: a ``multi`` pattern fixes
the entries up to its second index and leaves the rest unknown
(``entry()`` returns ``None`` for them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import BitString
from .families import MonoInstance, UnateInstance

__all__ = [
    "OutOfBandError",
    "TermPattern",
    "ClausePattern",
    "FullSignature",
    "UnateSignature",
    "mono_full_signature",
    "unate_signature",
    "onelevel_signature",
    "value_from_mono_signature",
    "value_from_unate_signature",
]


class OutOfBandError(ValueError):
    """Query outside the middle layers sent to a signature oracle.

    Signature oracles only answer in-band queries; use the standard value
    oracle for truncated points.
    """


@dataclass(frozen=True)
class TermPattern:
    """Which terms a query satisfies: none, a unique one, or two or more.

    ``multi`` records the smallest two satisfying indices; entries beyond
    the second index are unknown (``entry`` returns None for them).
    """

    kind: str  # "none" | "unique" | "multi"
    first: Optional[int] = None
    second: Optional[int] = None

    def __post_init__(self):
        if self.kind == "none":
            if self.first is not None or self.second is not None:
                raise ValueError("'none' pattern carries no indices")
        elif self.kind == "unique":
            if self.first is None or self.second is not None:
                raise ValueError("'unique' pattern carries exactly one index")
        elif self.kind == "multi":
            if self.first is None or self.second is None or self.first >= self.second:
                raise ValueError("'multi' pattern needs two increasing indices")
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")

    def members(self) -> tuple[int, ...]:
        """Indices with a known 1-entry."""
        if self.kind == "none":
            return ()
        if self.kind == "unique":
            return (self.first,)
        return (self.first, self.second)

    def entry(self, k: int) -> Optional[int]:
        """0/1 entry at index ``k``; None where the pattern is unknown."""
        if self.kind == "none":
            return 0
        if self.kind == "unique":
            return 1 if k == self.first else 0
        if k == self.first or k == self.second:
            return 1
        return 0 if k < self.second else None


@dataclass(frozen=True)
class ClausePattern:
    """Which clauses the query falsifies: none, a unique one, or several.

    Dual encoding to :class:`TermPattern`: the recorded indices carry
    0-entries, everything else up to the second index is 1.
    """

    kind: str  # "all_one" | "unique" | "multi"
    first: Optional[int] = None
    second: Optional[int] = None

    def __post_init__(self):
        if self.kind == "all_one":
            if self.first is not None or self.second is not None:
                raise ValueError("'all_one' pattern carries no indices")
        elif self.kind == "unique":
            if self.first is None or self.second is not None:
                raise ValueError("'unique' pattern carries exactly one index")
        elif self.kind == "multi":
            if self.first is None or self.second is None or self.first >= self.second:
                raise ValueError("'multi' pattern needs two increasing indices")
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")

    def zero_members(self) -> tuple[int, ...]:
        if self.kind == "all_one":
            return ()
        if self.kind == "unique":
            return (self.first,)
        return (self.first, self.second)

    def entry(self, k: int) -> Optional[int]:
        if self.kind == "all_one":
            return 1
        if self.kind == "unique":
            return 0 if k == self.first else 1
        if k == self.first or k == self.second:
            return 0
        return 1 if k < self.second else None


@dataclass(frozen=True)
class FullSignature:
    """Two-level oracle response ``(terms, clauses, a, b)``.

    Validity rules: the clause pattern exists iff the term pattern is
    unique; ``a`` exists iff the clause pattern has a first 0-entry and
    ``b`` iff it has a second.
    """

    term: TermPattern
    clause: Optional[ClausePattern]
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        if self.term.kind == "unique":
            if self.clause is None:
                raise ValueError("unique term requires a clause pattern")
            want_a = self.clause.kind in ("unique", "multi")
            want_b = self.clause.kind == "multi"
        else:
            if self.clause is not None:
                raise ValueError("clause pattern only exists for a unique term")
            want_a = want_b = False
        if want_a != (self.a in (0, 1)) or (not want_a and self.a is not None):
            raise ValueError(f"bad 'a' field for {self.term.kind}/{self.clause}")
        if want_b != (self.b in (0, 1)) or (not want_b and self.b is not None):
            raise ValueError(f"bad 'b' field for {self.term.kind}/{self.clause}")

    def to_json(self) -> dict:
        obj: dict = {"term": [self.term.kind, self.term.first, self.term.second]}
        if self.clause is not None:
            obj["clause"] = [self.clause.kind, self.clause.first, self.clause.second]
        if self.a is not None:
            obj["a"] = self.a
        if self.b is not None:
            obj["b"] = self.b
        return obj


@dataclass(frozen=True)
class UnateSignature:
    """Single-level oracle response ``(terms, a, b)``.

    ``a``/``b`` are the dictator values of the first/second satisfied
    terms, so unlike :class:`FullSignature` they are present for ``multi``
    patterns too.
    """

    term: TermPattern
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        want_a = self.term.kind in ("unique", "multi")
        want_b = self.term.kind == "multi"
        if want_a != (self.a in (0, 1)) or (not want_a and self.a is not None):
            raise ValueError(f"bad 'a' field for term pattern {self.term.kind}")
        if want_b != (self.b in (0, 1)) or (not want_b and self.b is not None):
            raise ValueError(f"bad 'b' field for term pattern {self.term.kind}")

    def value_for(self, i: int) -> int:
        """Observed dictator value of term ``i`` (which must be a member)."""
        if i == self.term.first:
            return self.a
        if i == self.term.second:
            return self.b
        raise KeyError(f"term {i} is not a member of this signature")

    def to_json(self) -> dict:
        obj: dict = {"term": [self.term.kind, self.term.first, self.term.second]}
        if self.a is not None:
            obj["a"] = self.a
        if self.b is not None:
            obj["b"] = self.b
        return obj


def _term_pattern(hits: list[int]) -> TermPattern:
    if not hits:
        return TermPattern("none")
    if len(hits) == 1:
        return TermPattern("unique", hits[0])
    return TermPattern("multi", hits[0], hits[1])


def mono_full_signature(inst: MonoInstance, x: BitString) -> FullSignature:
    """Full signature of an in-band query against a two-level instance."""
    if inst.weight_class(x) != "middle":
        raise OutOfBandError(
            f"|x|={x.weight} outside the middle layers "
            f"[{inst.band_low:.2f}, {inst.band_high:.2f}]; "
            "the signature oracle only answers in-band queries"
        )
    tp = _term_pattern(inst.satisfied_terms(x, limit=2))
    if tp.kind != "unique":
        return FullSignature(tp, None)
    i = tp.first
    fals = inst.falsified_clauses(i, x, limit=2)
    if not fals:
        return FullSignature(tp, ClausePattern("all_one"))
    if len(fals) == 1:
        a = inst.dictator(i, fals[0]).value_at(x)
        return FullSignature(tp, ClausePattern("unique", fals[0]), a)
    a = inst.dictator(i, fals[0]).value_at(x)
    b = inst.dictator(i, fals[1]).value_at(x)
    return FullSignature(tp, ClausePattern("multi", fals[0], fals[1]), a, b)


def value_from_mono_signature(weight_class: str, sig: FullSignature | None) -> int:
    """Reconstruct the function value from a full signature.

    Out-of-band classes are decided by the weight alone; the five in-band
    cases are: no term -> 0, several terms -> 1, unique term with no
    falsified clause -> 1, with several -> 0, with a unique one -> the
    recorded dictator value.
    """
    if weight_class == "low":
        return 0
    if weight_class == "high":
        return 1
    if weight_class != "middle":
        raise ValueError(f"unknown weight class {weight_class!r}")
    if not isinstance(sig, FullSignature):
        raise ValueError("middle-band reconstruction needs a FullSignature")
    if sig.term.kind == "none":
        return 0
    if sig.term.kind == "multi":
        return 1
    if sig.clause.kind == "all_one":
        return 1
    if sig.clause.kind == "multi":
        return 0
    return sig.a


def unate_signature(inst: UnateInstance, x: BitString) -> UnateSignature:
    """Signature of a query against a single-level instance.

    The orientation is XORed in first; the query must land in the middle
    band of the weight inside ``M`` after that XOR.
    """
    y = x.xor(inst.orientation)
    if inst.band_class_base(y) != "middle":
        raise OutOfBandError(
            f"|y_M|={inst.m_weight(y)} outside the middle layers "
            f"[{inst.band_low:.2f}, {inst.band_high:.2f}] after orientation; "
            "the signature oracle only answers in-band queries"
        )
    tp = _term_pattern(inst.satisfied_terms_base(y, limit=2))
    if tp.kind == "none":
        return UnateSignature(tp)
    if tp.kind == "unique":
        return UnateSignature(tp, inst.dictator(tp.first).value_at(y))
    return UnateSignature(
        tp,
        inst.dictator(tp.first).value_at(y),
        inst.dictator(tp.second).value_at(y),
    )


# a one-level instance is the single-level core with M = [n] and zero
# orientation, so y = x and |y_M| = |x| above
onelevel_signature = unate_signature


def value_from_unate_signature(band_class: str, sig: UnateSignature | None) -> int:
    """Reconstruct the value: no term -> 0, unique -> a, several -> 1."""
    if band_class == "low":
        return 0
    if band_class == "high":
        return 1
    if band_class != "middle":
        raise ValueError(f"unknown band class {band_class!r}")
    if not isinstance(sig, UnateSignature):
        raise ValueError("middle-band reconstruction needs a UnateSignature")
    if sig.term.kind == "none":
        return 0
    if sig.term.kind == "unique":
        return sig.a
    return 1

