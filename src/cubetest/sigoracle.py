"""Stronger oracles that answer queries with signatures instead of bits.

For the two-level family the response is a *full signature*: which terms
the query satisfies (truncated to the smallest two indices), which clauses
of the unique satisfied term it falsifies (again smallest two), and the
dictator values of the touched cells.  For the single-level families the
response is the analogous triple.  The function value is always
reconstructible from the signature (`value_from_*`), so these oracles are
at least as strong as the standard one; they never answer queries outside
the middle weight band.

Term and clause patterns are one truncated encoding (``_Pattern``, built
from scan hits by ``of``) with dual marks: a ``multi`` pattern fixes the
entries up to its second index and leaves the rest unknown (``entry()``
returns ``None`` for them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Sequence

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
    "value_from_mono_signature",
    "value_from_unate_signature",
]


class OutOfBandError(ValueError):
    """Query outside the middle layers sent to a signature oracle.

    Signature oracles only answer in-band queries; use the standard value
    oracle for truncated points.
    """


@dataclass(frozen=True)
class _Pattern:
    """Truncated 0/1 pattern over indices: empty, a unique marked index, or
    several (``multi``, recording the smallest two).  Marked entries carry
    ``_MARK``, the others its complement, and those past the second index
    of a ``multi`` pattern are unknown."""

    kind: str  # _EMPTY | "unique" | "multi"
    first: Optional[int] = None
    second: Optional[int] = None

    _EMPTY: ClassVar[str]
    _MARK: ClassVar[int]

    def __post_init__(self):
        if self.kind == self._EMPTY:
            if self.first is not None or self.second is not None:
                raise ValueError(f"{self.kind!r} pattern carries no indices")
        elif self.kind == "unique":
            if self.first is None or self.second is not None:
                raise ValueError("'unique' pattern carries exactly one index")
        elif self.kind == "multi":
            if self.first is None or self.second is None or self.first >= self.second:
                raise ValueError("'multi' pattern needs two increasing indices")
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")

    @classmethod
    def of(cls, hits: Sequence[int]):
        """Pattern whose marked indices are the ascending ``hits`` (only
        the first two are kept)."""
        if not hits:
            return cls(cls._EMPTY)
        if len(hits) == 1:
            return cls("unique", hits[0])
        return cls("multi", hits[0], hits[1])

    def members(self) -> tuple[int, ...]:
        """The recorded (marked) indices."""
        if self.kind == self._EMPTY:
            return ()
        if self.kind == "unique":
            return (self.first,)
        return (self.first, self.second)

    def entry(self, k: int) -> Optional[int]:
        """0/1 entry at index ``k``; None where the pattern is unknown."""
        if self.kind == "multi":
            if k == self.first or k == self.second:
                return self._MARK
            return 1 - self._MARK if k < self.second else None
        if self.kind == "unique" and k == self.first:
            return self._MARK
        return 1 - self._MARK

    def unmarked(self, keys: Iterable[int]) -> list[int]:
        """The ``keys`` whose entry is known to be unmarked, in the order
        given: all but the marked ones, and for a ``multi`` pattern only
        those below its second index (``entry`` for each, without the
        calls)."""
        if self.kind == "multi":
            return [k for k in keys if k < self.second and k != self.first]
        return [k for k in keys if k != self.first]

    def to_json(self) -> list:
        return [self.kind, self.first, self.second]


class TermPattern(_Pattern):
    """Which terms a query satisfies: none, a unique one, or two or more
    (the marked entries are 1)."""

    _EMPTY = "none"
    _MARK = 1


class ClausePattern(_Pattern):
    """Which clauses the query falsifies: none (``all_one``), a unique one,
    or several; the dual of :class:`TermPattern` (the marked entries are 0)."""

    _EMPTY = "all_one"
    _MARK = 0

    zero_members = _Pattern.members


def _bad_value_field(a: Optional[int], b: Optional[int], pattern) -> Optional[str]:
    """``a``/``b`` must be the 0/1 dictator values of the first/second
    recorded member of ``pattern``, and None where it has none (or there is
    no pattern); returns the name of the first field that is not."""
    want_a = pattern is not None and pattern.first is not None
    want_b = pattern is not None and pattern.second is not None
    if want_a != (a in (0, 1)) or (not want_a and a is not None):
        return "a"
    if want_b != (b in (0, 1)) or (not want_b and b is not None):
        return "b"
    return None


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
        elif self.clause is not None:
            raise ValueError("clause pattern only exists for a unique term")
        if bad := _bad_value_field(self.a, self.b, self.clause):
            raise ValueError(f"bad {bad!r} field for {self.term.kind}/{self.clause}")

    def value_for(self, j: int) -> int:
        """Observed dictator value of cell ``(term.first, j)`` (clause ``j``
        must be a recorded falsified clause)."""
        if self.clause is not None:
            if j == self.clause.first:
                return self.a
            if j == self.clause.second:
                return self.b
        raise KeyError(f"clause {j} is not a member of this signature")

    def to_json(self) -> dict:
        obj: dict = {"term": self.term.to_json()}
        if self.clause is not None:
            obj["clause"] = self.clause.to_json()
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
        if bad := _bad_value_field(self.a, self.b, self.term):
            raise ValueError(f"bad {bad!r} field for term pattern {self.term.kind}")

    def value_for(self, i: int) -> int:
        """Observed dictator value of term ``i`` (which must be a member)."""
        if i == self.term.first:
            return self.a
        if i == self.term.second:
            return self.b
        raise KeyError(f"term {i} is not a member of this signature")

    def to_json(self) -> dict:
        obj: dict = {"term": self.term.to_json()}
        if self.a is not None:
            obj["a"] = self.a
        if self.b is not None:
            obj["b"] = self.b
        return obj


def mono_full_signature(inst: MonoInstance, x: BitString) -> FullSignature:
    """Full signature of an in-band query against a two-level instance."""
    if inst.weight_class(x) != "middle":
        raise OutOfBandError(
            f"|x|={x.weight} outside the middle layers "
            f"[{inst.band_low:.2f}, {inst.band_high:.2f}]; "
            "the signature oracle only answers in-band queries"
        )
    tp = TermPattern.of(inst.satisfied_terms(x))
    if tp.kind != "unique":
        return FullSignature(tp, None)
    i = tp.first
    cp = ClausePattern.of(inst.falsified_clauses(i, x))
    a = None if cp.first is None else inst.dictator(i, cp.first).value_at(x)
    b = None if cp.second is None else inst.dictator(i, cp.second).value_at(x)
    return FullSignature(tp, cp, a, b)


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
    band of the weight inside ``M`` after that XOR.  A one-level instance
    is the core with ``M = [n]`` and zero orientation, so there ``y = x``
    and ``|y_M| = |x|``.
    """
    y = x.xor(inst.orientation)
    if inst.band_class_base(y) != "middle":
        raise OutOfBandError(
            f"|y_M|={inst.m_weight(y)} outside the middle layers "
            f"[{inst.band_low:.2f}, {inst.band_high:.2f}] after orientation; "
            "the signature oracle only answers in-band queries"
        )
    tp = TermPattern.of(inst.satisfied_terms_base(y))
    a = None if tp.first is None else inst.dictator(tp.first).value_at(y)
    b = None if tp.second is None else inst.dictator(tp.second).value_at(y)
    return UnateSignature(tp, a, b)


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

