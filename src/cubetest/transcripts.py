"""Transcript bookkeeping for signature oracles.

A transcript is the ordered list of (query, signature) pairs together with
the *induced tuple* it determines:

* ``I`` -- term indices with at least one known satisfying query;
* ``J`` (two-level only) -- per-term clause indices with a known
  falsifying query;
* ``P`` / ``R`` -- queries known to satisfy / not satisfy each tracked
  term (and, two-level, to falsify / satisfy each tracked clause);
* ``A`` -- coordinates on which all members of a ``P`` set agree, split by
  the common value, as coordinate bitsets (bit ``v`` is coordinate ``v``);
* ``rho`` -- the observed dictator values per tracked cell (two-level)
  or term (single-level).

Transcripts are single-owner mutable values: ``extend`` updates the tuple
incrementally (one update of a tracked key, ``_Transcript._track``, serves
the terms of both kinds and the cells of the two-level kind), and
``induced_*_tuple`` recomputes the same data from scratch straight off the
definitions, as an independent cross-check.

The module also houses the bad-edge classifiers and breach bookkeeping
with special-variable revelation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional

from .core import BitString
from .families import UnateInstance
from .sigoracle import (
    FullSignature,
    UnateSignature,
    unate_signature,
)

__all__ = [
    "ClassifierConfig",
    "EdgeClass",
    "MonoTranscript",
    "SingleLevelTranscript",
    "UnateTranscript",
    "UnateSignatureOracle",
    "induced_mono_tuple",
    "induced_single_level_tuple",
    "consistency_status",
    "classify_mono_edge",
    "classify_unate_edge",
    "breached_terms",
]


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierConfig:
    """Thresholds used by the bad-edge classifiers.

    Every threshold left ``None`` is filled from its standard formula in
    the dimension ``n`` (with base-2 logarithms); setting one individually
    is how the hand-crafted fixtures make the rare events reachable at
    desk-scale dimensions.
    """

    n: int
    alpha: float = 4.0
    mono_drop: Optional[float] = None  # alpha * sqrt(n) * log n
    unate_drop: Optional[float] = None  # n^(2/3) * log n
    breach_cap: Optional[float] = None  # n^(1/3) / log n

    def __post_init__(self):
        if not self.alpha >= 1:  # NaN fails every comparison
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        n, alpha = self.n, self.alpha
        # not math.log2: the quotient differs from it in the last bit at some n
        log_n = math.log(n) / math.log(2.0)
        standard = {
            "mono_drop": alpha * math.sqrt(n) * log_n,
            "unate_drop": n ** (2.0 / 3.0) * log_n,
            "breach_cap": n ** (1.0 / 3.0) / log_n,
        }
        for name, value in standard.items():
            given = getattr(self, name)
            if given is None:
                object.__setattr__(self, name, value)
            elif math.isnan(given):  # a NaN threshold would never fire
                raise ValueError(f"{name} must not be NaN")


@dataclass(frozen=True)
class EdgeClass:
    """Classification of one transcript transition.

    ``kind`` is None for an uneventful edge.  When several event types
    fire at the same edge, the lowest-numbered one is reported and all of
    them are listed in ``ambiguous``.
    """

    kind: Optional[str] = None
    i: Optional[int] = None
    j: Optional[int] = None
    ambiguous: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.kind is not None


# ---------------------------------------------------------------------------
# What both transcript kinds share
# ---------------------------------------------------------------------------


def _meet(n: int, sets: Iterable[set[int]]) -> int:
    """The coordinate bitset of the intersection of ``sets``."""
    return BitString.from_indices(n, set.intersection(*sets)).bits


def _outside_term(sig, i: int) -> bool:
    """The query is known not to satisfy term ``i``."""
    return sig.term.entry(i) == 0


def _outside_cell(sig: FullSignature, cell: tuple[int, int]) -> bool:
    """The query is routed to term ``i`` and known to satisfy clause ``j``."""
    i, j = cell
    return sig.term.kind == "unique" and sig.term.first == i and sig.clause.entry(j) == 1


class _Transcript:
    """Term-level fields and updates of both transcript kinds; ``rho`` is
    keyed by cell (two level) or term (single level)."""

    def __init__(self, n: int):
        self.n = n
        self.queries: list[tuple[BitString, FullSignature | UnateSignature]] = []
        self.I: set[int] = set()
        self.P: dict[int, list[int]] = {}
        self.R: dict[int, list[int]] = {}
        self.A1: dict[int, int] = {}
        self.A0: dict[int, int] = {}
        self.rho: dict = {}
        self.bad_edge: Optional[EdgeClass] = None
        self.edge_classes: list[Optional[EdgeClass]] = []

    def __len__(self) -> int:
        return len(self.queries)

    def _track(self, P: dict, R: dict, A1: dict, A0: dict, keys: Iterable,
               outside: Callable, x: BitString) -> list:
        """Add the newest query ``x`` to ``P`` of each of ``keys`` (the terms
        or cells it is a member of) and narrow their ``A1``/``A0`` to its
        ones/zeros; a new key's ``R`` starts with the earlier queries that
        ``outside(sig, key)`` puts outside it.  Returns the new keys."""
        qidx = len(self.queries) - 1
        b = x.bits
        new = []
        for key in keys:
            if key in P:
                P[key].append(qidx)
                A1[key] &= b
                A0[key] &= ~b
            else:
                new.append(key)
                P[key] = [qidx]
                A1[key] = b
                A0[key] = ((1 << self.n) - 1) ^ b
                R[key] = [q for q, (_, s) in enumerate(self.queries[:qidx]) if outside(s, key)]
        return new

    def _extend_terms(self, x: BitString, sig, sig_type: type) -> list:
        """Append one (query, signature) pair and update the term level,
        ``R`` included; returns the new terms."""
        if x.n != self.n:
            raise ValueError(f"query has n={x.n}, transcript has n={self.n}")
        if not isinstance(sig, sig_type):
            raise ValueError(f"expected a {sig_type.__name__}, got {type(sig).__name__}")
        self.queries.append((x, sig))
        new = self._track(self.P, self.R, self.A1, self.A0, sig.term.members(), _outside_term, x)
        self.I.update(new)
        qidx = len(self.queries) - 1
        for i in sig.term.unmarked(self.I):  # their entries are 0
            self.R[i].append(qidx)
        return new

    def dump_jsonl(self) -> str:
        """One JSON record per query: point, signature, the cumulative
        tuple sizes (and breach revelations) of ``_record``, and the
        recorded edge class (when a classifier was run)."""
        lines = []
        for q, (x, sig) in enumerate(self.queries):
            rec = {"x": x.to_json(), "signature": sig.to_json(), **self._record(q)}
            if q < len(self.edge_classes) and self.edge_classes[q] is not None:
                e = self.edge_classes[q]
                rec["edge_class"] = {"kind": e.kind, "i": e.i, "j": e.j}
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Two-level transcripts
# ---------------------------------------------------------------------------


class MonoTranscript(_Transcript):
    """Ordered full-signature transcript with its induced tuple."""

    def __init__(self, n: int):
        super().__init__(n)
        self.J: dict[int, set[int]] = {}
        self.Pij: dict[tuple[int, int], list[int]] = {}
        self.Rij: dict[tuple[int, int], list[int]] = {}
        self.Aij1: dict[tuple[int, int], int] = {}
        self.Aij0: dict[tuple[int, int], int] = {}

    def _record(self, q: int) -> dict:
        def upto(tracked: dict) -> dict:
            # P lists grow in query order: their prefixes up to q are the tuple after q
            return {k: sum(p <= q for p in v) for k, v in tracked.items() if v[0] <= q}

        p = upto(self.P)
        return {"sizes": {
            "queries": q + 1,
            "I": len(p),
            "P": {str(i): c for i, c in p.items()},
            "Pij": {f"{i},{j}": c for (i, j), c in upto(self.Pij).items()},
        }}

    def extend(self, x: BitString, sig: FullSignature) -> None:
        """Append one (query, signature) pair and update the tuple."""
        for i in self._extend_terms(x, sig, FullSignature):
            self.J[i] = set()
        if sig.term.kind != "unique":
            return
        i = sig.term.first
        qidx = len(self.queries) - 1
        cells = [(i, j) for j in sig.clause.zero_members()]
        for _, j in self._track(self.Pij, self.Rij, self.Aij1, self.Aij0, cells, _outside_cell, x):
            self.J[i].add(j)
        for j in sig.clause.unmarked(self.J[i]):  # their entries are 1
            self.Rij[(i, j)].append(qidx)
        for cell in cells:
            self.rho.setdefault(cell, {})[qidx] = sig.value_for(cell[1])

    def check_axioms(self) -> list[str]:
        """Structural facts every induced tuple must satisfy.

        Returns a list of human-readable violations (empty when clean):
        the size chains |I| <= sum|P_i| <= 2|Q| and |J_i| <= sum|P_ij| <=
        2|P_i|, the R-set bounds, the inclusions P_ij in P_i and A_i,b in
        A_ij,b, and the pairwise counting bound on |A_ij,1|.
        """
        bad: list[str] = []
        nq = len(self.queries)
        if not len(self.I) <= sum(len(p) for p in self.P.values()) <= 2 * nq:
            bad.append("|I| <= sum |P_i| <= 2|Q| fails")
        for i in self.I:
            pij_sizes = sum(len(self.Pij[(i, j)]) for j in self.J[i])
            if not len(self.J[i]) <= pij_sizes <= 2 * len(self.P[i]):
                bad.append(f"|J_{i}| <= sum |P_ij| <= 2|P_{i}| fails")
            if len(self.R[i]) > nq:
                bad.append(f"|R_{i}| > |Q|")
            for j in self.J[i]:
                if len(self.Rij[(i, j)]) > nq:
                    bad.append(f"|R_({i},{j})| > |Q|")
                if not set(self.Pij[(i, j)]) <= set(self.P[i]):
                    bad.append(f"P_({i},{j}) not within P_{i}")
                if self.A0[i] & ~self.Aij0[(i, j)]:
                    bad.append(f"A_({i},0) not within A_({i},{j},0)")
                if self.A1[i] & ~self.Aij1[(i, j)]:
                    bad.append(f"A_({i},1) not within A_({i},{j},1)")
                for q in self.Pij[(i, j)]:
                    x = self.queries[q][0].bits
                    lost = 0
                    for q2 in self.Pij[(i, j)]:
                        if q2 == q:
                            continue
                        lost += (x & ~self.queries[q2][0].bits).bit_count()
                    if self.Aij1[(i, j)].bit_count() < x.bit_count() - lost:
                        bad.append(f"pairwise count bound fails at ({i},{j})")
        return bad

    def cross_check_instance(self, inst) -> list[str]:
        """Ground-truth facts against the hidden instance.

        Every tracked term has its variables inside ``A_i1`` and value 0
        on its ``R_i``; every tracked clause has its variables inside
        ``A_ij0`` and value 1 on its ``R_ij``.
        """
        bad: list[str] = []
        for i in self.I:
            term = inst.term(i)
            if term.mask & ~self.A1[i]:
                bad.append(f"term {i} variables escape A_(i,1)")
            for q in self.R[i]:
                if term.satisfied_by(self.queries[q][0]):
                    bad.append(f"term {i} satisfied by a member of R_{i}")
        for (i, j), rij in self.Rij.items():
            clause = inst.clause(i, j)
            if clause.mask & ~self.Aij0[(i, j)]:
                bad.append(f"clause ({i},{j}) variables escape A_(i,j,0)")
            for q in rij:
                if clause.falsified_by(self.queries[q][0]):
                    bad.append(f"clause ({i},{j}) falsified by a member of R_ij")
        return bad


def induced_mono_tuple(queries: list[tuple[BitString, FullSignature]]) -> MonoTranscript:
    """From-scratch recomputation of the induced tuple (definitional).

    Written directly off the set definitions rather than incrementally (the
    agreement sets turn into bitsets once intersected), so it serves as an
    independent oracle against :meth:`MonoTranscript.extend`.
    """
    if not queries:
        t = MonoTranscript(1)
        t.queries = []
        return t
    n = queries[0][0].n
    t = MonoTranscript(n)
    t.queries = list(queries)
    members = [
        (set(x.one_indices()), set(x.zero_indices()), sig) for x, sig in queries
    ]
    all_i = sorted({i for _, _, sig in members for i in sig.term.members()})
    t.I = set(all_i)
    for i in all_i:
        t.P[i] = [q for q, (_, _, s) in enumerate(members) if s.term.entry(i) == 1]
        t.R[i] = [q for q, (_, _, s) in enumerate(members) if s.term.entry(i) == 0]
        t.A1[i] = _meet(n, (members[q][0] for q in t.P[i]))
        t.A0[i] = _meet(n, (members[q][1] for q in t.P[i]))
        uniq = [
            q
            for q, (_, _, s) in enumerate(members)
            if s.term.kind == "unique" and s.term.first == i
        ]
        t.J[i] = {j for q in uniq for j in members[q][2].clause.zero_members()}
        for j in sorted(t.J[i]):
            t.Pij[(i, j)] = [q for q in uniq if members[q][2].clause.entry(j) == 0]
            t.Rij[(i, j)] = [q for q in uniq if members[q][2].clause.entry(j) == 1]
            t.Aij1[(i, j)] = _meet(n, (members[q][0] for q in t.Pij[(i, j)]))
            t.Aij0[(i, j)] = _meet(n, (members[q][1] for q in t.Pij[(i, j)]))
            t.rho[(i, j)] = {}
            for q in t.Pij[(i, j)]:
                sig = members[q][2]
                t.rho[(i, j)][q] = sig.value_for(j)
    return t


def _status(values: Iterable[int]) -> str:
    vals = set(values)
    if vals == {1}:
        return "one_consistent"
    if vals == {0}:
        return "zero_consistent"
    return "inconsistent"


def consistency_status(t, i: int, j: Optional[int] = None) -> str:
    """Consistency of a tracked cell (two-level) or term (single-level)."""
    if j is not None:
        return _status(t.rho[(i, j)].values())
    return _status(t.rho[i].values())


def classify_mono_edge(
    t: MonoTranscript, x: BitString, sig: FullSignature, cfg: ClassifierConfig
) -> EdgeClass:
    """Classify the transition ``t -> t + (x, sig)`` before extending.

    Events: E1 -- a tracked term's common-one set loses at least the drop
    threshold; E2 -- same for a tracked clause's common-zero set; E3 (not
    E2) -- a zero-consistent cell turns inconsistent; E4 (not E1/E2) -- a
    one-consistent cell turns inconsistent.  Only the first bad edge on a
    path counts; later calls return the empty class.
    """
    if t.bad_edge is not None:
        return EdgeClass()
    b = x.bits
    found: list[EdgeClass] = []

    for i in sorted(set(sig.term.members()) & t.I):
        if (t.A1[i] & ~b).bit_count() >= cfg.mono_drop:
            found.append(EdgeClass("E1", i))
            break
    cells: list[tuple[int, int]] = []
    if sig.term.kind == "unique":
        i = sig.term.first
        cells = [(i, j) for j in sig.clause.zero_members() if (i, j) in t.Pij]
    for (i, j) in cells:
        if (t.Aij0[(i, j)] & b).bit_count() >= cfg.mono_drop:
            found.append(EdgeClass("E2", i, j))
            break
    kinds = {e.kind for e in found}
    if "E2" not in kinds:
        for (i, j) in cells:
            if consistency_status(t, i, j) == "zero_consistent" and sig.value_for(j) == 1:
                found.append(EdgeClass("E3", i, j))
                break
    if not kinds & {"E1", "E2"}:
        for (i, j) in cells:
            if consistency_status(t, i, j) == "one_consistent" and sig.value_for(j) == 0:
                found.append(EdgeClass("E4", i, j))
                break
    if not found:
        return EdgeClass()
    found.sort(key=lambda e: e.kind)
    first = found[0]
    if len(found) > 1:
        return replace(first, ambiguous=tuple(e.kind for e in found))
    return first


# ---------------------------------------------------------------------------
# Single-level transcripts
# ---------------------------------------------------------------------------


class SingleLevelTranscript(_Transcript):
    """Signature transcript for the single-level families."""

    def _record(self, q: int) -> dict:
        return {"sizes": {"queries": q + 1, "I": sum(1 for i in self.I if self.P[i][0] <= q)}}

    def common_coords(self, i: int) -> int:
        """A_i, a bitset: the coordinates where all members of P_i agree."""
        return self.A1[i] | self.A0[i]

    def extend(self, x: BitString, sig: UnateSignature) -> None:
        self._extend_terms(x, sig, UnateSignature)
        for i in sig.term.members():
            self.rho.setdefault(i, {})[len(self.queries) - 1] = sig.value_for(i)


def induced_single_level_tuple(
    queries: list[tuple[BitString, UnateSignature]],
) -> SingleLevelTranscript:
    """Definitional recomputation, the oracle for incremental updates."""
    if not queries:
        return SingleLevelTranscript(1)
    t = SingleLevelTranscript(queries[0][0].n)
    t.queries = list(queries)
    sigs = [sig for _, sig in queries]
    t.I = {i for s in sigs for i in s.term.members()}
    for i in sorted(t.I):
        t.P[i] = [q for q, s in enumerate(sigs) if s.term.entry(i) == 1]
        t.R[i] = [q for q, s in enumerate(sigs) if s.term.entry(i) == 0]
        t.A1[i] = _meet(t.n, (set(queries[q][0].one_indices()) for q in t.P[i]))
        t.A0[i] = _meet(t.n, (set(queries[q][0].zero_indices()) for q in t.P[i]))
        t.rho[i] = {q: sigs[q].value_for(i) for q in t.P[i]}
    return t


class UnateTranscript(SingleLevelTranscript):
    """Single-level transcript plus breach bookkeeping.

    A tracked term is *breached* once its observed dictator values are
    inconsistent or its agreement set outside ``M`` (the bitset ``Mbar``)
    has shrunk to at most the overlap floor n/10; at that moment the oracle
    reveals its special variable, recorded in ``delta``.
    """

    def __init__(self, n: int, m_members: Iterable[int]):
        super().__init__(n)
        self.M = frozenset(int(i) for i in m_members)
        self.Mbar = BitString.from_indices(n, set(range(n)) - self.M).bits
        self.I_B: set[int] = set()
        self.delta: dict[int, int] = {}
        self.breach_events: list[dict[int, int]] = []

    @property
    def I_S(self) -> set[int]:
        return self.I - self.I_B

    def is_breached(self, i: int) -> bool:
        if _status(self.rho[i].values()) == "inconsistent":
            return True
        return (self.common_coords(i) & self.Mbar).bit_count() <= self.n / 10.0

    def snapshot(self) -> "UnateTranscript":
        c = UnateTranscript(self.n, self.M)
        c.queries = list(self.queries)
        c.I = set(self.I)
        c.P = {i: list(v) for i, v in self.P.items()}
        c.R = {i: list(v) for i, v in self.R.items()}
        c.A1, c.A0 = dict(self.A1), dict(self.A0)
        c.rho = {i: dict(v) for i, v in self.rho.items()}
        c.I_B = set(self.I_B)
        c.delta = dict(self.delta)
        c.breach_events = [dict(ev) for ev in self.breach_events]
        c.bad_edge = self.bad_edge
        c.edge_classes = list(self.edge_classes)
        return c

    def extend(
        self,
        x: BitString,
        sig: UnateSignature,
        reveal: Mapping[int, int] | Callable[[int], int] | None = None,
    ) -> dict[int, int]:
        """Extend and record newly breached terms.

        ``reveal`` supplies the true special variable of each newly
        breached term (a mapping or a callable); it is required whenever a
        breach actually occurs.  Returns the newly revealed entries.
        """
        super().extend(x, sig)
        newly: dict[int, int] = {}
        for i in sig.term.members():
            if i not in self.I_B and self.is_breached(i):
                if reveal is None:
                    raise ValueError(
                        f"term {i} newly breached but no revelation supplied"
                    )
                k = reveal(i) if callable(reveal) else reveal[i]
                self.I_B.add(i)
                self.delta[i] = int(k)
                newly[i] = int(k)
        self.breach_events.append(dict(newly))
        return newly

    def _record(self, q: int) -> dict:
        rec = super()._record(q)
        rec["sizes"]["breached"] = sum(len(ev) for ev in self.breach_events[: q + 1])
        if q < len(self.breach_events) and self.breach_events[q]:
            rec["breach_events"] = {
                str(i): k for i, k in sorted(self.breach_events[q].items())
            }
        return rec


def breached_terms(t: UnateTranscript) -> tuple[frozenset, frozenset]:
    """From-scratch (I_B, I_S) split; must equal the incremental sets."""
    breached = frozenset(i for i in t.I if t.is_breached(i))
    return breached, frozenset(t.I) - breached


class UnateSignatureOracle:
    """Stateful oracle for the unateness family.

    Owns the growing transcript; each query returns the signature plus the
    special variables of any newly breached terms, looked up from the true
    instance.
    """

    def __init__(self, inst: UnateInstance):
        self.inst = inst
        self.transcript = UnateTranscript(inst.n, inst.M)
        self.queries_used = 0

    def _special_var(self, i: int) -> int:
        return int(self.inst._dict_vars[i])

    def query(self, x: BitString) -> tuple[UnateSignature, dict[int, int]]:
        sig = unate_signature(self.inst, x)  # an out-of-band query raises, uncounted
        self.queries_used += 1
        revealed = self.transcript.extend(x, sig, reveal=self._special_var)
        return sig, revealed

    def classify_next(self, x: BitString, cfg: ClassifierConfig) -> EdgeClass:
        """Classify the edge the next query would take, without taking it."""
        sig = unate_signature(self.inst, x)
        return classify_unate_edge(
            self.transcript, x, sig, self._special_var, cfg
        )


def classify_unate_edge(
    t: UnateTranscript,
    x: BitString,
    sig: UnateSignature,
    reveal: Mapping[int, int] | Callable[[int], int] | None,
    cfg: ClassifierConfig,
) -> EdgeClass:
    """Classify the transition of a unateness transcript before extending.

    Events, tried in priority order: E1 -- the agreement set of a safe
    term drops by at least the threshold; E2 (not E1) -- the breached
    count passes the cap; E3 (not E1/E2) -- two breached terms share a
    special variable.  Returns the empty class past the first bad edge.
    """
    if t.bad_edge is not None:
        return EdgeClass()
    b = x.bits
    for i in sorted(set(sig.term.members()) & t.I_S):
        drop = (t.A1[i] & ~b).bit_count() + (t.A0[i] & b).bit_count()
        if drop >= cfg.unate_drop:
            return EdgeClass("E1", i)
    probe = t.snapshot()
    probe.extend(x, sig, reveal=reveal)
    if len(probe.I_B) > cfg.breach_cap:
        return EdgeClass("E2")
    seen: dict[int, int] = {}
    for i in sorted(probe.I_B):
        k = probe.delta[i]
        if k in seen:
            return EdgeClass("E3", seen[k], i)
        seen[k] = i
    return EdgeClass()
